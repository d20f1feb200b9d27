"""Outside-in tracer for the splitcurves package.

The tracer wraps public functions of the package from the benchmark's own
code; nothing under ``src/`` knows about it.  A function imported by name
into several modules (``linalg.kernel_basis`` is also ``splitting.kernel_basis``)
is replaced in every ``splitcurves`` module that holds it, and methods are
replaced on their class, so every call path is seen.

Spans are kept in memory as ``[id, parent, op, name, start, end, info]``
and written out as JSON lines when the run ends.  ``op`` is the index of the
benchmark operation the span belongs to; ``info`` is what a probe read from
the arguments or the result (matrix shape, degree, height, ...).
"""

import importlib
import json
import sys
import time
from fractions import Fraction
from math import gcd


def _rref_shape(args, kwargs, result):
    rows = args[0]
    ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return (len(rows), ncols)


def _subsets_and_witnesses(args, kwargs, result):
    tried = len(result.witnesses) + sum(1 for f in result.failures if "subset" in f)
    return (tried, len(result.witnesses))


def _found(args, kwargs, result):
    return result is not None


def _point_height(args, kwargs, result):
    """Height of the point found: max |coordinate| of its primitive integer form."""
    if result is None:
        return 0
    coords = [Fraction(c) for c in result.coords]
    lcm = 1
    for c in coords:
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in coords]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return max(abs(v) for v in ints) // g


def _input_degree(args, kwargs, result):
    return args[0].degree()


def _first_arg(args, kwargs, result):
    return args[0]


# (module, attribute, probe).  An attribute "Class.method" is patched on the
# class; the span is named "<module>.<Class>.<method without underscores>".
TARGETS = (
    ("cli", "main", None),
    ("reports", "run_verify_example", _first_arg),
    ("reports", "zariski_triple_outcomes", None),
    ("registry", "load_example", None),
    ("splitting", "splitting_type", None),
    ("splitting", "normalize_configuration", None),
    ("splitting", "necessary_dim_check", _subsets_and_witnesses),
    ("splitting", "criterion_24_7nodal", None),
    ("splitting", "factor_pullback", _found),
    ("splitting", "certificate_from_factor", None),
    ("splitting", "verify_certificate", None),
    ("curves", "verify_node", None),
    ("curves", "singular_locus_complete", None),
    ("curves", "resultant_y", None),
    ("curves", "irreducibility_sextic", None),
    ("conics", "find_rational_point", _point_height),
    ("conics", "contact_profile", None),
    ("conics", "restrict_to_conic", None),
    ("conics", "normalize_conic", None),
    ("conics", "parametrize_conic", None),
    ("cover", "pullback_curve", None),
    ("quartics", "project_quartic", None),
    ("quartics", "syzygetic_test", None),
    ("quartics", "surface_singular_locus_complete", None),
    ("quartics", "general_position_p3", None),
    ("linsys", "system_solve", None),
    ("linalg", "rref", _rref_shape),
    ("linalg", "kernel_basis", None),
    ("linalg", "rank_bareiss", None),
    ("linalg", "det_bareiss", None),
    ("linalg", "mat_det", None),
    ("linalg", "solve_linear", None),
    ("arith", "upoly_factor", _input_degree),
    ("arith", "upoly_gcd", None),
    ("arith", "BinForm.factor", None),
    ("forms", "Form.__mul__", None),
    ("forms", "BiForm.__mul__", None),
    ("forms", "substitute_form", None),
    ("forms", "compose_form", None),
    ("forms", "parse_form", None),
)


def span_name(module, attribute):
    return "%s.%s" % (module, attribute.replace("__", ""))


class Tracer:
    """Records one span per call of every target while installed."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, probe):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, tracer.op, name, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
            if probe is not None:
                rec[6] = probe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module_name, _attribute, _probe in TARGETS:
            importlib.import_module("splitcurves." + module_name)
        package = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "splitcurves" or n.startswith("splitcurves."))
        ]
        for module_name, attribute, probe in TARGETS:
            module = sys.modules["splitcurves." + module_name]
            name = span_name(module_name, attribute)
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[method]
                wrapper = self._wrap(name, orig, probe)
                holders = [cls]
            else:
                orig = getattr(module, attribute)
                wrapper = self._wrap(name, orig, probe)
                holders = package
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, wrapper)
                        self._patches.append((holder, key, orig))

    def uninstall(self):
        for holder, key, orig in reversed(self._patches):
            setattr(holder, key, orig)
        self._patches = []

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, op, name, start, end, info in self.spans:
                handle.write(json.dumps(
                    {"id": sid, "parent": parent, "op": op, "name": name,
                     "start": start, "end": end, "info": info}
                ) + "\n")


def layer_metrics(spans):
    """Per-layer totals of one traced run, keyed by metric name.

    ``total_s`` counts only the outermost span of a name, so recursion is
    not counted twice; ``self_s`` is a span's duration minus its direct
    children's.
    """
    child = [0.0] * len(spans)
    for sid, parent, _op, _name, start, end, _info in spans:
        if parent >= 0:
            child[parent] += end - start

    def has_ancestor(rec, name):
        parent = rec[1]
        while parent >= 0:
            if spans[parent][3] == name:
                return True
            parent = spans[parent][1]
        return False

    calls, total, self_s, infos = {}, {}, {}, {}
    for rec in spans:
        sid, _parent, _op, name, start, end, info = rec
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - child[sid]
        if not has_ancestor(rec, name):
            total[name] = total.get(name, 0.0) + dur
        infos.setdefault(name, []).append(info)

    out = {}
    for module_name, attribute, _probe in TARGETS:
        name = span_name(module_name, attribute)
        out[name + ".calls"] = calls.get(name, 0)
        out[name + ".total_s"] = total.get(name, 0.0)
        out[name + ".self_s"] = self_s.get(name, 0.0)

    for example_id in ("split6", "nonsplit6a", "nonsplit6b", "split7-33",
                       "split7-24", "nonsplit7"):
        out["reports.run_verify_example.%s.total_s" % example_id] = sum(
            (end - start for _s, _p, _o, name, start, end, info in spans
             if name == "reports.run_verify_example" and info == example_id),
            0.0,
        )

    tried_witnessed = [i for i in infos.get("splitting.necessary_dim_check", []) if i]
    tried = sum(t for t, _w in tried_witnessed)
    out["splitting.necessary_dim_check.subsets"] = tried
    out["splitting.necessary_dim_check.witness_ratio"] = (
        sum(w for _t, w in tried_witnessed) / tried if tried else 0.0
    )

    found = infos.get("splitting.factor_pullback", [])
    out["splitting.factor_pullback.found_ratio"] = (
        sum(1 for f in found if f) / len(found) if found else 0.0
    )
    out["splitting.factor_pullback.groupings"] = sum(
        1 for rec in spans
        if rec[3] == "linalg.kernel_basis" and has_ancestor(rec, "splitting.factor_pullback")
    )

    slc = calls.get("curves.singular_locus_complete", 0)
    out["curves.singular_locus_complete.resultants_per_call"] = (
        sum(
            1 for rec in spans
            if rec[3] == "curves.resultant_y"
            and has_ancestor(rec, "curves.singular_locus_complete")
        ) / slc if slc else 0.0
    )

    heights = infos.get("conics.find_rational_point", [])
    out["conics.find_rational_point.max_height"] = max(heights) if heights else 0

    shapes = infos.get("linalg.rref", [])
    out["linalg.rref.max_rows"] = max((r for r, _c in shapes), default=0)
    out["linalg.rref.max_cols"] = max((c for _r, c in shapes), default=0)
    out["linalg.rref.cells"] = sum(r * c for r, c in shapes)

    degrees = infos.get("arith.upoly_factor", [])
    out["arith.upoly_factor.max_degree"] = max(degrees) if degrees else 0

    out["trace.spans"] = len(spans)
    return out
