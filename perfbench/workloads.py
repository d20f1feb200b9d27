"""Seeded inputs, operations and correctness checks of the two workloads.

Every draw comes from one ``random.Random(seed)``; nothing here uses
``hash()`` or set order, so one seed gives the same inputs in every process.
No draw is kept or dropped because of what the program answers: the only
redraws reject inputs that are not valid at all (the zero curve).

A workload is a list of blocks, each a fixed mix of operations, so that
every run measures the same proportions whatever its length.  ``call`` is
the timed part of an operation; ``check`` grades its result afterwards.
"""

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

CATALOG_IDS = ("split6", "nonsplit6a", "nonsplit6b", "split7-33", "split7-24",
               "nonsplit7", "zariski-triple")

# Quadratic fields Q(sqrt(e)) of the extension-only splittings: the same
# list the factor search tries by default, so every such curve is in reach.
EXTENSIONS = (-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10)

OK, UNDETERMINED, FAILED = "ok", "undetermined", "failed"


class Op:
    __slots__ = ("kind", "args")

    def __init__(self, kind, args):
        self.kind = kind
        self.args = args


class Outcome:
    __slots__ = ("status", "json_changed")

    def __init__(self, status, json_changed=False):
        self.status = status
        self.json_changed = json_changed


def load_expected():
    with open(os.path.join(REFERENCE_DIR, "expected.json"), encoding="utf-8") as handle:
        return json.load(handle)


def reference_payload_path(example_id):
    return os.path.join(REFERENCE_DIR, "verify-example-%s.json" % example_id)


def _canon(obj):
    """Text form of an input, independent of the program's printers."""
    from splitcurves.forms import Form, ProjPoint

    if isinstance(obj, Form):
        return "F%d[%s]" % (obj.degree, ",".join(
            "%s:%s" % (e, Fraction(c)) for e, c in sorted(obj.terms.items())))
    if isinstance(obj, ProjPoint):
        return "P(%s)" % ",".join(str(c) for c in obj.coords)
    if isinstance(obj, (list, tuple)):
        return "(%s)" % ",".join(_canon(x) for x in obj)
    return str(obj)


def digest(blocks):
    h = hashlib.sha256()
    for block in blocks:
        for op in block:
            h.update(("%s %s\n" % (op.kind, _canon(op.args))).encode())
    return h.hexdigest()[:16]


# --------------------------------------------------------------------------
# catalog: the paper's examples through the command line entry point
# --------------------------------------------------------------------------


def verify_example_json(cli, example_id):
    """``splitcurves verify-example <id> --json`` in-process: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["verify-example", example_id, "--json"])
    return rc, buf.getvalue()


class Catalog:
    name = "catalog"

    def __init__(self, seed, n_blocks):
        from splitcurves import cli

        self._cli = cli
        self.expected = load_expected()["catalog"]
        self.reference = {}
        for example_id in CATALOG_IDS:
            with open(reference_payload_path(example_id), encoding="utf-8") as handle:
                self.reference[example_id] = handle.read()
        # One pass over the catalog in a fixed order; the seed has no inputs
        # to vary here, and repeating the pass is the whole workload.
        self.blocks = [[Op(example_id, (example_id,)) for example_id in CATALOG_IDS]]

    def call(self, op):
        return verify_example_json(self._cli, op.kind)

    def check(self, op, result):
        if isinstance(result, Exception):
            return Outcome(FAILED, True)
        rc, text = result
        changed = text != self.reference[op.kind]
        try:
            payload = json.loads(text)
        except ValueError:
            return Outcome(FAILED, changed)
        want = self.expected[op.kind]
        if op.kind == "zariski-triple":
            right = payload.get("pairwise_distinct") is True and payload.get("outcomes") == want
            return Outcome(OK if rc == 0 and right else FAILED, changed)
        if rc == 2 or payload.get("undetermined") is True:
            return Outcome(UNDETERMINED, changed)
        got = payload.get("splitting") or {}
        right = (
            payload.get("overall") is True
            and got.get("outcome") == want["outcome"]
            and got.get("type") == want.get("type")
        )
        return Outcome(OK if rc == 0 and right else FAILED, changed)


# --------------------------------------------------------------------------
# factor-search: the pullback factorization search on curves built to split
# --------------------------------------------------------------------------


def _exponents(degree):
    return [(a, b, degree - a - b)
            for a in range(degree, -1, -1) for b in range(degree - a, -1, -1)]


def random_form(rng, degree, height):
    """Nonzero plane form: ~80% of the monomials, coefficients p/q with |p|, q <= height."""
    from splitcurves.forms import Form

    terms = {}
    for expo in _exponents(degree):
        if rng.random() < 0.8:
            c = Fraction(rng.randint(-height, height), rng.randint(1, height))
            if c:
                terms[expo] = c
    if not terms:
        terms[(degree, 0, 0)] = Fraction(1)
    return Form(("x", "y", "z"), degree, terms)


def _curve(make):
    """Redraw until the constructed sextic is not the zero form."""
    while True:
        gamma = make()
        if gamma.terms:
            return gamma


class FactorSearch:
    name = "factor-search"

    def __init__(self, seed, n_blocks):
        from splitcurves import conics, cover, errors, forms, splitting

        self._cover = cover
        self._splitting = splitting
        self._budget_error = errors.SearchBudgetExceeded
        self.expected = load_expected()["factor_search"]
        rng = random.Random(seed)
        plane = ("x", "y", "z")
        delta = conics.delta2(plane)
        x, y, z = (forms.Form.variable(plane, v) for v in plane)

        def split33():
            c3, c2 = random_form(rng, 3, 4), random_form(rng, 2, 4)
            return c3 * c3 - delta * c2 * c2

        def split24():
            a2, b2, c2 = (random_form(rng, 2, 3) for _ in range(3))
            g3 = z * c2 - (x * b2).scale(2) - (y * a2).scale(2)
            g4 = c2 * c2 - (a2 * b2).scale(4)
            return g3 * g3 - delta * g4

        def split33_ext():
            e = rng.choice(EXTENSIONS)
            c3, c2 = random_form(rng, 3, 4), random_form(rng, 2, 4)
            return c3 * c3 - (delta * c2 * c2).scale(e)

        def miss():
            # A general c3^2 - delta * c4 is smooth, and a smooth curve
            # has no nodes, so it splits for no type.
            c3, c4 = random_form(rng, 3, 4), random_form(rng, 4, 4)
            return c3 * c3 - delta * c4

        # One block: a (3,3) splitting, a syzygetic (2,4) splitting, a (3,3)
        # splitting defined only over Q(sqrt(e)), and a contact sextic that
        # does not split, tried at (1,5), (2,4) and (3,3): proportions
        # 1 : 1 : 1 : 3.
        self.blocks = []
        for _ in range(n_blocks):
            g33 = _curve(split33)
            g24 = _curve(split24)
            gext = _curve(split33_ext)
            gmiss = _curve(miss)
            self.blocks.append([
                Op("split33", (g33, 3, 3)),
                Op("split24", (g24, 2, 4)),
                Op("split33_ext", (gext, 3, 3)),
                Op("miss15", (gmiss, 1, 5)),
                Op("miss24", (gmiss, 2, 4)),
                Op("miss33", (gmiss, 3, 3)),
            ])

    def call(self, op):
        gamma, m, n = op.args
        f_pull = self._cover.pullback_curve(gamma)
        try:
            return f_pull, self._splitting.factor_pullback(f_pull, m, n)
        except self._budget_error:
            return f_pull, None

    def check(self, op, result):
        if isinstance(result, Exception):
            return Outcome(FAILED)
        f_pull, factor = result
        gamma, m, n = op.args
        if not is_pullback(gamma, f_pull):
            return Outcome(FAILED)
        if self.expected[op.kind] == "no_factor":
            return Outcome(OK if factor is None else FAILED)
        if factor is None:
            return Outcome(UNDETERMINED)
        return Outcome(OK if factor_verifies(factor, f_pull, m, n) else FAILED)


# --------------------------------------------------------------------------
# independent checks of factor-search results, in plain Fraction arithmetic
# --------------------------------------------------------------------------


def _bimul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def _swap(a):
    return {(j, i): c for (i, j), c in a.items()}


def _combine(a, b, cb):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + cb * v
    return {k: v for k, v in out.items() if v}


def _scaled(a, c):
    return {k: c * v for k, v in a.items() if c * v}


def factor_verifies(factor, f_pull, m, n):
    """A * sigma(A) = (scalar + sqrt(e) * scalar_surd) * F, A of bidegree (m, n)."""
    a1 = {k: Fraction(v) for k, v in factor.a1.terms.items()}
    f = {k: Fraction(v) for k, v in f_pull.terms.items()}
    if factor.a1.bidegree != (m, n) or not a1:
        return False
    scalar = Fraction(factor.scalar)
    if factor.a2 is None:
        return scalar != 0 and _bimul(a1, _swap(a1)) == _scaled(f, scalar)
    if factor.a2.bidegree != (m, n):
        return False
    a2 = {k: Fraction(v) for k, v in factor.a2.terms.items()}
    surd_scalar = Fraction(factor.scalar_surd)
    e = factor.ext
    real = _combine(_bimul(a1, _swap(a1)), _bimul(a2, _swap(a2)), e)
    surd = _combine(_bimul(a1, _swap(a2)), _bimul(a2, _swap(a1)), 1)
    return (
        (scalar, surd_scalar) != (0, 0)
        and real == _scaled(f, scalar)
        and surd == _scaled(f, surd_scalar)
    )


_CHECK_POINTS = ((2, 3, -1, 5), (-3, 1, 4, 7), (5, -2, 3, 1))


def is_pullback(gamma, f_pull):
    """F(s,t,u,v) = gamma(su, tv, sv + tu) at a few fixed points."""
    d = gamma.degree
    if tuple(f_pull.bidegree) != (d, d):
        return False
    for s, t, u, v in _CHECK_POINTS:
        x, y, z = s * u, t * v, s * v + t * u
        lhs = sum(Fraction(c) * s ** i * t ** (d - i) * u ** j * v ** (d - j)
                  for (i, j), c in f_pull.terms.items())
        rhs = sum(Fraction(c) * x ** a * y ** b * z ** e
                  for (a, b, e), c in gamma.terms.items())
        if lhs != rhs:
            return False
    return True


WORKLOADS = {cls.name: cls for cls in (Catalog, FactorSearch)}
