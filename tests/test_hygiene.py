"""Static hygiene of the package: no unused import, no private helper,
public function, class, method or stored attribute nothing reads, no slot
that a constructor path leaves unassigned, no constant defined in two
modules, no import inside a function that no import cycle needs, no
benchmark tracer target that the package no longer defines, no call in the README's python examples to a name that the
package does not define, and no linear system solved for a kernel that
nothing reads.

The checks read the source with ``ast`` only; nothing of the package is
imported (a base class from the standard library is, to see what it defines).
"""

import ast
import builtins
import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "splitcurves"
SPANS = ROOT / "perfbench" / "spans.py"
README = ROOT / "README.md"
# the code whose reads keep a method or a public name of the package alive
READERS = (PACKAGE, ROOT / "tests", ROOT / "perfbench")


def _modules():
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _used_names(tree):
    """Every name read as a variable or attribute anywhere in the tree."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _imported_names(tree):
    """(bound name, line) of each import, at any depth."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append(((alias.asname or alias.name).split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                out.append((alias.asname or alias.name, node.lineno))
    return out


def _private_definitions(tree):
    """Module-level names that start with one underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_every_import_is_used():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__":
            continue  # the package namespace re-exports what it imports
        used = _used_names(tree)
        unused.extend(
            "%s.py:%d imports %s" % (name, line, bound)
            for bound, line in _imported_names(tree)
            if bound not in used
        )
    assert unused == []


def test_every_private_name_is_referenced():
    modules = _modules()
    referenced = set()
    for tree in modules.values():
        referenced |= _used_names(tree)
        referenced |= {bound for bound, _line in _imported_names(tree)}
    unreferenced = [
        "%s.%s" % (name, private)
        for name, tree in modules.items()
        for private in _private_definitions(tree)
        if private not in referenced
    ]
    assert unreferenced == []


def _relative_imports(tree):
    """(line, target module, inside a function) of each ``from .x import``
    and ``from . import x`` of the tree."""
    local = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local.update(id(node) for node in ast.walk(fn))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            targets = [node.module] if node.module else [a.name for a in node.names]
            out.extend((node.lineno, t.split(".")[0], id(node) in local) for t in targets)
    return out


def _needless_local_imports(modules):
    """``module.py:line imports target`` of each import inside a function of a
    module that the target does not import back, directly or through other
    modules, at module level: only such a cycle needs a local import."""
    graph = {
        name: {t for _line, t, local in _relative_imports(tree) if not local}
        for name, tree in modules.items()
    }

    def reaches(start, goal):
        seen, todo = set(), [start]
        while todo:
            name = todo.pop()
            if name == goal:
                return True
            if name not in seen:
                seen.add(name)
                todo.extend(graph.get(name, ()))
        return False

    return [
        "%s.py:%d imports %s" % (name, line, target)
        for name, tree in modules.items()
        for line, target, local in _relative_imports(tree)
        if local and not reaches(target, name)
    ]


def test_a_function_imports_only_to_break_a_cycle():
    assert _needless_local_imports(_modules()) == []


def test_the_local_import_check_sees_a_violation():
    modules = {
        "a": ast.parse("from .b import f\ndef g():\n    from .c import h\n    return h\n"),
        "b": ast.parse("def f():\n    from .a import g\n    return g\n"),
        "c": ast.parse("from . import d\nh = 1\n"),
        "d": ast.parse("from .a import g\n"),
        "e": ast.parse("import os\nclass K:\n    def m(self):\n        from . import b\n"),
    }
    # b and a import each other, and c reaches a through d; nothing imports e
    assert _needless_local_imports(modules) == ["e.py:4 imports b"]


def _public_definitions(tree):
    """Module-level functions and classes whose names do not start with "_"."""
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def _reader_trees():
    return [
        ast.parse(path.read_text(encoding="utf-8"))
        for root in READERS
        for path in sorted(root.rglob("*.py"))
    ]


def _unread_public(modules, readers):
    """``module.name`` of each public definition that no reader reads as a
    variable or attribute and the package's ``__init__`` does not export."""
    read = set()
    for tree in readers:
        read |= _used_names(tree)
    if "__init__" in modules:
        read |= {bound for bound, _line in _imported_names(modules["__init__"])}
    return [
        "%s.%s" % (name, public)
        for name, tree in modules.items()
        for public in _public_definitions(tree)
        if public not in read
    ]


def test_every_public_name_is_read():
    assert _unread_public(_modules(), _reader_trees()) == []


def _classes(modules):
    """{name: class node} of every class of the package, at any depth."""
    return {
        node.name: node
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }


def _inherited(cls, classes):
    """Names a class finds on its bases: package classes are read from their
    source, a builtin or ``module.Class`` base from the standard library."""
    names = set()
    for base in cls.bases:
        if isinstance(base, ast.Name) and base.id in classes:
            parent = classes[base.id]
            names |= {i.name for i in parent.body if isinstance(i, ast.FunctionDef)}
            names |= _inherited(parent, classes)
        elif isinstance(base, ast.Name):
            names |= set(dir(getattr(builtins, base.id)))
        else:
            module = importlib.import_module(base.value.id)
            names |= set(dir(getattr(module, base.attr)))
    return names


def _attributes_read(tree):
    """Every attribute name read in the tree: a method is reached as one."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _unread_methods(classes, read):
    """``Class.method`` of each method no reader reads as an attribute:
    dunders and overrides of a base-class method are called by the language
    or the base."""
    return [
        "%s.%s" % (cls.name, item.name)
        for cls in classes.values()
        for item in cls.body
        if isinstance(item, ast.FunctionDef)
        and not (item.name.startswith("__") and item.name.endswith("__"))
        and item.name not in _inherited(cls, classes)
        and item.name not in read
    ]


def test_every_method_is_read():
    read = set()
    for tree in _reader_trees():
        read |= _attributes_read(tree)
    assert _unread_methods(_classes(_modules()), read) == []


def test_the_checks_see_a_violation():
    tree = ast.parse(
        "import os\nfrom math import comb\n\ndef _helper():\n    return comb(3, 1)\n"
    )
    used = _used_names(tree)
    assert [b for b, _l in _imported_names(tree) if b not in used] == ["os"]
    assert _private_definitions(tree) == ["_helper"]
    assert "_helper" not in used
    tree = ast.parse(
        "import argparse\n"
        "class P(argparse.ArgumentParser):\n"
        "    def error(self, message): pass\n"
        "    def spare(self): pass\n"
        "class Q(P):\n"
        "    def spare(self): pass\n"
        "    def used(self): pass\n"
        "    def __len__(self): return 0\n"
        "Q().used()\n"
        "spare = 1\n"
    )
    classes = _classes({"m": tree})
    assert _unread_methods(classes, _attributes_read(tree)) == ["P.spare"]
    modules = {
        "__init__": ast.parse("from .m import exported\n"),
        "m": ast.parse(
            "def exported(): pass\n"
            "def called(): pass\n"
            "def dead(): pass\n"
            "class Dead: pass\n"
            "def _private(): pass\n"
        ),
    }
    reader = ast.parse("import m\nm.called()\n")
    assert _unread_public(modules, [*modules.values(), reader]) == ["m.dead", "m.Dead"]


def _slot_attributes(tree):
    """``Class.attribute`` of each name in the ``__slots__`` of a class."""
    out = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            if isinstance(item, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets
            ):
                slots = ast.literal_eval(item.value)
                if isinstance(slots, str):
                    slots = (slots,)
                out.extend("%s.%s" % (cls.name, name) for name in slots)
    return out


def _attributes_loaded(tree):
    """Every attribute name read (not only assigned) in the tree."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _unread_slots(modules, readers):
    read = set()
    for tree in readers:
        read |= _attributes_loaded(tree)
    return [
        slot
        for tree in modules.values()
        for slot in _slot_attributes(tree)
        if slot.split(".")[1] not in read
    ]


def test_every_stored_attribute_is_read():
    assert _unread_slots(_modules(), _reader_trees()) == []


def _constructor_paths(cls):
    """The methods of a class that build an instance: ``__init__``, and each
    method that calls ``__new__`` (the ``_clean`` and ``_dense`` paths)."""
    return [
        item
        for item in cls.body
        if isinstance(item, ast.FunctionDef)
        and (
            item.name == "__init__"
            or any(
                isinstance(node, ast.Attribute) and node.attr == "__new__"
                for node in ast.walk(item)
            )
        )
    ]


def _unassigned_slots(modules):
    """``Class.path: slot`` of each slot that a constructor path of its
    class does not assign: a new instance would keep no value there, or on
    a path that copies data, the value it was never meant to keep."""
    out = []
    for tree in modules.values():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            slots = [s.split(".")[1] for s in _slot_attributes(ast.Module([cls], []))]
            for path in _constructor_paths(cls):
                stored = {
                    node.attr
                    for node in ast.walk(path)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                }
                out.extend(
                    "%s.%s: %s" % (cls.name, path.name, slot)
                    for slot in slots
                    if slot not in stored
                )
    return out


def test_every_constructor_assigns_every_slot():
    modules = _modules()
    assert _unassigned_slots(modules) == []
    paths = {
        "%s.%s" % (cls.name, path.name)
        for cls in ast.walk(modules["forms"])
        if isinstance(cls, ast.ClassDef)
        for path in _constructor_paths(cls)
    }
    assert {"Form.__init__", "Form._clean", "BiForm.__init__", "BiForm._dense"} <= paths


def test_the_slot_assignment_check_sees_a_violation():
    modules = {
        "a": ast.parse(
            "class F:\n"
            "    __slots__ = ('terms', '_kept')\n"
            "    def __init__(self, terms):\n"
            "        self.terms = terms\n"
            "        self._kept = None\n"
            "    @classmethod\n"
            "    def _clean(cls, terms):\n"
            "        out = cls.__new__(cls)\n"
            "        out.terms = terms\n"
            "        return out\n"
            "    def scale(self, c):\n"
            "        return F({e: c * v for e, v in self.terms.items()})\n"
        ),
    }
    assert _unassigned_slots(modules) == ["F._clean: _kept"]


def _module_literals(tree):
    """(literal, name) of each module-level assignment of a literal value;
    a fresh empty container is state, not a constant, and is left out."""
    out = []
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        try:
            value = ast.literal_eval(node.value)
        except (ValueError, TypeError):
            continue
        if isinstance(value, (list, dict, set)) and not value:
            continue
        out.extend((repr(value), t.id) for t in node.targets if isinstance(t, ast.Name))
    return out


def _constants_defined_twice(modules):
    """``module.name`` of each literal constant that another module also defines."""
    where = {}
    for name, tree in modules.items():
        for literal, constant in _module_literals(tree):
            where.setdefault(literal, []).append("%s.%s" % (name, constant))
    return sorted(
        place
        for places in where.values()
        if len({p.split(".")[0] for p in places}) > 1
        for place in places
    )


def test_every_constant_is_defined_once():
    assert _constants_defined_twice(_modules()) == []


def test_the_attribute_and_constant_checks_see_a_violation():
    modules = {
        "a": ast.parse(
            "VARS = ('x', 'y')\n_CACHE = {}\n"
            "class P:\n"
            "    __slots__ = ('kept', 'spare')\n"
            "    def __init__(self):\n"
            "        self.kept = self.spare = 1\n"
            "    def value(self):\n"
            "        return self.kept\n"
        ),
        "b": ast.parse("NAMES = ('x', 'y')\n_SEEN = {}\nLIMIT = 3\n"),
    }
    assert _unread_slots(modules, modules.values()) == ["P.spare"]
    assert _constants_defined_twice(modules) == ["a.VARS", "b.NAMES"]


def _tracer_targets():
    """(module, attribute) of each entry of ``TARGETS`` in the benchmark tracer."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [
                (entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts
            ]
    raise AssertionError("perfbench/spans.py defines no TARGETS")


def _definitions(tree):
    """Module-level functions and ``Class.method`` names of a module."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(
                "%s.%s" % (node.name, item.name)
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            )
    return names


def _undefined_targets(modules, targets):
    """``module.attribute`` of each target that its module does not define:
    the tracer's ``install`` would fail on it."""
    return [
        "%s.%s" % (module, attribute)
        for module, attribute in targets
        if module not in modules or attribute not in _definitions(modules[module])
    ]


def test_every_tracer_target_is_defined():
    targets = _tracer_targets()
    assert targets
    assert _undefined_targets(_modules(), targets) == []


def test_the_tracer_target_check_sees_a_violation():
    # a traced function deleted from its module, a method from its class,
    # a module that is gone
    modules = {
        "splitting": ast.parse(
            "def factor_pullback(): pass\n"
            "class SplitCertificate:\n"
            "    def __init__(self): pass\n"
        ),
    }
    targets = [
        ("splitting", "factor_pullback"),
        ("splitting", "certificate_from_factor"),
        ("splitting", "SplitCertificate.__init__"),
        ("splitting", "SplitCertificate.__repr__"),
        ("cover", "pullback_curve"),
    ]
    assert _undefined_targets(modules, targets) == [
        "splitting.certificate_from_factor",
        "splitting.SplitCertificate.__repr__",
        "cover.pullback_curve",
    ]


# defaulted parameters that no call in the package sets, each with its reason
UNSET_DEFAULT_EXEMPT = {
    # the console script calls main() and the benchmark's catalog workload
    # passes a list: two callers with different values, one outside src/
    "cli.main(argv)",
}


def _defaulted_parameters(modules):
    """(``module.qualname(param)``, call name, index, param) of each parameter
    with a default of a function, method or class constructor.  The call name
    of ``__init__`` is its class; ``index`` is the parameter's place among
    the arguments a call passes positionally (None for keyword-only), so the
    ``self`` or ``cls`` of a method does not count."""
    out = []

    def visit(body, prefix, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, prefix + node.name + ".", node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decorators = {d.id for d in node.decorator_list if isinstance(d, ast.Name)}
                args = node.args
                positional = args.posonlyargs + args.args
                if cls is not None and "staticmethod" not in decorators:
                    positional = positional[1:]
                if node.name == "__init__" and cls is not None:
                    call, where = cls, prefix[:-1]
                else:
                    call, where = node.name, prefix + node.name
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    out.append(("%s(%s)" % (where, arg.arg), call, i, arg.arg))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out.append(("%s(%s)" % (where, arg.arg), call, None, arg.arg))
                visit(node.body, prefix + node.name + ".", None)

    for name, tree in modules.items():
        visit(tree.body, name + ".", None)
    return out


def _calls(trees):
    """{name: [(positional count, keyword names)]} of every call by name;
    ``*args`` counts as every position and ``**kwargs`` as every keyword."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            else:
                continue
            npos = len(node.args)
            if any(isinstance(a, ast.Starred) for a in node.args):
                npos = float("inf")
            keywords = {k.arg for k in node.keywords}
            calls.setdefault(name, []).append((npos, keywords))
    return calls


def _unset_defaults(modules):
    """``module.qualname(param)`` of each defaulted parameter that no call in
    the modules passes, positionally or by keyword."""
    calls = _calls(modules.values())
    return [
        where
        for where, call, index, param in _defaulted_parameters(modules)
        if not any(
            (index is not None and npos > index) or param in keywords or None in keywords
            for npos, keywords in calls.get(call, ())
        )
    ]


def test_every_default_is_overridden_by_a_caller():
    # a parameter that every caller leaves at its default is a constant
    unset = [p for p in _unset_defaults(_modules()) if p not in UNSET_DEFAULT_EXEMPT]
    assert unset == []


def test_the_default_check_sees_a_violation():
    tree = ast.parse(
        "def f(a, b=1, *, c=2, d=3):\n    return a\n"
        "class K:\n"
        "    def __init__(self, x, y=0, z=0):\n        self.x = x\n"
        "    def m(self, p=1, q=2):\n        return p\n"
        "    @staticmethod\n"
        "    def s(p=1):\n        return p\n"
        "def g(*args, **kwargs):\n"
        "    f(0, 5, c=1)\n    K(1, 2)\n    K(1, **kwargs)\n"
        "    K(1).m(3)\n    K.s(*args)\n"
    )
    assert _unset_defaults({"m": tree}) == ["m.f(d)", "m.K.m(q)"]


# the rational type's module; only ``scalars`` imports it, as ``QQ``
BACKEND_MODULES = {"fractions"}


def _backend_imports(tree):
    """(module, line) of each import of a backend module, at any depth."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        out.extend(
            (name, node.lineno) for name in names if name.split(".")[0] in BACKEND_MODULES
        )
    return out


def test_only_scalars_imports_a_rational_backend():
    imports = [
        "%s.py:%d imports %s" % (name, line, module)
        for name, tree in _modules().items()
        if name != "scalars"
        for module, line in _backend_imports(tree)
    ]
    assert imports == []
    assert _backend_imports(_modules()["scalars"])
    tree = ast.parse(
        "import math\nfrom fractions import Fraction\n"
        "def f():\n    import fractions as q\n    from .fractions import x\n"
    )
    assert _backend_imports(tree) == [("fractions", 2), ("fractions", 4)]


def _fraction_names(tree):
    """Line of each mention of ``Fraction``: a name, an attribute or an
    imported alias, at any depth."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "Fraction":
            out.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "Fraction":
            out.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.extend(
                node.lineno
                for alias in node.names
                if "Fraction" in (alias.name.split(".")[-1], alias.asname)
            )
    return sorted(out)


def test_only_scalars_names_fraction():
    # Every module names the one rational type ``QQ``, from ``scalars``,
    # so that the type is chosen in one place.
    names = [
        "%s.py:%d names Fraction" % (name, line)
        for name, tree in _modules().items()
        if name != "scalars"
        for line in _fraction_names(tree)
    ]
    assert names == []
    assert _fraction_names(_modules()["scalars"])
    tree = ast.parse(
        "import fractions as f\nx = f.Fraction(1)\n"
        "def g():\n    from .scalars import Q as Fraction\n    return Fraction\n"
        "y = isinstance(x, Fractions)\n"
    )
    assert _fraction_names(tree) == [2, 4, 5]


def _readme_calls(text):
    """The name of each ``name(`` that starts a line of a fenced python block."""
    names, inside = [], False
    for line in text.splitlines():
        if line.startswith("```"):
            inside = not inside and line.strip() == "```python"
            continue
        match = re.match(r"([A-Za-z_]\w*)\(", line) if inside else None
        if match:
            names.append(match.group(1))
    return names


def _undefined_calls(modules, names):
    """The names that no module defines as a function or class at top level."""
    defined = {
        node.name
        for tree in modules.values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    return sorted({name for name in names if name not in defined})


def test_every_readme_call_is_defined():
    names = _readme_calls(README.read_text(encoding="utf-8"))
    assert names
    assert _undefined_calls(_modules(), names) == []


def test_the_readme_check_sees_a_violation():
    # a deleted function named in a python block; calls that are indented,
    # in another language's block or in prose are not read
    text = (
        "prose(x)\n```python\ndescend(b)\ndivide_by_ram(b)\n  indented(x)\n"
        "report = assigned(x)\n```\n```sh\nshell(1)\n```\nlater(x)\n"
    )
    modules = {"cover": ast.parse("def descend(b): pass\nclass Other: pass\n")}
    assert _readme_calls(text) == ["descend", "divide_by_ram"]
    assert _undefined_calls(modules, _readme_calls(text)) == ["divide_by_ram"]


# what a caller may read of a solved system without reading its kernel
RANK_ONLY = {"dimension", "rank"}


def _is_solve(node):
    return isinstance(node, ast.Call) and (
        (isinstance(node.func, ast.Name) and node.func.id == "system_solve")
        or (isinstance(node.func, ast.Attribute) and node.func.attr == "system_solve")
    )


def _kernel_free_solves(modules):
    """``module.py:line`` of each ``system_solve`` call whose result is read
    only for ``.dimension`` or ``.rank``: directly, or through a name that
    its function reads for nothing else (or not at all) before the name is
    bound again.  Such a system is decided by rank (``linsys.system_dimension``
    or ``linsys.SubsetSystems``) without building a kernel."""
    out = set()
    for name, tree in modules.items():
        parents = {
            child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
        }
        for node in ast.walk(tree):
            if _is_solve(node):
                parent = parents[node]
                if isinstance(parent, ast.Attribute) and parent.attr in RANK_ONLY:
                    out.add((name, node.lineno))
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            bindings = {}  # variable -> [(first line, last line, solve?)]
            for inner in ast.walk(node):
                if isinstance(inner, ast.Assign):
                    for target in inner.targets:
                        if isinstance(target, ast.Name):
                            bindings.setdefault(target.id, []).append(
                                (inner.lineno, inner.end_lineno, _is_solve(inner.value))
                            )
            for var, binds in bindings.items():
                binds.sort()
                reads = [
                    n
                    for n in ast.walk(node)
                    if isinstance(n, ast.Name) and n.id == var and isinstance(n.ctx, ast.Load)
                ]
                for k, (line, last, solve) in enumerate(binds):
                    if not solve:
                        continue
                    until = binds[k + 1][0] if k + 1 < len(binds) else float("inf")
                    uses = [parents[n] for n in reads if last < n.lineno < until]
                    if all(isinstance(u, ast.Attribute) and u.attr in RANK_ONLY for u in uses):
                        out.add((name, line))
    return ["%s.py:%d" % place for place in sorted(out)]


def test_no_system_is_solved_only_for_its_dimension():
    assert _kernel_free_solves(_modules()) == []


def test_the_solve_check_sees_a_violation():
    tree = ast.parse(
        "def a(space, rows):\n"
        "    return system_solve(space, rows).dimension\n"
        "def b(space, rows):\n"
        "    rep = linsys.system_solve(space, rows)\n"
        "    if rep.dimension < 0:\n        return rep.rank\n"
        "def c(space, rows):\n"
        "    rep = system_solve(space, rows)\n"
        "    return rep.kernel if rep.dimension >= 0 else []\n"
        "def d(space, rows):\n"
        "    rep = system_solve(space, rows)\n"
        "    return Result(rep)\n"
        "def e(space, rows):\n"
        "    unread = system_solve(space, rows)\n"
        "    return system_solve(space, rows).kernel\n"
        "def f(space, rows):\n"
        "    rep = system_solve(space, rows)\n"
        "    if rep.dimension >= 0:\n        return []\n"
        "    rep = system_solve(\n        space, rows)\n"
        "    return rep.kernel\n"
    )
    assert _kernel_free_solves({"m": tree}) == ["m.py:2", "m.py:4", "m.py:14", "m.py:17"]
