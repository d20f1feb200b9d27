"""Property tests (Hypothesis, derandomized so every run draws the same cases)."""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from splitcurves import cli
from splitcurves.arith import UPoly
from splitcurves.errors import SplitCurvesError
from splitcurves.forms import (
    Form,
    ProjPoint,
    form_to_str,
    monomial_basis,
    parse_form,
    parse_univariate,
)
from splitcurves.registry import parse_node_spec

# the plane curve whose nodes the node specs name
_SEXTIC = parse_form("x^6 + y^6 + z^6", ("x", "y", "z"))

# short texts over the polynomial alphabet: long enough to parse, short
# enough that no exponent builds a polynomial of large degree
_TEXT = st.text(alphabet="a0123456789+-*/^() e.", max_size=5)
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | _TEXT
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["minpoly", "point", "source"]) | _TEXT, inner, max_size=3),
    max_leaves=10,
)
# entries shaped like node specs, so the orbit branch is reached often
_ORBITS = st.fixed_dictionaries(
    {"minpoly": _TEXT, "point": st.lists(_TEXT | st.integers(), max_size=4)}
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_JSON | _ORBITS | st.lists(_TEXT | st.integers() | st.floats(), min_size=3, max_size=3))
def test_parse_node_spec_returns_a_point_or_a_data_error(spec):
    try:
        node = parse_node_spec(spec, _SEXTIC)
    except (ValueError, SplitCurvesError):
        return
    assert isinstance(node, ProjPoint) and len(node.coords) == 3


# short texts over the grammar's alphabet, with a letter that names no variable
_FORM_TEXT = st.text(alphabet="xyza0123456789+-*/^() .", max_size=8)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_FORM_TEXT)
def test_parse_form_returns_a_form_or_a_data_error(text):
    try:
        form = parse_form(text, ("x", "y", "z"))
    except (ValueError, SplitCurvesError):
        return
    assert isinstance(form, Form)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_TEXT)
def test_parse_univariate_returns_a_polynomial_or_a_data_error(text):
    try:
        poly = parse_univariate(text, "a")
    except (ValueError, SplitCurvesError):
        return
    assert isinstance(poly, UPoly)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_FORM_TEXT)
def test_pullback_command_exits_0_or_65(text):
    try:
        # a pullback of degree d has (d + 1)^2 coefficients: keep draws small
        assume(parse_form(text, ("x", "y", "z")).degree <= 6)
    except (ValueError, SplitCurvesError):
        pass
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = cli.main(["pullback", "--curve=" + text])
    assert code in (0, 65)


# contact curves g^2 - (z^2 - 4xy) h by construction: deg g in {2, 3},
# deg h = 2 deg g - 2, small coefficients
_CONTACT = "z^2-4xy"


@st.composite
def _contact_curves(draw):
    d = draw(st.sampled_from([2, 3]))

    def form(degree):
        basis = monomial_basis(3, degree)
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis)))
        return Form(("x", "y", "z"), degree, dict(zip(basis, coeffs)))

    g, h = form(d), form(2 * d - 2)
    return form_to_str(g * g - parse_form(_CONTACT, ("x", "y", "z")) * h)


@pytest.mark.parametrize("command", ["split-type", "analyze"])
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(curve=_contact_curves())
def test_split_type_and_analyze_exit_with_a_status_on_contact_curves(command, curve):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = cli.main([command, "--curve=" + curve, "--conic=" + _CONTACT])
    assert code in (0, 1, 2, 65)


def _run(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.mark.parametrize("command", ["split-type", "analyze"])
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(curve=_FORM_TEXT, conic=st.sampled_from([_CONTACT, "x^2-y^2"]) | _FORM_TEXT)
def test_split_type_and_analyze_reject_malformed_curve_texts(command, curve, conic):
    malformed = False
    for text in (curve, conic):
        try:
            # a curve of large degree would run for long: keep draws small
            assume(parse_form(text, ("x", "y", "z")).degree <= 6)
        except (ValueError, SplitCurvesError):
            malformed = True
    code = _run([command, "--curve=" + curve, "--conic=" + conic])
    assert code == 65 if malformed else code in (0, 1, 2, 65)


# a quartic with the contact conic z^2 - 4xy and one node, at (0 : 0 : 1)
_NODAL_QUARTIC = "(x^2+y*z)^2-(z^2-4xy)*(x-y)*(x+2*y)"


def _malformed_claim(text):
    """True when the node file text is not a JSON array of node specs."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError):
        return True
    if not isinstance(data, list):
        return True
    try:
        for spec in data:
            parse_node_spec(spec, _SEXTIC)
    except (ValueError, SplitCurvesError):
        return True
    return False


_NODE_FILE = (
    _JSON.map(json.dumps)
    | st.lists(_ORBITS | st.lists(_TEXT | st.integers(-3, 3), max_size=4), max_size=3).map(json.dumps)
    | st.text(alphabet='[]{},:"0123456789-a minpolyt', max_size=12)
)


@pytest.mark.parametrize("command", ["split-type", "analyze"])
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(text=_NODE_FILE)
def test_split_type_and_analyze_reject_malformed_node_files(command, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "nodes.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        code = _run(
            [command, "--curve=" + _NODAL_QUARTIC, "--conic=" + _CONTACT, "--nodes=" + path]
        )
    assert code == 65 if _malformed_claim(text) else code in (0, 1, 2, 65)
