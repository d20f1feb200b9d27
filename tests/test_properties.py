"""Property tests (Hypothesis, derandomized so every run draws the same cases)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from splitcurves.errors import SplitCurvesError
from splitcurves.forms import ProjPoint
from splitcurves.registry import parse_node_spec

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
        node = parse_node_spec(spec)
    except (ValueError, SplitCurvesError):
        return
    assert isinstance(node, ProjPoint) and len(node.coords) == 3
