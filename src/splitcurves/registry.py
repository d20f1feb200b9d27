"""Built-in catalog of worked examples.

Six configurations of nodal sextics with a contact conic, spanning every
outcome the decision engine can certify: one 6-nodal splitting curve of
type (3,3), two 6-nodal non-splitting curves, 7-nodal curves of types
(3,3) and (2,4) (the latter arising from a syzygetic quartic surface), and
a 7-nodal non-splitting curve.  All data is read-only and every claimed
datum carries a source label inside this catalog.

Erratum carried by the catalog: the sixth node of the second 6-nodal
non-splitting curve circulates as (-3:36:38), which does not lie on the
curve; exact elimination places it at (-3:36:28), and that is the point
recorded here.
"""

from .arith import NumberField
from .errors import UnknownExample
from .forms import PLANE_VARS, SPACE_VARS, ProjPoint, parse_form, parse_univariate, point
from .quartics import QuarticSurface
from .scalars import QQ

EXAMPLE_IDS = (
    "split6",
    "nonsplit6a",
    "nonsplit6b",
    "split7-33",
    "split7-24",
    "nonsplit7",
)

_RAW = {
    "split6": {
        "label": "6-nodal splitting sextic of type (3,3)",
        "c3": "x^3 + y^3 + z^3",
        "c2": "x*y + y*z + z*x",
        "curve": "(x^3+y^3+z^3)^2 - (z^2-4*x*y)*(x*y+y*z+z*x)^2",
        "conic": "z^2 - 4*x*y",
        "nodes": [
            {
                "minpoly": "a^6 + 3*a^5 + 3*a^4 + a^3 + 3*a^2 + 3*a + 1",
                "point": ["a", "-a^5 - 2*a^4 - a^3 - 3*a - 1", "1"],
                "source": "catalog: 6-nodal split, conjugate node orbit",
            }
        ],
        "claim": {
            "outcome": "split",
            "type": [3, 3],
            "tangent_count": 6,
            "certificate": {"c_n": "x^3 + y^3 + z^3", "c_n1": "x*y + y*z + z*x"},
            "nodes_on": ["x*y + y*z + z*x", "x^3 + y^3 + z^3"],
        },
        "source": "catalog: 6-nodal split",
    },
    "nonsplit6a": {
        "label": "6-nodal non-splitting sextic (nodes of a four-line arrangement)",
        "c3": "2*x^3 - x^2*y + 3*x^2*z - 2*x*y^2 - 4*x*z^2 + y^3 + y*z^2",
        "lines": ["z", "x - y", "2*x - y", "x + y - 2*z"],
        "curve": "(2*x^3 - x^2*y + 3*x^2*z - 2*x*y^2 - 4*x*z^2 + y^3 + y*z^2)^2"
        " - z*(x - y)*(2*x - y)*(x + y - 2*z)*(z^2 - 4*x*y)",
        "conic": "z^2 - 4*x*y",
        "nodes": [
            [1, 1, 0],
            [1, 2, 0],
            [1, -1, 0],
            [0, 0, 1],
            [1, 1, 1],
            [2, 4, 3],
        ],
        "claim": {
            "outcome": "non_splitting",
            "tangent_count": 6,
            "exclusions": {
                "(1,5)": "node_bound",
                "(2,4)": "node_bound",
                "(3,3)": "necessary_dim",
            },
        },
        "source": "catalog: 6-nodal non-split 1",
    },
    "nonsplit6b": {
        "label": "6-nodal non-splitting sextic with nodes in general position",
        "c3": "3328*x^3 + 1392*x^2*y - 672*x^2*z + 180*x*y^2 - 516*x*y*z"
        " - 180*x*z^2 + 10*y^3 - 33*y^2*z - 45*y*z^2",
        "c4": "10496*x^4 + 6272*x^3*y - 2528*x^3*z + 1200*x^2*y^2"
        " - 912*x^2*y*z + 1176*x^2*z^2 + 80*x*y^3 - 90*x*y^2*z"
        " + 246*x*y*z^2 + 2*y^4 - 5*y^3*z + 15*y^2*z^2",
        "curve_factor": 432,
        "conic": "z^2 - 4*x*y",
        "nodes": [
            [0, 0, 1],
            [0, 3, 2],
            [-1, 4, 0],
            [-1, 10, 6],
            [-1, 16, 8],
            [-3, 36, 28],
        ],
        "node_erratum": "(-3:36:38) does not satisfy the curve equations;"
        " elimination gives (-3:36:28)",
        "claim": {
            "outcome": "non_splitting",
            "tangent_count": 6,
            "exclusions": {
                "(1,5)": "node_bound",
                "(2,4)": "node_bound",
                "(3,3)": "necessary_dim",
            },
        },
        "source": "catalog: 6-nodal non-split 2",
    },
    "split7-33": {
        "label": "7-nodal splitting sextic of type (3,3)",
        "c3": "y^2*z - 3*x*y*z + z^3 - x^2*z",
        "w2": "z^2 - x*y - y^2 + x^2",
        "conic": "z^2 - 4*x*y",
        "nodes": [
            [0, 0, 1],
            {
                "minpoly": "4*a^4 + 2*a^2 - 1",
                "point": ["a", "2*a^3 + a", "1"],
                "source": "catalog: 7-nodal (3,3), quartic orbit",
            },
            {
                "minpoly": "a^2 - a - 1",
                "point": ["a", "1", "0"],
                "source": "catalog: 7-nodal (3,3), quadratic orbit",
            },
        ],
        "claim": {
            "outcome": "split",
            "type": [3, 3],
            "tangent_count": 6,
            "certificate": {
                "c_n": "y^2*z - 3*x*y*z + z^3 - x^2*z",
                "c_n1": "z^2 - x*y - y^2 + x^2",
            },
            "six_nodes_on": "z^2 - x*y - y^2 + x^2",
        },
        "source": "catalog: 7-nodal type (3,3)",
    },
    "split7-24": {
        "label": "7-nodal splitting sextic of type (2,4) from a syzygetic quartic",
        "f1": "x*w - y^2 + z^2",
        "f2": "y*w - x^2 + z^2",
        "f3": "z*w - x^2 + y^2",
        "surface_nodes": [
            [0, 0, 0, 1],
            [0, 1, 1, -1],
            [-1, 0, 1, 1],
            [1, 1, 0, 1],
            [1, 1, 1, 0],
            [-1, 1, 1, 0],
            [1, -1, 1, 0],
            [1, 1, -1, 0],
        ],
        "claim": {
            "outcome": "split",
            "type": [2, 4],
            "tangent_count": 6,
            "syzygetic_dimension": 2,
            "delta_x": "z^2 - 4*x*y",
            "criterion_24": "holds",
        },
        "source": "catalog: 7-nodal type (2,4)",
    },
    "nonsplit7": {
        "label": "7-nodal non-splitting sextic",
        "c2": "-61*x^2 + 20*x*y + 4*x*z + 4*y^2 - 4*y*z + z^2",
        "c3": "-13*x^2*y + 168*x^2*z - 74*x*y*z - 8*x*z^2 - 8*y^2*z + 7*y*z^2",
        "c4": "x^2*y^2 + 16*x^2*y*z - 112*x^2*z^2 - 4*x*y^2*z + 64*x*y*z^2"
        " - y^2*z^2",
        "nodes": [
            [0, 0, 1],
            [0, 1, 0],
            [1, 0, 0],
            [1, 1, 1],
            [1, -2, 1],
            [-1, 6, 3],
            [1, 2, -3],
        ],
        "claim": {
            "outcome": "non_splitting",
            "tangent_count": 6,
            "quartic_system_dimension": 1,
            "criterion_24": "fails iii-b",
            "exclusions": {
                "(1,5)": "node_bound",
                "(2,4)": "necessary_dim",
                "(3,3)": "necessary_dim",
            },
        },
        "source": "catalog: 7-nodal non-split",
    },
}


def example_ids():
    return EXAMPLE_IDS


def raw_record(example_id):
    if example_id not in _RAW:
        raise UnknownExample(
            "unknown example %r (known: %s)" % (example_id, ", ".join(EXAMPLE_IDS))
        )
    return _RAW[example_id]


def _rational(c):
    """A JSON number or numeric string as a rational; ValueError otherwise."""
    if isinstance(c, bool) or not isinstance(c, (int, float, str)):
        raise ValueError("coordinate %r is not a number or a string" % (c,))
    try:
        return QQ(c)
    except (ArithmeticError, TypeError, ValueError):
        raise ValueError("coordinate %r is not a finite rational" % (c,)) from None


def parse_node_spec(spec, form):
    """A node of ``form`` (a plane curve, or a surface in four variables):
    a list of one number or numeric string per variable, or an orbit
    {"minpoly": text, "point": one number or text in a per variable}.

    An orbit cannot be larger than the most singular points the form can
    have: d(d-1)/2 for a reduced plane curve of degree d, 16 for a quartic
    surface.  A minimal polynomial of larger degree is rejected before its
    number field (and its irreducibility test) is built.  Any other shape
    raises ValueError; a bad polynomial, a SplitCurvesError.
    """
    ambient = len(form.variables)
    if isinstance(spec, (list, tuple)):
        if len(spec) != ambient:
            raise ValueError("expected %d coordinates" % ambient)
        return point(*[_rational(c) for c in spec])
    if not isinstance(spec, dict) or not isinstance(spec.get("minpoly"), str):
        raise ValueError(
            'a node is a coordinate list or an object with a string "minpoly"'
        )
    exprs = spec.get("point")
    if not isinstance(exprs, (list, tuple)) or len(exprs) != ambient:
        raise ValueError('"point" must be a list of %d entries' % ambient)
    minpoly = parse_univariate(spec["minpoly"], "a")
    bound = 16 if ambient == 4 else form.degree * (form.degree - 1) // 2
    if minpoly.degree() > bound:
        raise ValueError(
            "an orbit of %d points is more than the %d singular points "
            "this input can have" % (minpoly.degree(), bound)
        )
    field = NumberField(minpoly)
    coords = []
    for expr in exprs:
        if isinstance(expr, str):
            coords.append(field.elem(parse_univariate(expr, "a").coeffs))
        else:
            coords.append(field.from_rat(_rational(expr)))
    return ProjPoint(coords)


class ExampleRecord:
    """Fully constructed example: forms, nodes, and the claimed outcome."""

    __slots__ = (
        "example_id",
        "label",
        "curve",
        "conic",
        "nodes",
        "claim",
        "surface",
        "surface_nodes",
        "raw",
    )

    def __init__(self, example_id, label, curve, conic, nodes, claim,
                 surface=None, surface_nodes=None, raw=None):
        self.example_id = example_id
        self.label = label
        self.curve = curve
        self.conic = conic
        self.nodes = nodes
        self.claim = claim
        self.surface = surface
        self.surface_nodes = surface_nodes
        self.raw = raw


def load_example(example_id):
    """Build the forms and points of a catalog entry."""
    raw = raw_record(example_id)
    conic_text = raw.get("conic")
    surface = None
    surface_nodes = None
    if example_id in ("split6", "nonsplit6a"):
        curve = parse_form(raw["curve"], PLANE_VARS)
        conic = parse_form(conic_text, PLANE_VARS)
        nodes = [parse_node_spec(s, curve) for s in raw["nodes"]]
    elif example_id == "nonsplit6b":
        c3 = parse_form(raw["c3"], PLANE_VARS)
        c4 = parse_form(raw["c4"], PLANE_VARS)
        conic = parse_form(conic_text, PLANE_VARS)
        curve = c3 * c3 - (conic * c4).scale(raw["curve_factor"])
        nodes = [parse_node_spec(s, curve) for s in raw["nodes"]]
    elif example_id == "split7-33":
        c3 = parse_form(raw["c3"], PLANE_VARS)
        w2 = parse_form(raw["w2"], PLANE_VARS)
        conic = parse_form(conic_text, PLANE_VARS)
        curve = c3 * c3 - conic * w2 * w2
        nodes = [parse_node_spec(s, curve) for s in raw["nodes"]]
    elif example_id == "split7-24":
        f1 = parse_form(raw["f1"], SPACE_VARS)
        f2 = parse_form(raw["f2"], SPACE_VARS)
        f3 = parse_form(raw["f3"], SPACE_VARS)
        quartic = f3 * f3 - (f1 * f2).scale(4)
        surface_nodes = [parse_node_spec(s, quartic) for s in raw["surface_nodes"]]
        surface = QuarticSurface.from_raw(quartic, surface_nodes[0])
        curve, conic, _info = surface.projection()
        nodes = [
            ProjPoint(list(p.coords[:3]))
            for p in surface_nodes[1:]
        ]
    elif example_id == "nonsplit7":
        c2 = parse_form(raw["c2"], PLANE_VARS)
        c3 = parse_form(raw["c3"], PLANE_VARS)
        c4 = parse_form(raw["c4"], PLANE_VARS)
        conic = c2
        curve = c3 * c3 - (c2 * c4).scale(4)
        nodes = [parse_node_spec(s, curve) for s in raw["nodes"]]
    else:  # pragma: no cover
        raise AssertionError(example_id)
    return ExampleRecord(
        example_id,
        raw["label"],
        curve,
        conic,
        nodes,
        raw["claim"],
        surface=surface,
        surface_nodes=surface_nodes,
        raw=raw,
    )
