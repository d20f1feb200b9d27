import pytest

from splitcurves.conics import EVEN_CONTACT, SIMPLE_CONTACT, contact_profile, delta2
from splitcurves.curves import verify_node
from splitcurves.errors import (
    LineThroughNode,
    NodeDegenerate,
    PointNotOnConic,
    QuadricSingularAtNode,
)
from splitcurves.forms import Form, ProjPoint, parse_form, point
from splitcurves.linsys import FormSpace, cond_point, system_solve
from splitcurves.conics import rational_parametrization
from splitcurves.quartics import (
    QuarticSurface,
    alpha1_map,
    alpha2_map,
    detect_33_configuration,
    general_position_p3,
    project_quartic,
    quartic_from_sextic,
    surface_singular_locus_complete,
    syzygetic_test,
)
from splitcurves.scalars import QQ

from conftest import PLANE, SPACE, random_form, rng_for


@pytest.fixture(scope="module")
def syz_surface():
    f1 = parse_form("x*w-y^2+z^2", SPACE)
    f2 = parse_form("y*w-x^2+z^2", SPACE)
    f3 = parse_form("z*w-x^2+y^2", SPACE)
    quartic = f3 * f3 - (f1 * f2).scale(4)
    nodes = [
        point(0, 0, 0, 1), point(0, 1, 1, -1), point(-1, 0, 1, 1),
        point(1, 1, 0, 1), point(1, 1, 1, 0), point(-1, 1, 1, 0),
        point(1, -1, 1, 0), point(1, 1, -1, 0),
    ]
    surface = QuarticSurface.from_raw(quartic, nodes[0])
    return quartic, surface, nodes, (f1, f2, f3)


def test_from_raw_decomposition(syz_surface):
    quartic, surface, _nodes, _fs = syz_surface
    assert surface.g2 == delta2()
    x, y, z = (Form.variable(PLANE, v) for v in "xyz")
    a2 = parse_form("-y^2+z^2", PLANE)
    b2 = parse_form("-x^2+z^2", PLANE)
    c2 = parse_form("-x^2+y^2", PLANE)
    assert surface.g3 == z * c2 - (x * b2).scale(2) - (y * a2).scale(2)
    assert surface.g4 == c2 * c2 - (a2 * b2).scale(4)
    assert surface.form() == quartic


def test_projection_and_contact(syz_surface):
    _quartic, surface, _nodes, _fs = syz_surface
    gamma_x, delta_x, info = project_quartic(surface)
    assert delta_x == surface.g2
    assert gamma_x == surface.g3 * surface.g3 - surface.g2 * surface.g4
    assert info["reduced"] is True
    assert info["contact"].kind == SIMPLE_CONTACT


def test_projection_flags_non_reduced():
    q = parse_form("x^2+y^2-z^2", PLANE)
    surface = QuarticSurface(delta2(), Form.zero(PLANE, 3), -(q * q))
    gamma_x, _delta_x, info = project_quartic(surface)
    assert gamma_x == delta2() * q * q
    assert info["reduced"] is False


def test_projection_rejects_degenerate_center():
    with pytest.raises(NodeDegenerate):
        project_quartic(
            QuarticSurface(
                parse_form("x^2", PLANE),
                Form.zero(PLANE, 3),
                parse_form("x^4+y^4+z^4", PLANE),
            )
        )


def test_projection_rejects_line_through_center():
    # g2, g3, g4 all vanish at (0:1:0), so the line through the center in
    # that direction lies on the surface; the projected sextic is reduced
    g3 = parse_form("x^3 + z^3", PLANE)
    g4 = parse_form("x^4 + y^3*z", PLANE)
    from splitcurves.curves import curve_is_reduced

    assert curve_is_reduced(g3 * g3 - delta2() * g4)
    with pytest.raises(LineThroughNode):
        project_quartic(QuarticSurface(delta2(), g3, g4))


def test_alpha1_examples(syz_surface):
    _quartic, surface, _nodes, _fs = syz_surface
    minus_g3 = alpha1_map(surface, Form.zero(PLANE, 1))
    assert minus_g3 == -surface.g3
    ell = Form.variable(PLANE, "x")
    assert alpha1_map(surface, ell) == surface.g2 * ell - surface.g3
    # node incidence transfer: hyperplane w + y = 0 through (0:1:1:-1)
    cubic = alpha1_map(surface, Form.variable(PLANE, "y"))
    assert cubic.eval([QQ(0), QQ(1), QQ(1)]) == 0


def test_alpha1_requires_w_coefficient(syz_surface):
    _quartic, surface, _nodes, _fs = syz_surface
    from splitcurves.errors import HyperplaneThroughNode

    with pytest.raises(HyperplaneThroughNode):
        alpha1_map(surface, parse_form("x + y", SPACE))


def test_alpha_maps_check_contact_on_the_projection_parametrization(monkeypatch, syz_surface):
    from splitcurves import quartics

    _quartic, syz, _nodes, _fs = syz_surface
    surface = QuarticSurface(syz.g2, syz.g3, syz.g4)
    calls = []

    def counted(q):
        calls.append(q)
        return rational_parametrization(q)

    monkeypatch.setattr(quartics, "rational_parametrization", counted)
    x = Form.variable(PLANE, "x")
    for ell in (x, Form.variable(PLANE, "y"), parse_form("w + z", SPACE)):
        alpha1_map(surface, ell)
    alpha2_map(surface, x, parse_form("x*z - x^2", PLANE))
    # one decision of g2's rational point: the projection's
    assert calls == [surface.g2]
    # no rational point on g2: the check is skipped, the images still built
    g2 = parse_form("x^2 + y^2 + z^2", PLANE)
    bare = QuarticSurface(g2, syz.g3, syz.g4)
    assert alpha1_map(bare, x) == g2 * x - syz.g3
    assert "param" not in bare.projection()[2]


def test_alpha2_examples(syz_surface):
    _quartic, surface, _nodes, _fs = syz_surface
    x = Form.variable(PLANE, "x")
    z = Form.variable(PLANE, "z")
    assert alpha2_map(surface, x, Form.zero(PLANE, 2)) == x * surface.g3
    assert alpha2_map(surface, z, surface.g2) == z * surface.g3 - surface.g2 * surface.g2
    # quadric through the node (1:1:0:1): x*w + (x*z - x^2) vanishes there
    a1 = x
    a2 = parse_form("x*z - x^2", PLANE)
    quartic_curve = alpha2_map(surface, a1, a2)
    assert quartic_curve.eval([QQ(1), QQ(1), QQ(0)]) == 0
    with pytest.raises(QuadricSingularAtNode):
        alpha2_map(surface, Form.zero(PLANE, 1), a2)


def test_surface_nodes(syz_surface):
    quartic, _surface, nodes, _fs = syz_surface
    for rep in verify_node(quartic, nodes):
        assert rep.is_node
    degenerate = parse_form("x^2*w^2 + y^4 + z^4", SPACE)
    (rep,) = verify_node(degenerate, [point(0, 0, 0, 1)])
    assert rep.is_singular and not rep.is_node


def test_general_position_p3(syz_surface):
    _quartic, _surface, nodes, _fs = syz_surface
    assert bool(general_position_p3(nodes))
    res = general_position_p3(
        [point(1, 0, 0, 0), point(0, 1, 0, 0), point(1, 1, 0, 0), point(0, 0, 1, 1)]
    )
    assert not res and res.kind == "collinear_triple"
    res = general_position_p3(
        [
            point(1, 0, 0, 0), point(0, 1, 0, 0), point(0, 0, 1, 0),
            point(1, 1, 1, 0), point(1, 2, 3, 0), point(0, 0, 0, 1),
        ]
    )
    assert not res and res.kind == "coplanar_five"


def test_syzygetic_detection(syz_surface):
    quartic, _surface, nodes, fs = syz_surface
    result = syzygetic_test(quartic, nodes)
    assert result and result.report.dimension == 2
    assert result.subset == tuple(range(8))
    # the net of quadrics through the eight nodes spans <f1, f2, f3>
    from splitcurves.linalg import rank_bareiss

    vecs = [k.coefficient_vector() for k in result.report.kernel]
    fvecs = [f.coefficient_vector() for f in fs]
    assert rank_bareiss(vecs + fvecs) == 3


def test_syzygetic_position_is_the_verdict_on_exactly_eight_nodes(syz_surface):
    quartic, _surface, nodes, _fs = syz_surface
    # (2, 2, 1, 1) lies on the line through nodes 3 and 4
    on_line = point(2, 2, 1, 1)
    assert bool(syzygetic_test(quartic, nodes).position)
    result = syzygetic_test(quartic, nodes[:7] + [on_line])
    assert not result and result.position.kind == "collinear_triple"
    # nine nodes: the first 8-subset is a witness, but the nine are not in
    # general position, so no verdict on a subset stands for them
    result = syzygetic_test(quartic, nodes + [on_line])
    assert result and result.subset == tuple(range(8))
    assert result.position is None
    assert not general_position_p3(nodes + [on_line])
    assert syzygetic_test(quartic, nodes[:7]).position is None


def test_syzygetic_not_detected_generic():
    rng = rng_for("syz-generic")
    space = FormSpace(2, SPACE)
    while True:
        pts = []
        while len(pts) < 8:
            coords = [QQ(rng.randint(-6, 6)) for _ in range(4)]
            if any(c != 0 for c in coords):
                pts.append(ProjPoint(coords))
        keys = {p.canonical_key() for p in pts}
        if len(keys) < 8 or not general_position_p3(pts):
            continue
        conds = []
        for p in pts:
            conds.extend(cond_point(space, p))
        if system_solve(space, conds).dimension == 1:
            break
    dummy = parse_form("x^4+y^4+z^4+w^4", SPACE)
    assert not syzygetic_test(dummy, pts)
    assert not syzygetic_test(dummy, pts[:7])


def test_detect_33_configuration_synthetic():
    # six rational points on the conic, a cubic through them, g4 a square
    pts = [
        point(0, 1, 0), point(1, 0, 0), point(1, 4, 4),
        point(1, 4, -4), point(1, 1, 2), point(1, 16, 8),
    ]
    space3 = FormSpace(3, PLANE)
    conds = []
    for p in pts:
        conds.extend(cond_point(space3, p))
    g3 = system_solve(space3, conds).kernel[0]
    surface = QuarticSurface(delta2(), g3, delta2() * delta2())
    surface_nodes = [point(0, 0, 0, 1)] + [
        ProjPoint(list(p.coords) + [QQ(0)]) for p in pts
    ]
    found = detect_33_configuration(surface, surface_nodes)
    assert found is not None
    # the witness conic in the hyperplane w = 0 is the branch conic itself
    # (up to the primitive-vector normalization of the kernel)
    assert found["hyperplane"] == [QQ(0), QQ(0), QQ(0), QQ(1)]
    assert found["conic"].scale(-1) == delta2()
    assert found["dimension"] == 0


def test_detect_33_absent(syz_surface):
    _quartic, surface, nodes, _fs = syz_surface
    # a (2,4)-splitting projection admits no six-nodes-on-a-conic witness
    assert detect_33_configuration(surface, nodes) is None
    assert detect_33_configuration(surface, nodes[:6]) is None


def test_surface_completeness(syz_surface):
    _quartic, surface, nodes, _fs = syz_surface
    assert surface_singular_locus_complete(surface, nodes)
    assert not surface_singular_locus_complete(surface, nodes[:-1])
    assert not surface_singular_locus_complete(surface, nodes[1:])


def test_surface_completeness_takes_even_contact_from_the_line_check(
    syz_surface, monkeypatch
):
    from splitcurves import conics, quartics

    _quartic, surface, nodes, _fs = syz_surface

    def refuse(*_args):
        raise AssertionError("contact analysis rerun")

    monkeypatch.setattr(quartics, "contact_profile", refuse)
    monkeypatch.setattr(conics, "contact_profile", refuse)
    assert surface_singular_locus_complete(surface, nodes)


def test_line_check_implies_even_contact():
    # project_quartic's line check leaves the sextic's contact with g2 even
    rng = rng_for("line check implies even contact")
    checked = 0
    for _ in range(6):
        g3 = random_form(rng, 3, height=3, sparsity=0.5)
        g4 = random_form(rng, 4, height=3, sparsity=0.5)
        surface = QuarticSurface(delta2(), g3, g4)
        try:
            gamma_x, delta_x, info = project_quartic(surface, check_contact=False)
        except LineThroughNode:
            continue
        profile = contact_profile(gamma_x, delta_x, info["param"])
        assert profile.kind in (SIMPLE_CONTACT, EVEN_CONTACT)
        checked += 1
    assert checked >= 3


def test_surface_completeness_needs_a_rational_point_on_the_center_conic():
    surface = QuarticSurface(
        parse_form("x^2 + y^2 + z^2", PLANE),
        parse_form("x^3 + y^2*z", PLANE),
        parse_form("x^4 + y^4 + z^4 + x*y*z^2", PLANE),
    )
    with pytest.raises(PointNotOnConic):
        surface_singular_locus_complete(surface, [point(0, 0, 0, 1)])


def test_projected_nodes_are_curve_nodes(syz_surface):
    _quartic, surface, nodes, _fs = syz_surface
    gamma_x, _delta_x, _info = project_quartic(surface, check_contact=False)
    projections = [ProjPoint(list(p.coords[:3])) for p in nodes[1:]]
    for rep in verify_node(gamma_x, projections):
        assert rep.is_node


def test_quartic_from_sextic_roundtrip(gamma6):
    surface, scale = quartic_from_sextic(gamma6, delta2())
    assert surface.g3 * surface.g3 - surface.g2 * surface.g4 == gamma6.scale(scale)
    gamma_x, delta_x, info = project_quartic(surface)
    assert delta_x == delta2()
    assert gamma_x == gamma6.scale(scale)
    assert info["contact"].kind in (SIMPLE_CONTACT, EVEN_CONTACT)


def test_quartic_from_sextic_even_contact_required():
    from splitcurves.errors import SplitCurvesError

    bad = parse_form(
        "(x+y+z)*(x-y+2*z)*(x^4+y^4+z^4+x*y*z*(x+3*y+7*z))", PLANE
    )
    with pytest.raises(SplitCurvesError):
        quartic_from_sextic(bad, delta2())
