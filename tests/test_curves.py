import itertools
import random

import pytest

from splitcurves.arith import BinForm, NumberField, UPoly, binform_gcd, scalar_is_zero, upoly_gcd
from splitcurves import curves
from splitcurves.curves import (
    _first_locus,
    _sylvester_det,
    _zz_newton,
    curve_is_reduced,
    irreducibility_sextic,
    resultant_y,
    shear_matrix,
    singular_locus_complete,
    singular_points,
    verify_node,
)
from splitcurves.errors import (
    CannotCertify,
    CommonComponent,
    FieldMismatch,
    TooManyNodes,
)
from splitcurves.forms import (
    Form,
    ProjPoint,
    compose_form,
    parse_form,
    point,
    transform_point,
)
from splitcurves.linalg import det_bareiss, mat_det, mat_inv
from splitcurves.registry import load_example, parse_node_spec
from splitcurves.scalars import QQ, isqrt_exact

from conftest import PLANE, SPACE, random_form, random_rat, rng_for


def test_node_versus_cusp():
    xy = parse_form("xy", PLANE)
    node, smooth = verify_node(xy, [point(0, 0, 1), point(1, 1, 1)])
    assert node.is_singular and node.is_node
    assert node.local_quadratic_discriminant != 0
    (rep,) = verify_node(parse_form("y^2*z-x^3", PLANE), [point(0, 0, 1)])
    assert rep.is_singular and not rep.is_node
    assert not smooth.is_singular and not smooth.is_node


def test_registry_rational_node(gamma6_prime):
    (rep,) = verify_node(gamma6_prime, [point(1, 1, 1)])
    assert rep.is_node


def test_conjugate_orbit_node(gamma6, gamma6_orbit):
    (rep,) = verify_node(gamma6, [gamma6_orbit])
    assert rep.is_singular and rep.is_node


def test_node_verdict_projective_invariance(gamma6_prime):
    rng = random.Random(20260810)
    p = point(1, 1, 1)
    for _ in range(5):
        while True:
            m = [
                [QQ(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)
            ]
            if mat_det(m) != 0:
                break
        minv = mat_inv(m)
        moved_curve = compose_form(gamma6_prime, m)
        moved_point = transform_point(minv, p)
        assert verify_node(moved_curve, [moved_point])[0].is_node


def _parent_node_verdict(gamma, p):
    """(is_singular, is_node) as the parent's ``hessian_node_report`` decided
    it, kept as an oracle: the partials vanish at p, and the 2x2 or 3x3
    determinant of second partials in the affine chart at p is nonzero."""
    n = len(gamma.variables)
    coords = list(p.coords)
    partials = gamma.partials()
    singular = scalar_is_zero(gamma.eval(coords)) and all(
        scalar_is_zero(q.eval(coords)) for q in partials
    )
    if not singular:
        return False, False
    chart = p.last_nonzero()
    aff = p.affine(chart)
    others = [i for i in range(n) if i != chart]
    a = [[partials[i].partial(j).eval(aff) for j in others] for i in others]
    if n == 3:
        disc = a[0][1] * a[0][1] - a[0][0] * a[1][1]
    else:
        disc = (
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        )
    return True, not scalar_is_zero(disc)


def _orbit_and_ideal(rng, nvars, quadratic):
    """(point, generators): a rational point, or one of a conjugate pair, and
    forms generating the ideal of its orbit.  The generators are linear
    forms, then (for a pair) the homogenized minimal polynomial of its first
    coordinate; the last variable is 1 at the point."""
    variables = PLANE if nvars == 3 else SPACE
    first, last = variables[0], variables[-1]
    if quadratic:
        while True:
            b, c = rng.randint(-4, 4), rng.randint(-4, 4)
            if isqrt_exact(b * b - 4 * c) is None:
                break
        field = NumberField(UPoly([c, b, 1]))
        theta = field.gen()
        quad = parse_form(
            "%s^2 + %d*%s*%s + %d*%s^2" % (first, b, first, last, c, last), variables
        )
    coords, gens = [], []
    for k, v in enumerate(variables[:-1]):
        a, e = rng.randint(-3, 3), rng.randint(-3, 3)
        if not quadratic:
            coords.append(QQ(a))
            gens.append(parse_form("%s - %d*%s" % (v, a, last), variables))
        elif k == 0:
            coords.append(theta)
        else:
            coords.append(theta * e + a)
            line = "%s - %d*%s - %d*%s" % (v, a, last, e, first)
            gens.append(parse_form(line, variables))
    coords.append(field.one() if quadratic else QQ(1))
    return ProjPoint(coords), gens + ([quad] if quadratic else [])


def _in_ideal(rng, nvars, degree, products):
    """A random form of the given degree in the ideal the products generate."""
    out = Form.zero(PLANE if nvars == 3 else SPACE, degree)
    for prod in products:
        if prod.degree <= degree:
            out = out + prod * random_form(rng, degree - prod.degree, nvars, height=4)
    return out


def _random_point(rng, nvars, field):
    """A point with small coordinates, rational or in the field."""
    if field is None:
        coords = [QQ(rng.randint(-3, 3)) for _ in range(nvars)]
    else:
        coords = [
            field.elem([rng.randint(-2, 2) for _ in range(field.degree)])
            for _ in range(nvars)
        ]
    if all(scalar_is_zero(c) for c in coords):
        coords[-1] = coords[-1] + 1
    return ProjPoint(coords)


def _oracle_cases():
    """(form, points): seeded curves of degree 2-6 and quartic surfaces,
    each with a node or a worse singularity at a rational point or a
    conjugate pair, or passing smoothly through it, moved by a random
    integer matrix; the points are that point and rational, quadratic and
    sextic points off it."""
    rng = rng_for("verify_node oracle")
    sextic = NumberField(UPoly([1, 3, 3, 1, 3, 3, 1]))
    cases = []
    shapes = [(3, d) for d in range(2, 7)] + [(4, 4)] * 3
    for nvars, degree in shapes:
        for quadratic in (False, True):
            p, gens = _orbit_and_ideal(rng, nvars, quadratic)
            pairs = [g * h for g, h in itertools.combinations_with_replacement(gens, 2)]
            # a tangent cone in fewer than nvars - 1 linear forms: not a node
            flat = gens[0] * gens[0] if nvars == 3 else gens[0] * gens[1]
            worse = [flat, gens[-1] * gens[-1] * gens[-1]]
            if nvars == 4:
                worse += [gens[0] * gens[0], gens[1] * gens[1]]
            for products in (pairs, worse, gens):
                form = _in_ideal(rng, nvars, degree, products)
                while True:
                    m = [[QQ(rng.randint(-2, 2)) for _ in p.coords] for _ in p.coords]
                    if mat_det(m) != 0:
                        break
                quadratic_field = p.field or NumberField(UPoly([2, 0, 1]))
                points = [transform_point(mat_inv(m), p)] + [
                    _random_point(rng, nvars, field)
                    for field in (None, quadratic_field, sextic)
                ]
                cases.append((compose_form(form, m), points))
    return cases


def _special_cases(gamma6, gamma6_orbit):
    """(form, points): a cusp, a tacnode, a sextic node orbit, and forms of
    degree 0 and 1 and zero forms, in 3 and 4 variables."""
    cusp = parse_form("y^2*z - x^3", PLANE)
    tacnode = parse_form("y^2*z^2 - x^4", PLANE)
    corners = [point(0, 0, 1), point(0, 1, 0), point(1, 0, 0), point(1, 1, 1)]
    field = NumberField(UPoly([1, 0, 1]))
    pair = ProjPoint([field.gen(), field.one(), field.zero()])
    cases = [(cusp, corners + [pair]), (tacnode, corners + [pair])]
    cases.append((gamma6, [gamma6_orbit, point(1, 0, 0), pair]))
    space_points = [point(0, 0, 0, 1), point(1, 2, 3, 4)]
    for variables, pts in ((PLANE, corners + [pair]), (SPACE, space_points)):
        seven = Form(variables, 0, {(0,) * len(variables): QQ(7)})
        line = parse_form("x - 2*y", variables)
        for degree in (0, 1, 3):
            cases.append((Form.zero(variables, degree), pts))
        cases += [(seven, pts), (line, pts)]
    return cases


def test_verify_node_matches_the_parent_chart_test(gamma6, gamma6_orbit):
    seen = set()
    for form, points in _oracle_cases() + _special_cases(gamma6, gamma6_orbit):
        reports = verify_node(form, points)
        assert [rep.point for rep in reports] == points
        for p, rep in zip(points, reports):
            verdict = (rep.is_singular, rep.is_node)
            assert verdict == _parent_node_verdict(form, p)
            disc = rep.local_quadratic_discriminant
            if rep.is_singular:
                assert scalar_is_zero(disc) == (not rep.is_node)
            else:
                assert disc is None
            seen.add((len(form.variables), p.orbit_size(), verdict))
    # nodes, worse points and smooth points, on curves and on surfaces, both
    # at rational points and at conjugate pairs
    for nvars in (3, 4):
        for size in (1, 2):
            for verdict in ((True, True), (True, False), (False, False)):
                assert (nvars, size, verdict) in seen


@pytest.mark.parametrize("nvars", [3, 4])
def test_verify_node_builds_the_hessian_once_per_call(monkeypatch, nvars):
    rng = rng_for("hessian builds %d" % nvars)
    form = random_form(rng, 4, nvars)
    points = [_random_point(rng, nvars, None) for _ in range(6)]
    builds = []
    partial = Form.partial

    def counted(self, i):
        builds.append(i)
        return partial(self, i)

    monkeypatch.setattr(Form, "partial", counted)
    counts = []
    for k in (1, 2, 6):
        del builds[:]
        verify_node(form, points[:k])
        counts.append(len(builds))
    # the nvars first partials and the nvars (nvars + 1) / 2 second ones
    assert counts == [nvars + nvars * (nvars + 1) // 2] * 3


def test_verify_node_rejects_a_point_of_another_dimension():
    with pytest.raises(FieldMismatch):
        verify_node(parse_form("x*y", PLANE), [point(0, 0, 1), point(0, 0, 0, 1)])


def test_completeness_rational(gamma6_prime, gamma6_prime_nodes):
    assert singular_locus_complete(gamma6_prime, gamma6_prime_nodes)
    # a proper subset of the singular locus is rejected
    assert not singular_locus_complete(gamma6_prime, gamma6_prime_nodes[:5])
    # an extra smooth point is rejected (it is not even singular)
    assert not singular_locus_complete(
        gamma6_prime, gamma6_prime_nodes + [point(1, 0, 0)]
    )


def test_completeness_conjugate_orbit(gamma6, gamma6_orbit):
    assert singular_locus_complete(gamma6, [gamma6_orbit])
    assert not singular_locus_complete(gamma6, [])


def test_completeness_wrong_orbit(gamma6):
    field = NumberField(UPoly([-1, -1, 1]))
    b = field.gen()
    wrong = ProjPoint([b, field.one(), field.one()])
    assert not singular_locus_complete(gamma6, [wrong])


def test_completeness_empty_for_smooth_curve():
    from splitcurves.conics import delta2

    assert singular_locus_complete(delta2(), [])


def test_completeness_beyond_nodes():
    # the check certifies the singular locus as a set, whatever the
    # singularity types: cusps, tacnodes, ordinary multiple points
    cusp = parse_form("y^2*z - x^3", PLANE)
    assert singular_locus_complete(cusp, [point(0, 0, 1)])
    pair = parse_form("y^2*z^4 - x^6", PLANE)
    assert singular_locus_complete(pair, [point(0, 0, 1), point(0, 1, 0)])
    assert not singular_locus_complete(pair, [point(0, 0, 1)])
    four_lines = parse_form("x*y*(x-y)*(x+y)", PLANE)
    assert singular_locus_complete(four_lines, [point(0, 0, 1)])
    tacnodal = parse_form("(y*z-x^2)*(y*z+x^2)", PLANE)
    assert singular_locus_complete(tacnodal, [point(0, 0, 1), point(0, 1, 0)])


def test_completeness_implies_each_point_is_a_node(
    gamma6_prime, gamma6_prime_nodes
):
    assert singular_locus_complete(gamma6_prime, gamma6_prime_nodes)
    for rep in verify_node(gamma6_prime, gamma6_prime_nodes):
        assert rep.is_node


def test_registry_node_counts(gamma6_orbit, gamma6_prime_nodes, gamma7_prime_nodes):
    assert gamma6_orbit.orbit_size() == 6
    assert sum(p.orbit_size() for p in gamma6_prime_nodes) == 6
    assert sum(p.orbit_size() for p in gamma7_prime_nodes) == 7


def _shear_matrix_oracle(index, size):
    """The shear sequence as a function of the matrix size, seeded with it."""
    if index == 0:
        return [[QQ(int(i == j)) for j in range(size)] for i in range(size)]
    rng = random.Random(0xD1CE + 7 * index + size)
    for _ in range(200):
        m = [
            [QQ(1) if i == j else QQ(rng.randint(-3, 3)) for j in range(size)]
            for i in range(size)
        ]
        if mat_det(m) != 0:
            return m
    raise AssertionError("could not build a shear matrix")


def test_shear_sequence_deterministic_invertible():
    # every shear, and so the order of every singular-point list, is the
    # 3 x 3 member of the size-seeded sequence
    for idx in range(20):
        a = shear_matrix(idx)
        b = shear_matrix(idx)
        assert a == b == _shear_matrix_oracle(idx, 3) and mat_det(a) != 0


def test_irreducibility(gamma6, gamma6_orbit, gamma6_prime, gamma6_prime_nodes,
                        gamma7_prime, gamma7_prime_nodes):
    assert irreducibility_sextic(gamma6_prime, gamma6_prime_nodes)
    assert irreducibility_sextic(gamma6, [gamma6_orbit])
    gamma7, _conic = gamma7_prime
    assert irreducibility_sextic(gamma7, gamma7_prime_nodes)


def test_irreducibility_five_collinear(gamma6):
    bad = [
        point(1, 0, 0),
        point(0, 1, 0),
        point(1, 1, 0),
        point(1, 2, 0),
        point(1, 3, 0),
        point(0, 0, 1),
    ]
    assert not irreducibility_sextic(gamma6, bad)


def test_irreducibility_five_collinear_beside_a_conjugate_pair(gamma6):
    # every conic through five of the seven nodes holds three collinear ones,
    # so it contains their line and no smooth conic witness exists
    field = NumberField(UPoly([-2, 0, 1]))
    pair = ProjPoint([field.gen(), field.one(), field.one()])
    line = [point(k, 0, 1) for k in range(5)]
    with pytest.raises(CannotCertify):
        irreducibility_sextic(gamma6, [pair] + line)


def test_irreducibility_node_count_cap(gamma6):
    pts = [point(1, k, k * k + 1) for k in range(8)]
    with pytest.raises(TooManyNodes):
        irreducibility_sextic(gamma6, pts)


def test_curve_is_reduced(gamma6):
    assert curve_is_reduced(gamma6)
    doubled = parse_form("(x^2+y*z)^2", PLANE)
    assert not curve_is_reduced(doubled)


def test_singular_points_place_the_erratum_node():
    # the sixth node of nonsplit6b circulates as (-3:36:38), off the curve
    curve = load_example("nonsplit6b").curve
    nodes = singular_points(curve)
    assert any(p.eq_proj(point(-3, 36, 28)) for p in nodes)
    assert not any(p.eq_proj(point(-3, 36, 38)) for p in nodes)
    circulated = [p for p in nodes if not p.eq_proj(point(-3, 36, 28))]
    assert not singular_locus_complete(curve, circulated + [point(-3, 36, 38)])


@pytest.mark.parametrize("example_id, k", [("split6", 0), ("nonsplit6a", 3)])
def test_claim_with_a_wrong_y_coordinate_is_rejected(example_id, k):
    # at the shear where the locus is computed, move one node along its
    # line x = const: the x minimal polynomials still match the locus, so
    # only the y comparison can reject the claim
    record = load_example(example_id)
    m, _locus = _first_locus(record.curve)
    x, y, _ = transform_point(mat_inv(m), record.nodes[k]).affine(2)
    nodes = list(record.nodes)
    nodes[k] = transform_point(m, ProjPoint([x, y + 1, QQ(1)]))
    assert singular_locus_complete(record.curve, record.nodes)
    assert not singular_locus_complete(record.curve, nodes)


def test_claimed_point_on_the_line_at_infinity_of_the_locus_shear_is_rejected():
    # no singular point lies on z = 0 at the locus shear
    record = load_example("nonsplit6a")
    m, _locus = _first_locus(record.curve)
    for claim in (record.nodes[:-1], record.nodes):
        extra = transform_point(m, point(1, 2, 0))
        assert not singular_locus_complete(record.curve, claim + [extra])


def test_orbit_whose_x_lies_in_a_subfield_is_rejected():
    # a rational point written over Q(sqrt 2) is no orbit of size two: it
    # is rejected at the locus shear instead of exhausting the shears
    record = load_example("nonsplit6a")
    orbit = parse_node_spec(
        {"minpoly": "a^2-2", "point": ["1", "1", "1"]}, record.curve
    )
    nodes = [p for p in record.nodes if not p.eq_proj(point(1, 1, 1))]
    assert len(nodes) == 5
    assert singular_locus_complete(record.curve, nodes + [point(1, 1, 1)])
    assert not singular_locus_complete(record.curve, nodes + [orbit])


@pytest.mark.parametrize(
    "example_id, shears", [("split6", 1), ("nonsplit6a", 3), ("split7-24", 3)]
)
def test_claim_check_and_singular_points_share_one_shear_search(
    example_id, shears, monkeypatch
):
    record = load_example(example_id)
    calls = []
    sheared_locus = curves._sheared_locus

    def counted(gamma, m, idx):
        locus = sheared_locus(gamma, m, idx)
        calls.append((idx, locus is not None))
        return locus

    monkeypatch.setattr(curves, "_sheared_locus", counted)
    singular_points(record.curve)
    search = list(calls)
    del calls[:]
    # a fresh record: the first curve keeps its locus
    record = load_example(example_id)
    assert singular_locus_complete(record.curve, record.nodes)
    # the same shears, and the locus is computed once
    assert calls == search and len(calls) == shears
    assert [found for _idx, found in calls].count(True) == 1
    # on the same curve the kept locus answers both entry points
    del calls[:]
    assert singular_locus_complete(record.curve, record.nodes)
    singular_points(record.curve)
    assert calls == []


def test_rational_points_over_one_x_are_kept_and_conjugate_ones_are_not():
    # nonsplit6a at its locus shear: three rational nodes share x = -3/5
    record = load_example("nonsplit6a")
    m, locus = _first_locus(record.curve)
    assert m == shear_matrix(2)
    assert sorted(len(ys) for _x, ys in locus.values()) == [1, 1, 1, 3]
    found = singular_points(record.curve)
    assert len(found) == 6
    assert all(any(p.eq_proj(q) for q in found) for p in record.nodes)
    # the conjugate nodes (0 : +-i : 1) share x = 0 at the identity shear,
    # so the locus is taken at a later one
    c2 = parse_form("x^2+y^2+z^2", PLANE)
    gamma = c2 * c2 - parse_form("z^2-4xy", PLANE) * parse_form("x^2", PLANE)
    assert curves._sheared_locus(gamma, shear_matrix(0), 0) is None
    field = NumberField(UPoly([1, 0, 1]))
    orbit = ProjPoint([field.zero(), field.gen(), field.one()])
    assert singular_locus_complete(gamma, [orbit])
    (found,) = singular_points(gamma)
    assert found.field.degree == 2 and verify_node(gamma, [found])[0].is_node


def test_a_node_claimed_twice_does_not_stand_in_for_another_on_its_line():
    # at the locus shear (1:-1:0), (1:1:1) and (2:4:3) of nonsplit6a share
    # an x; (1:-1:0) once as a rational point and once over QQ[a]/(a - 5),
    # in place of (2:4:3), must not pass for the three points
    record = load_example("nonsplit6a")
    twin = parse_node_spec({"minpoly": "a-5", "point": ["1", "-1", "0"]}, record.curve)
    assert twin.field is not None and twin.eq_proj(point(1, -1, 0)) is False
    assert not singular_locus_complete(record.curve, record.nodes[:-1] + [twin])


# -- the z = 0 refusal: the composed form's partials, kept as an oracle ------


def _infinity_singular_points_oracle(gamma, m):
    """Do the partials of gamma o m share a zero on z = 0?  As the parent
    decided it: compose the whole form, then restrict its partials."""
    restricted = []
    for p in compose_form(gamma, m).partials():
        coeffs = [p.terms.get((i, p.degree - i, 0), QQ(0)) for i in range(p.degree + 1)]
        restricted.append(BinForm(p.degree, coeffs))
    g = restricted[0]
    for r in restricted[1:]:
        g = binform_gcd(g, r)
    return g.is_zero() or g.degree >= 1


_CATALOG_CURVES = ("split6", "nonsplit6a", "nonsplit6b", "split7-33", "split7-24", "nonsplit7")
_REFUSAL_CURVES = {
    # the conjugate nodes (0 : +-i : 1), a line, a conic, a singular conic
    "conjugate": "(x^2+y^2+z^2)^2-(z^2-4xy)*x^2",
    "line": "2x-3y+5z",
    "conic": "x^2+y^2+z^2",
    "line-pair": "x^2-y^2",
    # a double component and a curve without z
    "non-reduced": "(x-2z)^2*(x^2+y^2-4z^2)",
    "cone": "x^3-2x*y^2+y^3",
    # z = 0 tangent at a smooth point and an inflectional tangent there:
    # the restriction has a multiple root, the z-partial does not vanish
    "tangent-conic": "y*z-x^2",
    "flex-cubic": "y^2*z-x^3-x*z^2",
}


def _refusal_curve(name):
    from splitcurves.splitting import normalize_configuration

    example_id, normalized, _ = name.partition("-normalized")
    if example_id not in _CATALOG_CURVES:
        return parse_form(_REFUSAL_CURVES[name], PLANE)
    record = load_example(example_id)
    if normalized:
        return normalize_configuration(record.curve, record.conic, record.nodes).gamma
    return record.curve


@pytest.mark.parametrize(
    "name",
    list(_CATALOG_CURVES) + [c + "-normalized" for c in _CATALOG_CURVES] + list(_REFUSAL_CURVES),
)
def test_shear_refusal_matches_the_composed_partials(name):
    gamma = _refusal_curve(name)
    refused = []
    for idx in range(curves.MAX_SHEARS):
        m = shear_matrix(idx)
        expected = _infinity_singular_points_oracle(gamma, m)
        assert curves._infinity_singular_points_exist(gamma, m) == expected, (name, idx)
        refused.append(expected)
    if name == "non-reduced":
        # the double line meets every line z = 0 of a shear
        assert all(refused)
    elif name == "split7-33":
        assert any(refused) and not all(refused)
    elif name in ("tangent-conic", "flex-cubic"):
        assert not refused[0]


def test_non_reduced_curve_is_named():
    curve = parse_form("(x-2z)^2*(x^2+y^2-4z^2)", PLANE)
    message = "the curve is not reduced: it has a multiple component"
    with pytest.raises(CommonComponent, match=message):
        singular_points(curve)
    with pytest.raises(CommonComponent, match=message):
        singular_locus_complete(curve, [point(2, 0, 1)])


# -- resultants: the rational Sylvester determinant, kept as an oracle -------


def _resultant_y_oracle(biv1, biv2):
    """Res_y as the parent computed it: y-coefficients as rational UPolys,
    rational Sylvester determinants (mat_det) at x = 0, 1, -1, 2, ..., and
    rational Newton interpolation."""

    def y_coefficients(biv):
        dy = max((j for (_i, j) in biv), default=0)
        dx = max((i for (i, _j) in biv), default=0)
        cols = [[QQ(0)] * (dx + 1) for _ in range(dy + 1)]
        for (i, j), c in biv.items():
            cols[j][i] = c
        return [UPoly(col) for col in cols]

    c1, c2 = y_coefficients(biv1), y_coefficients(biv2)
    m, n = len(c1) - 1, len(c2) - 1
    if m == 0:
        return c1[0] ** n
    if n == 0:
        return c2[0] ** m
    max_deg = min(
        max(i + j for (i, j) in biv1) * max(i + j for (i, j) in biv2),
        m * max((p.degree() for p in c2 if not p.is_zero()), default=0)
        + n * max((p.degree() for p in c1 if not p.is_zero()), default=0),
    )
    xs, ys, x0 = [], [], 0
    while len(xs) < max_deg + 1:
        xv = QQ(x0)
        x0 = -x0 + (0 if x0 > 0 else 1)
        v1 = [p.eval(xv) for p in reversed(c1)]
        v2 = [p.eval(xv) for p in reversed(c2)]
        rows = [[QQ(0)] * k + v1 + [QQ(0)] * (n - 1 - k) for k in range(n)]
        rows += [[QQ(0)] * k + v2 + [QQ(0)] * (m - 1 - k) for k in range(m)]
        xs.append(xv)
        ys.append(mat_det(rows))
    coef = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    out = UPoly([coef[-1]])
    for i in range(len(xs) - 2, -1, -1):
        out = out * UPoly([-xs[i], QQ(1)]) + UPoly([coef[i]])
    return out


def _random_bivariate(rng, dx, dy):
    biv = {}
    for i in range(dx + 1):
        for j in range(dy + 1):
            if rng.random() < 0.7:
                c = random_rat(rng)
                if c != 0:
                    biv[(i, j)] = c
    return biv


def test_resultant_matches_rational_oracle():
    rng = rng_for("resultant-oracle")
    for _ in range(120):
        f = _random_bivariate(rng, rng.randint(0, 4), rng.randint(0, 4))
        g = _random_bivariate(rng, rng.randint(0, 4), rng.randint(0, 4))
        assert resultant_y(f, g) == _resultant_y_oracle(f, g)


def test_resultant_edge_cases_match_oracle():
    rng = rng_for("resultant-edges")
    f = {(0, 2): QQ(3, 2), (1, 0): QQ(-5, 7), (2, 1): QQ(1, 3)}
    y_free = {(0, 0): QQ(2, 3), (3, 0): QQ(-1, 4)}
    x_free = {(0, 0): QQ(-4, 5), (0, 3): QQ(7, 2)}
    cases = [({}, {}), ({}, f), (f, {}), ({}, y_free), (y_free, f), (f, y_free),
             (x_free, f), (f, x_free), (x_free, y_free), (y_free, y_free)]
    for _ in range(20):
        # a common factor makes the resultant zero
        h = _random_bivariate(rng, 1, 1)
        h[(0, 1)] = QQ(1)
        a = _random_bivariate(rng, 2, 2)
        b = _random_bivariate(rng, 2, 1)
        cases.append((_biv_mul(h, a), _biv_mul(h, b)))
    for f1, f2 in cases:
        assert resultant_y(f1, f2) == _resultant_y_oracle(f1, f2)
    assert resultant_y({}, {}) == UPoly([1])
    assert resultant_y({}, f).is_zero()
    assert resultant_y(x_free, f) == _resultant_y_oracle(x_free, f) != UPoly.zero()
    assert all(resultant_y(f1, f2).is_zero() for f1, f2 in cases[-20:])


def _with_top_factor(biv, factor):
    """biv with its top y-column multiplied by the x-polynomial factor."""
    top = max(j for (_i, j) in biv)
    out = {k: c for k, c in biv.items() if k[1] != top}
    for (i, j), c in biv.items():
        if j == top:
            for e, a in enumerate(factor):
                if a:
                    out[(i + e, j)] = out.get((i + e, j), QQ(0)) + a * c
    return {k: c for k, c in out.items() if c != 0}


@pytest.mark.parametrize("where", ["f", "g", "both"])
def test_resultant_with_leading_coefficient_vanishing_at_nodes_matches_oracle(where):
    # x (x - 1) and x (x + 1) on a top y-column: the leading value vanishes
    # at the nodes 0 and 1, or 0 and -1, so the degree drops there
    rng = rng_for("resultant-lc-" + where)
    factors = ([0, -1, 1], [0, 1, 1])
    for _ in range(30):
        f = _random_bivariate(rng, rng.randint(0, 3), rng.randint(1, 4))
        g = _random_bivariate(rng, rng.randint(0, 3), rng.randint(1, 4))
        f[(0, max((j for (_i, j) in f), default=0) + 1)] = random_rat(rng) or QQ(1)
        g[(1, max((j for (_i, j) in g), default=0) + 1)] = random_rat(rng) or QQ(1)
        if where in ("f", "both"):
            f = _with_top_factor(f, rng.choice(factors))
        if where in ("g", "both"):
            g = _with_top_factor(g, rng.choice(factors))
        assert resultant_y(f, g) == _resultant_y_oracle(f, g)


def test_sylvester_determinant_matches_bareiss_when_leading_values_vanish():
    # formal degrees m, n >= 1; zero leading values on f, on g and on both
    rng = rng_for("sylvester-det")
    for case in range(400):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        f = [rng.randint(-40, 40) for _ in range(m + 1)]
        g = [rng.randint(-40, 40) for _ in range(n + 1)]
        if case % 4 in (1, 3):
            k = rng.randint(1, m + 1)
            f[m + 1 - k:] = [0] * k
        if case % 4 in (2, 3):
            k = rng.randint(1, n + 1)
            g[n + 1 - k:] = [0] * k
        v1, v2 = f[::-1], g[::-1]
        rows = [[0] * k + v1 + [0] * (n - 1 - k) for k in range(n)]
        rows += [[0] * k + v2 + [0] * (m - 1 - k) for k in range(m)]
        assert _sylvester_det(f, g) == det_bareiss(rows)


def _biv_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, QQ(0)) + c1 * c2
    return {k: c for k, c in out.items() if c != 0}


def test_newton_interpolation_is_exact_or_raises():
    # 3 x^2 - 2 x + 5 at the resultant's nodes
    xs = [0, 1, -1, 2]
    assert _zz_newton(xs, [3 * x * x - 2 * x + 5 for x in xs]) == [5, -2, 3]
    # x (x + 1) / 2 is integer-valued at integers but not in Z[x]
    with pytest.raises(ArithmeticError):
        _zz_newton([0, 1, -1], [0, 1, 0])


# -- fibers: NFElem and Fraction Horner, kept as an oracle -------------------


def _fiber_gcd_oracle(combos, field, alpha):
    """The gcd in y of the combinations at x = alpha, as the parent built it:
    each y-coefficient by Horner in NFElem or Fraction arithmetic."""
    zero, one = (QQ(0), QQ(1)) if field is None else (field.zero(), field.one())
    g = None
    for biv in combos:
        coeffs = [zero] * (max(j for (_i, j) in biv) + 1)
        for (i, j), c in biv.items():
            coeffs[j] = coeffs[j] + alpha**i * c if field is None else coeffs[j] + one * c * alpha**i
        p = UPoly(coeffs, field)
        g = p if g is None else upoly_gcd(g, p)
        if g.degree() == 0:
            break
    return g


def test_fiber_gcd_matches_horner_oracle_over_rationals_and_fields():
    rng = rng_for("fiber-gcd-oracle")
    fields = [NumberField(UPoly([-2, 0, 1])), NumberField(UPoly([QQ(-1, 3), 1, 0, 2, 0, 0, 1]))]
    for k in range(60):
        field = fields[k % 2] if k % 3 else None
        x = random_rat(rng, 7) if field is None else field.gen()
        # a common factor y - phi(x) through the fiber in half the cases
        shared = {(0, 1): QQ(1), (0, 0): random_rat(rng), (1, 0): random_rat(rng)}
        combos = []
        for _ in range(3):
            biv = _random_bivariate(rng, rng.randint(0, 3), rng.randint(0, 3)) or {(0, 0): QQ(1)}
            combos.append(_biv_mul(biv, shared) if k % 2 else biv)
        got = curves._fiber_gcd(combos, field, x)
        expected = _fiber_gcd_oracle(combos, field, x)
        # equal up to a rational unit before a gcd is taken, monic after
        assert got.monic() == expected.monic()
        if k % 2:
            assert got.degree() >= 1
