import itertools
import random

import pytest

from splitcurves.arith import (
    BinForm,
    NFElem,
    NumberField,
    UPoly,
    binform_gcd,
    scalar_is_zero,
)
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
    monomial_basis,
    parse_form,
    point,
    transform_point,
)
from splitcurves.linalg import det_bareiss, mat_det, mat_inv
from splitcurves.registry import load_example, parse_node_spec
from splitcurves.scalars import QQ, isqrt_exact

from conftest import (
    PLANE,
    SPACE,
    fiber_gcd_oracle,
    nf_from_ints,
    random_form,
    random_rat,
    rng_for,
    singular_points_oracle,
)


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


def _hessian_minor_oracle(form, p):
    """The principal minor of H(p) at p's last nonzero coordinate, each
    entry one ``Form.eval`` of a second partial: the value ``verify_node``
    reports as the local quadratic discriminant."""
    n = len(form.variables)
    coords = list(p.coords)
    rest = [i for i in range(n) if i != p.last_nonzero()]
    h = [[form.partial(i).partial(j).eval(coords) for j in rest] for i in rest]
    if len(h) == 2:
        return h[0][0] * h[1][1] - h[0][1] * h[1][0]
    return (
        h[0][0] * (h[1][1] * h[2][2] - h[1][2] * h[2][1])
        - h[0][1] * (h[1][0] * h[2][2] - h[1][2] * h[2][0])
        + h[0][2] * (h[1][0] * h[2][1] - h[1][1] * h[2][0])
    )


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
                if form.degree >= 2:
                    assert disc == _hessian_minor_oracle(form, p)
            else:
                assert disc is None
            seen.add((len(form.variables), p.orbit_size(), verdict))
    # nodes, worse points and smooth points, on curves and on surfaces, both
    # at rational points and at conjugate pairs
    for nvars in (3, 4):
        for size in (1, 2):
            for verdict in ((True, True), (True, False), (False, False)):
                assert (nvars, size, verdict) in seen


def _orbit_ideal_over(rng, variables, field):
    """(point, generators): a point whose first coordinate generates
    ``field`` (a rational point when it is None), and forms generating the
    ideal of its orbit: the homogenized minimal polynomial of the first
    coordinate and one linear form per other affine coordinate."""
    first, last = variables[0], variables[-1]
    n = len(variables)
    if field is None:
        x = QQ(rng.randint(-3, 3))
        gens = [parse_form("%s - %d*%s" % (first, x, last), variables)]
    else:
        x = field.gen()
        q = field.minimal_polynomial.coeffs
        degree = len(q) - 1
        terms = {(k,) + (0,) * (n - 2) + (degree - k,): c for k, c in enumerate(q)}
        gens = [Form(variables, degree, terms)]
    coords = [x]
    for v in variables[1:-1]:
        a, e = rng.randint(-3, 3), rng.randint(-3, 3)
        coords.append(x * e + a)
        gens.append(parse_form("%s - %d*%s - %d*%s" % (v, a, last, e, first), variables))
    coords.append(QQ(1) if field is None else field.one())
    return ProjPoint(coords), gens


def _hessian_oracle_verdict(form, p):
    """(is_singular, minor): H(p) read entry by entry as ``Form.eval`` of
    ``Form.partial`` applied twice; p is singular iff H(p) p = 0."""
    coords = list(p.coords)
    n = len(coords)
    h = [[form.partial(i).partial(j).eval(coords) for j in range(n)] for i in range(n)]
    singular = all(scalar_is_zero(sum((a * c for a, c in zip(row, coords)), QQ(0))) for row in h)
    return singular, (_hessian_minor_oracle(form, p) if singular else None)


def test_verify_node_agrees_with_the_twice_differentiated_form():
    # forms of degree 2-5 in 3 and 4 variables, singular at a rational
    # point, an orbit over Q(sqrt 2) or one over a cubic field (a random
    # member of the square of its ideal), and random forms through none of
    # them, moved by a random integer matrix
    rng = rng_for("verify_node twice-differentiated oracle")
    fields = [None, NumberField(UPoly([-2, 0, 1])), NumberField(UPoly([-3, 1, 0, 1]))]
    seen = set()
    for variables in (PLANE, SPACE):
        nvars = len(variables)
        for degree in range(2, 6):
            for field in fields:
                p, gens = _orbit_ideal_over(rng, variables, field)
                squares = [g * h for g, h in itertools.combinations_with_replacement(gens, 2)]
                while True:
                    m = [[QQ(rng.randint(-2, 2)) for _ in p.coords] for _ in p.coords]
                    if mat_det(m) != 0:
                        break
                points = [transform_point(mat_inv(m), p)] + [
                    _random_point(rng, nvars, f) for f in fields
                ]
                for form in (
                    _in_ideal(rng, nvars, degree, squares),
                    random_form(rng, degree, nvars),
                ):
                    moved = compose_form(form, m)
                    for q, rep in zip(points, verify_node(moved, points)):
                        singular, minor = _hessian_oracle_verdict(moved, q)
                        assert rep.is_singular == singular
                        assert rep.local_quadratic_discriminant == minor
                        assert rep.is_node == (singular and not scalar_is_zero(minor))
                        seen.add((nvars, degree, q.orbit_size(), singular, rep.is_node))
    for nvars in (3, 4):
        for degree in range(2, 6):
            for size in (1, 2, 3):
                assert (nvars, degree, size, False, False) in seen
                assert {(nvars, degree, size, True, node) for node in (True, False)} & seen
        # nodes and worse singular points of each variable count
        assert {(True, True), (True, False)} <= {key[3:] for key in seen if key[0] == nvars}


@pytest.mark.parametrize("nvars", [3, 4])
def test_verify_node_builds_the_hessian_once_per_call(monkeypatch, nvars):
    rng = rng_for("hessian builds %d" % nvars)
    form = random_form(rng, 4, nvars)
    points = [_random_point(rng, nvars, None) for _ in range(6)]
    builds = []
    over_common_denominator = curves.over_common_denominator

    def counted(values):
        # the Hessian rows are read off the form's coefficients over one
        # denominator; a point's coordinates are other values
        if values == list(form.terms.values()):
            builds.append(1)
        return over_common_denominator(values)

    def no_partial(self, i):
        raise AssertionError("a partial Form was built")

    monkeypatch.setattr(curves, "over_common_denominator", counted)
    monkeypatch.setattr(Form, "partial", no_partial)
    counts = []
    for k in (1, 2, 6):
        del builds[:]
        verify_node(form, points[:k])
        counts.append(len(builds))
    assert counts == [1, 1, 1]


def test_verify_node_rejects_a_point_of_another_dimension():
    with pytest.raises(FieldMismatch):
        verify_node(parse_form("x*y", PLANE), [point(0, 0, 1), point(0, 0, 0, 1)])


def test_a_claimed_point_of_another_dimension_is_no_plane_node():
    # a fourth coordinate is not dropped: the claim fails before any verdict
    cubic = parse_form("x^3+y^3-x*y*z", PLANE)
    assert singular_locus_complete(cubic, [point(0, 0, 1)])
    for claim in ([point(0, 0, 1, 7)], [point(0, 0, 1, 0)]):
        with pytest.raises(FieldMismatch):
            singular_locus_complete(cubic, claim)
        with pytest.raises(FieldMismatch):
            curves._matches_locus(cubic, claim)
    field = NumberField(UPoly([-2, 0, 1]))
    for p in (point(0, 0, 1, 7), _over(field, point(0, 0, 1, 7)), point(1, 1)):
        with pytest.raises(FieldMismatch):
            transform_point(shear_matrix(1), p)


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

    def counted(gamma, m):
        locus = sheared_locus(gamma, m)
        calls.append((m, locus is not None))
        return locus

    monkeypatch.setattr(curves, "_sheared_locus", counted)
    singular_points(record.curve)
    search = list(calls)
    del calls[:]
    # a claim short of one node is declined by the discriminant
    # certificate, so the comparison with the locus decides it
    assert not singular_locus_complete(record.curve, record.nodes[:-1])
    # the same shears, and the locus is computed once
    assert calls == search and len(calls) == shears
    assert [found for _m, found in calls].count(True) == 1


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
    assert curves._sheared_locus(gamma, shear_matrix(0)) is None
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


# -- the discriminant certificate: never True where the comparison is False --


_SMALL_CURVES = {
    # name: (curve, its singular locus as node specs); a cusp, an A5 point
    # with two cusps, a tacnode with an A5 point, an ordinary quadruple
    # point, three nodal curves and a smooth conic.  "two-orbits" has two
    # orbits of nodes on the lines x = +-sqrt(2) z, which the certificate
    # leaves to the comparison (its factor x^2 - 2 of P would repeat), and a
    # node on z = 0.
    "cusp": ("y^2*z - x^3", [[0, 0, 1]]),
    "pair": ("y^2*z^4 - x^6", [[0, 0, 1], [0, 1, 0]]),
    "tacnodal": ("(y*z-x^2)*(y*z+x^2)", [[0, 0, 1], [0, 1, 0]]),
    "four-lines": ("x*y*(x-y)*(x+y)", [[0, 0, 1]]),
    "line-pair": ("x^2-y^2", [[0, 0, 1]]),
    "nodal-cubic": ("y^2*z - x^2*(x+z)", [[0, 0, 1]]),
    "two-orbits": (
        "y*(y-z)*(x^2+y^2-y*z-2*z^2)",
        [
            [1, 0, 0],
            {"minpoly": "a^2-2", "point": ["a", "0", "1"]},
            {"minpoly": "a^2-2", "point": ["a", "1", "1"]},
        ],
    ),
    "conic": ("x^2+y^2+z^2", []),
}


def _certificate_case(name):
    """A fresh curve and its true singular locus."""
    if name in _SMALL_CURVES:
        text, specs = _SMALL_CURVES[name]
        gamma = parse_form(text, PLANE)
        return gamma, [parse_node_spec(spec, gamma) for spec in specs]
    record = load_example(name)
    return record.curve, list(record.nodes)


def _line(m, p):
    """p's line through the certificate's center: the minimal polynomial of
    the moved x / z, None for z = 0."""
    x, _y, z = transform_point(mat_inv(m), p).coords
    return None if scalar_is_zero(z) else curves._x_minimal_polynomial(x / z)


def _along_line(m, p, shift):
    """The point of p's line through the certificate's center m (0 : 1 : 0)
    whose moved y (or y / x on z = 0) is shifted by ``shift``."""
    moved = transform_point(mat_inv(m), p)
    x, y, z = moved.coords
    if scalar_is_zero(z):
        return transform_point(m, ProjPoint([x, y + shift * x, z]))
    return transform_point(m, ProjPoint([x / z, y / z + shift, QQ(1)]))


def _doubled_generator(p):
    """The orbit of p over QQ[b]/(q), b = 2a: one orbit, another field."""
    field = p.field
    n = field.degree
    coeffs = field.minimal_polynomial.coeffs
    double = NumberField(UPoly([c * 2 ** (n - i) for i, c in enumerate(coeffs)]))
    coords = [
        NFElem(double, tuple(QQ(e) / 2**i for i, e in enumerate(c.coords))) for c in p.coords
    ]
    return ProjPoint(coords)


def _over(field, p):
    """A rational point written over a number field."""
    return ProjPoint([field.from_rat(c) for c in p.coords])


def _claim_mutants(gamma, locus):
    """Wrong claims next to the true one: a node dropped, a point that is
    not singular added, a node moved along its line through the center, an
    orbit listed twice, an orbit over a larger field, and a node moved onto
    the line of another."""
    m = curves._discriminant(gamma)[0]
    quadratic = NumberField(UPoly([-2, 0, 1]))
    linear = NumberField(UPoly([-5, 1]))
    on_curve = [
        point(a, b, c)
        for a, b, c in itertools.product(range(-2, 3), repeat=3)
        if (a, b, c) != (0, 0, 0) and scalar_is_zero(gamma.eval([QQ(a), QQ(b), QQ(c)]))
    ]
    smooth = [
        p for p in on_curve[:4] + [point(1, 0, 0), point(1, 1, 1), point(2, -1, 3)]
        if not any(p.eq_proj(q) for q in locus)
    ]
    for k, p in enumerate(locus):
        rest = locus[:k] + locus[k + 1:]
        yield "drop", rest
        yield "move", rest + [_along_line(m, p, 1)]
        # listed twice: on top of the locus, and in place of another orbit
        # on its lines through the center
        twin = _over(linear, p) if p.field is None else _doubled_generator(p)
        yield "twice", locus + [twin]
        for q in rest:
            if _line(m, q) == _line(m, p):
                yield "twice", [r for r in locus if r is not q] + [twin]
        if p.field is None:
            yield "larger-field", rest + [_over(quadratic, p)]
            for q in rest:
                if q.field is None:
                    yield "one-line", rest + [_along_line(m, q, 1)]
                    break
    for p in smooth:
        yield "add", locus + [p]


_CERTIFICATE_CURVES = list(_CATALOG_CURVES) + list(_SMALL_CURVES)


def _certificate(gamma, claim):
    """The node certificate on the node reports that ``check_claim`` passes it."""
    return curves._node_certificate(gamma, claim, verify_node(gamma, claim))


@pytest.mark.parametrize("name", _CERTIFICATE_CURVES)
def test_node_certificate_never_accepts_what_the_comparison_rejects(name):
    gamma, locus = _certificate_case(name)
    assert curves._matches_locus(gamma, locus)
    claims = [("true", locus)] + list(_claim_mutants(gamma, locus))
    kinds = {kind for kind, _claim in claims}
    assert {"drop", "move", "add"} <= kinds or not locus
    for kind, claim in claims:
        if len({p.canonical_key() for p in claim}) != len(claim):
            continue
        verdict = _certificate(gamma, claim)
        assert verdict in (True, None), (name, kind)
        if verdict:
            # an accepted claim is the locus, and each of its points a node
            assert curves._matches_locus(gamma, claim), (name, kind, claim)
            assert all(rep.is_node for rep in verify_node(gamma, claim)), (name, kind)
        elif kind == "true" and name in _CATALOG_CURVES + ("line-pair", "nodal-cubic", "conic"):
            pytest.fail("the certificate declined the nodes of %s" % name)


def test_node_certificate_counts_the_nodes_on_the_line_at_infinity():
    # nonsplit6a has three nodes on z = 0 and is certified at the identity:
    # without one of them D = P^2 A still holds with A squarefree, and only
    # the degree of D sees the node that is missing
    record = load_example("nonsplit6a")
    m, disc = curves._discriminant(record.curve)
    assert m == shear_matrix(0) and disc.degree() == 30 - 2 * 3
    at_infinity = [p for p in record.nodes if scalar_is_zero(p.coords[2])]
    assert len(at_infinity) == 3
    rest = [p for p in record.nodes if p is not at_infinity[0]]
    assert _certificate(record.curve, record.nodes)
    assert _certificate(record.curve, rest) is None
    assert not singular_locus_complete(record.curve, rest)


def test_node_certificate_accepts_two_nodes_on_one_line_through_the_center():
    # nonsplit6b: (0 : 0 : 1) and (0 : 3 : 2) both lie on x = 0, so the
    # factor x of P is repeated and D has order 4 there
    record = load_example("nonsplit6b")
    m, disc = curves._discriminant(record.curve)
    assert m == shear_matrix(0)
    on_axis = [p for p in record.nodes if scalar_is_zero(p.coords[0])]
    assert len(on_axis) == 2
    assert disc.coeffs[:4] == (0, 0, 0, 0) and disc.coeffs[4] != 0
    assert _certificate(record.curve, record.nodes)


def test_node_certificate_declines_what_is_no_node():
    # cusps, tacnodes and ordinary quadruple points are left to the comparison
    for name in ("cusp", "pair", "tacnodal", "four-lines"):
        gamma, locus = _certificate_case(name)
        assert _certificate(gamma, locus) is None
        assert singular_locus_complete(gamma, locus)
    non_reduced = parse_form("(x-2z)^2*(x^2+y^2-4z^2)", PLANE)
    assert _certificate(non_reduced, [point(2, 0, 1)]) is None


@pytest.mark.parametrize("example_id", _CATALOG_CURVES)
def test_node_certificate_decides_each_catalog_curve(example_id, monkeypatch):
    # the comparison with the locus is not reached: a silent fallback to it
    # fails here, not only in the benchmark
    def no_search(gamma):
        raise AssertionError("the singular locus was searched")

    monkeypatch.setattr(curves, "_first_locus", no_search)
    record = load_example(example_id)
    assert singular_locus_complete(record.curve, record.nodes)
    if example_id == "split7-24":
        from splitcurves.quartics import surface_singular_locus_complete

        record = load_example(example_id)
        assert surface_singular_locus_complete(record.surface, record.surface_nodes)


def _node_tests(reports):
    return [(r.point, r.is_singular, r.is_node, r.local_quadratic_discriminant) for r in reports]


@pytest.mark.parametrize("example_id", _CATALOG_CURVES)
def test_a_claim_check_returns_the_node_test_of_each_claimed_point(example_id):
    record = load_example(example_id)
    reports, complete = curves.check_claim(record.curve, record.nodes)
    assert complete
    assert _node_tests(reports) == _node_tests(verify_node(record.curve, record.nodes))
    if example_id == "split7-24":
        from splitcurves.quartics import check_surface_claim

        nodes = record.surface_nodes
        reports, complete = check_surface_claim(record.surface, nodes)
        assert complete
        assert _node_tests(reports) == _node_tests(verify_node(record.surface.form(), nodes))
        # a claim without the center is no locus, and still reports each point
        reports, complete = check_surface_claim(record.surface, nodes[1:])
        assert not complete and [r.point for r in reports] == nodes[1:]


def _count_resultants(monkeypatch):
    """A list that gets one entry per ``resultant_y`` call."""
    calls = []
    original = curves.resultant_y

    def counted(biv1, biv2):
        calls.append(1)
        return original(biv1, biv2)

    monkeypatch.setattr(curves, "resultant_y", counted)
    return calls


def test_a_curve_keeps_one_discriminant_for_both_checks(monkeypatch):
    record = load_example("split6")
    calls = _count_resultants(monkeypatch)
    assert singular_locus_complete(record.curve, record.nodes)
    assert curve_is_reduced(record.curve)
    assert curves._discriminant(record.curve) is curves._discriminant(record.curve)
    assert len(calls) == 1


@pytest.mark.parametrize("name", _CATALOG_CURVES + ("two-orbits", "nodal-cubic"))
def test_a_kept_discriminant_decides_no_later_claim(name):
    # the curve keeps D, not a verdict: after the true claim, every wrong
    # claim on the same Form gets the verdict it gets on a fresh copy
    gamma, locus = _certificate_case(name)
    assert _certificate(gamma, locus) == _certificate(
        Form(gamma.variables, gamma.degree, gamma.terms), locus
    )
    for kind, claim in _claim_mutants(gamma, locus):
        fresh = Form(gamma.variables, gamma.degree, gamma.terms)
        assert _certificate(gamma, claim) == _certificate(
            fresh, claim
        ), (name, kind)


@pytest.mark.parametrize(
    "example_id, resultants",
    [
        ("split6", 1),
        ("nonsplit6a", 2),
        ("nonsplit6b", 2),
        ("split7-33", 1),
        ("split7-24", 2),
        ("nonsplit7", 1),
    ],
)
def test_the_locus_at_the_kept_shear_reads_the_kept_discriminant(
    example_id, resultants, monkeypatch
):
    # the locus and the claim check share the kept D; a locus found at a
    # later shear takes one D of its own there
    record = load_example(example_id)
    calls = _count_resultants(monkeypatch)
    singular_points(record.curve)
    assert curves.check_claim(record.curve, record.nodes)[1]
    assert len(calls) == resultants


def _seeded_octic(seed):
    """c4^2 - (z^2 - 4xy) c3^2, c4 and c3 with seeded coefficients in
    [-3, 3]: twelve nodes, where c4 = c3 = 0, in one orbit."""
    rng = random.Random(seed)
    c4, c3 = (
        Form(PLANE, d, {e: rng.randint(-3, 3) for e in sorted(monomial_basis(3, d))})
        for d in (4, 3)
    )
    return c4 * c4 - parse_form("z^2-4xy", PLANE) * c3 * c3


@pytest.mark.parametrize(
    "name",
    _CATALOG_CURVES
    + ("octic-1", "octic-2", "octic-4", "octic-5", "cusp", "pair", "four-lines", "tacnodal"),
)
def test_the_locus_from_the_discriminant_is_the_weighted_partials_locus(name):
    if name.startswith("octic-"):
        gamma = _seeded_octic(int(name[len("octic-"):]))
    else:
        gamma = _certificate_case(name)[0]
    expected = singular_points_oracle(gamma)
    found = singular_points(gamma)
    assert sorted(p.orbit_size() for p in found) == sorted(p.orbit_size() for p in expected)
    # the locus shear, and so the fields, may differ: the oracle's points
    # are compared with the locus at the shear where it is found now
    assert curves._matches_locus(gamma, expected)


@pytest.mark.parametrize(
    "name, inverses",
    [("split6", 1), ("split7-33", 2), ("octic-1", 1), ("octic-2", 1), ("octic-4", 1), ("octic-5", 1)],
)
def test_singular_points_takes_one_inverse_per_irrational_orbit(name, inverses, monkeypatch):
    # the fiber over an irrational x stays in integers, and its point is
    # one division; split7-33 has orbits of 4 and 2 besides a rational node
    if name.startswith("octic-"):
        gamma = _seeded_octic(int(name[len("octic-"):]))
    else:
        gamma = load_example(name).curve
    calls = []
    inv = NFElem.inv

    def counted(self):
        calls.append(self)
        return inv(self)

    monkeypatch.setattr(NFElem, "inv", counted)
    found = singular_points(gamma)
    assert len(calls) == inverses == sum(p.field is not None for p in found)


def test_an_irrational_fiber_gives_a_point_only_as_a_power():
    # over QQ(sqrt 2), in the power basis (1, a): 3 (y - a)^2 is the one
    # point y = a, and y^2 - 2 = (y - a)(y + a) is two conjugate points
    field = NumberField(UPoly([-2, 0, 1]))
    a = field.gen()
    assert curves._fiber_points([[6, 0], [0, -6], [3, 0]], [], field) == [a]
    assert curves._fiber_points([[-2, 0], [0, 0], [1, 0]], [], field) is None
    # a linear gcd's root is a point only where the fibers left vanish
    root = [[0, -5], [5, 0]]
    assert curves._fiber_points(root, [[[-2, 0], [0, 0], [1, 0]]], field) == [a]
    assert curves._fiber_points(root, [[[2, 0], [0, 0], [1, 0]]], field) == []
    assert curves._fiber_points([[7, 1]], [], field) == []


def test_repeated_factors_of_the_discriminant_need_not_be_singular():
    # x^3 + y^3 - x z^2 is smooth, and its lines x = 0, +-z are inflectional
    # tangents: D has order 2 there, and only dF/dx tells them from nodes
    gamma = parse_form("x^3+y^3-x*z^2", PLANE)
    assert singular_points(gamma) == []
    assert _first_locus(gamma) == (shear_matrix(0), {})
    assert curves._discriminant(gamma) == (shear_matrix(0), UPoly([0, 0, 27, 0, -54, 0, 27]))

def _singular_at_all(form, points):
    return all(rep.is_singular for rep in verify_node(form, points))


def test_the_singularity_test_reads_every_partial():
    # at each unit point exactly one partial of x^2 + y^2 + z^2 is nonzero,
    # and x^2 - y^2 has (0 : 0 : 1) as its only singular point
    sphere = parse_form("x^2+y^2+z^2", PLANE)
    for k in range(3):
        unit = point(*[int(i == k) for i in range(3)])
        assert not _singular_at_all(sphere, [unit])
    pair = parse_form("x^2-y^2", PLANE)
    assert _singular_at_all(pair, [point(0, 0, 1)])
    assert _singular_at_all(pair, [])
    assert not _singular_at_all(pair, [point(0, 0, 1), point(1, 1, 0)])


def test_the_singularity_test_agrees_with_the_partials():
    rng = rng_for("singularity-test")
    field = NumberField(UPoly([-2, 0, 1]))
    cubic = NumberField(UPoly([-3, 1, 0, 1]))
    for degree in (2, 3, 5):
        for _ in range(6):
            gamma = random_form(rng, degree)
            if gamma.is_zero():
                continue
            candidates = [ProjPoint([random_rat(rng, 4) for _ in range(3)]) for _ in range(3)]
            for f in (field, cubic):
                coords = [
                    f.elem([random_rat(rng, 3) for _ in range(f.degree)]) for _ in range(3)
                ]
                if not all(scalar_is_zero(c) for c in coords):
                    candidates.append(ProjPoint(coords))
            for p in candidates:
                expected = all(
                    scalar_is_zero(q.eval(list(p.coords))) for q in gamma.partials()
                )
                assert _singular_at_all(gamma, [p]) == expected
    # singular points over Q and over fields of degree 2, 4 and 6, where the
    # test is true
    for name in ("split6", "split7-33", "nonsplit7", "two-orbits"):
        gamma, locus = _certificate_case(name)
        assert _singular_at_all(gamma, locus)


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


# -- fibers: NFElem and Fraction Horner as the oracle (conftest) --------------


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
        got, rest = curves._fiber_gcd(combos, field, x)
        # the gcd of the bivariates up to the first linear one, then the
        # fibers of the rest, each equal to the oracle's up to a unit
        used = len(combos) - len(rest)
        assert used == len(combos) or len(got) <= 2
        monic = (lambda f: UPoly(f).monic()) if field is None else (lambda f: nf_from_ints(f, field))
        assert monic(got) == fiber_gcd_oracle(combos[:used], field, x)
        for p, biv in zip(rest, combos[used:]):
            assert monic(p) == fiber_gcd_oracle([biv], field, x)
        if k % 2:
            assert len(got) >= 2
