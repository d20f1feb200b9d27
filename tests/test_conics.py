import itertools
from math import gcd

import pytest

from splitcurves.arith import binary_form_sqrt
from splitcurves.conics import (
    CONTACT,
    EVEN_CONTACT,
    NOT_CONTACT,
    SIMPLE_CONTACT,
    classify_conic,
    contact_profile,
    delta2,
    delta2_param,
    find_rational_point,
    normalize_conic,
    parametrize_conic,
    rational_parametrization,
    restrict_to_conic,
)
from splitcurves.errors import (
    CannotCertify,
    CommonComponent,
    ConicNotSmooth,
    PointNotOnConic,
)
from splitcurves.arith import BinForm
from splitcurves.forms import (
    Form,
    compose_form,
    form_to_str,
    monomial_basis,
    parse_form,
    point,
)
from splitcurves.linalg import mat_det, mat_inv
from splitcurves.scalars import ONE, QQ

from conftest import PLANE, binform_value, param_point, rng_for, random_form


def test_classification():
    assert classify_conic(delta2()) == "smooth"
    assert classify_conic(parse_form("xy", PLANE)) == "rank_two"
    assert classify_conic(parse_form("x^2", PLANE)) == "rank_one"


def test_parametrization_identity_and_base():
    for base in (point(1, 0, 0), point(0, 1, 0)):
        param = parametrize_conic(delta2(), base)
        assert restrict_to_conic(delta2(), param).is_zero()
        assert param_point(param, QQ(0), QQ(1)).eq_proj(base)


def test_point_not_on_conic():
    with pytest.raises(PointNotOnConic):
        parametrize_conic(delta2(), point(1, 1, 1))


def test_restriction_multiplicativity_and_degree():
    rng = rng_for("restrict-mult")
    param = delta2_param()
    for _ in range(100):
        f = random_form(rng, rng.randint(1, 3))
        g = random_form(rng, rng.randint(1, 3))
        rf = restrict_to_conic(f, param)
        rg = restrict_to_conic(g, param)
        assert restrict_to_conic(f * g, param) == rf * rg
        if not rf.is_zero():
            assert rf.degree == 2 * f.degree


def test_restrict_line_two_roots():
    # the line z vanishes at the parameters of (1:0:0) and (0:1:0)
    r = restrict_to_conic(parse_form("z", PLANE), delta2_param())
    assert r.degree == 2 and r.coeffs[0] == 0 and r.coeffs[2] == 0


def test_gamma6_restriction_is_content_times_square(gamma6):
    param = delta2_param()
    r = restrict_to_conic(gamma6, param)
    assert r.degree == 12
    root = binary_form_sqrt(r)
    assert root is not None and root * root == r
    content, factors = r.factor()
    assert all(mult == 2 for _f, mult in factors)
    # evaluation oracle: the restriction agrees with direct evaluation
    rng = rng_for("restriction-oracle")
    for _ in range(50):
        s0, t0 = QQ(rng.randint(-9, 9)), QQ(rng.randint(-9, 9))
        if s0 == 0 and t0 == 0:
            continue
        coords = list(param_point(param, s0, t0).coords)
        assert binform_value(r, s0, t0) == gamma6.eval(coords)
    del content


def test_contact_profiles(gamma6, gamma7_prime, gamma7_prime_nodes):
    profile = contact_profile(gamma6, delta2(), delta2_param())
    assert profile.kind == SIMPLE_CONTACT and profile.tangent_count == 6

    gamma, conic = gamma7_prime
    profile = contact_profile(gamma, conic)
    assert profile.kind == SIMPLE_CONTACT and profile.tangent_count == 6

    # transversal intersections are not contact
    gamma_bad = parse_form(
        "(x+y+z)*(x-y+2*z)*(x^4+y^4+z^4+x*y*z*(x+3*y+7*z))", PLANE
    )
    profile = contact_profile(gamma_bad, delta2(), delta2_param())
    assert profile.kind == NOT_CONTACT
    del gamma7_prime_nodes


def test_contact_profile_tests_smoothness_once(monkeypatch, gamma6):
    # rational_parametrization tests the rank in find_rational_point and in
    # parametrize_conic; contact_profile adds a test only for a given param
    from splitcurves import conics

    calls = []

    def counted(q):
        calls.append(q)
        return classify_conic(q)

    monkeypatch.setattr(conics, "classify_conic", counted)
    assert contact_profile(gamma6, delta2()).kind == SIMPLE_CONTACT
    assert len(calls) == 2
    del calls[:]
    assert contact_profile(gamma6, delta2(), delta2_param()).kind == SIMPLE_CONTACT
    assert len(calls) == 1
    for param in (None, delta2_param()):
        with pytest.raises(ConicNotSmooth, match=r"the conic x\*y is not smooth"):
            contact_profile(gamma6, parse_form("x*y", PLANE), param)


def test_contact_kind_ladder():
    # conic osculating to fourth order at (0:1:0): even but not simple
    quad = contact_profile(
        parse_form("z^2-4xy+x^2", PLANE), delta2(), delta2_param()
    )
    assert quad.kind == EVEN_CONTACT and quad.multiplicities == [4]
    # cubic restricting to s^3 t^3, smooth at both contact points:
    # contact with odd multiplicities, so neither even nor simple
    cubic = parse_form("1/2*x*y*z + (z^2-4*x*y)*(x+y)", PLANE)
    prof = contact_profile(cubic, delta2(), delta2_param())
    assert prof.kind == CONTACT and prof.multiplicities == [3, 3]


def test_contact_at_singular_point_rejected():
    # three lines: restriction s^3 t^3 but the tangency points are nodes
    cubic = parse_form("1/2*x*y*z", PLANE)
    prof = contact_profile(cubic, delta2(), delta2_param())
    assert prof.multiplicities == [3, 3]
    assert prof.kind == NOT_CONTACT


def test_contact_at_conjugate_singular_points_rejected():
    # gamma = C (C + delta) restricts to h^2 with h = C|delta an irreducible
    # quartic: every multiplicity is 2, but each contact point lies on both
    # components, so it is a node and the conic is no contact conic
    c = parse_form("x^2+y^2-3z^2+xz", PLANE)
    prof = contact_profile(c * (c + delta2()), delta2(), delta2_param())
    assert prof.multiplicities == [2] and prof.contact_form.degree == 4
    assert prof.kind == NOT_CONTACT


def test_common_component_detection(gamma6):
    with pytest.raises(CommonComponent):
        contact_profile(gamma6 * delta2(), delta2(), delta2_param())


def _height_search(q, height):
    """The old height-ordered point search, kept as an oracle: a point of
    max-norm <= height on q = 0, or None."""
    scale = 1
    for c in q.terms.values():
        scale = scale * c.denominator // gcd(scale, c.denominator)
    terms = [(expo, int(c * scale)) for expo, c in q.terms.items()]
    for coords in itertools.product(range(-height, height + 1), repeat=3):
        value = 0
        for (a, b, c), k in terms:
            value += k * coords[0] ** a * coords[1] ** b * coords[2] ** c
        if value == 0 and any(coords):
            return coords
    return None


def test_find_rational_point():
    c2 = parse_form("-61*x^2+20*x*y+4*x*z+4*y^2-4*y*z+z^2", PLANE)
    p = find_rational_point(c2)
    assert p is not None and c2.eval(list(p.coords)) == 0
    # no real point; no 3-adic point; no 7-adic point
    for text in ("x^2+y^2+z^2", "x^2+y^2-3z^2", "x^2+y^2-7z^2"):
        assert find_rational_point(parse_form(text, PLANE)) is None


def test_find_rational_point_singular_conic_raises():
    with pytest.raises(ConicNotSmooth, match=r"the conic x\^2 - 2\*y\^2 is not smooth"):
        find_rational_point(parse_form("x^2-2y^2", PLANE))


def test_find_rational_point_beyond_trial_division_raises():
    # 100003 * 100019 has no prime factor below the trial-division bound
    with pytest.raises(CannotCertify):
        find_rational_point(parse_form("x^2+y^2-10002200057z^2", PLANE))


def test_descent_agrees_with_height_search():
    # random conics, and transformed copies of z^2 - 4xy (which all carry
    # rational points): every point is on the conic, and the descent finds
    # a point whenever the height search finds one
    rng = rng_for("legendre-descent")
    counts = {True: 0, False: 0}
    done = 0
    while done < 200:
        if done % 2:
            q = random_form(rng, 2)
        else:
            m = [[QQ(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            if mat_det(m) == 0:
                continue
            q = compose_form(delta2(), m)
        if q.is_zero() or classify_conic(q) != "smooth":
            continue
        done += 1
        p = find_rational_point(q)
        if p is not None:
            assert q.eval(list(p.coords)) == 0
        if _height_search(q, 6) is not None:
            assert p is not None
        counts[p is not None] += 1
    assert counts[True] >= 60 and counts[False] >= 20


def test_normalize_conic_identity_cases():
    m = normalize_conic(delta2())
    transformed = compose_form(delta2(), mat_inv(m))
    lam = transformed.terms[(0, 0, 2)]
    assert transformed == delta2().scale(lam)


def test_normalize_conic_nonsplit7():
    c2 = parse_form("-61*x^2+20*x*y+4*x*z+4*y^2-4*y*z+z^2", PLANE)
    m = normalize_conic(c2)
    transformed = compose_form(c2, mat_inv(m))
    lam = transformed.terms[(0, 0, 2)]
    assert lam != 0 and transformed == delta2().scale(lam)
    assert form_to_str(transformed.scale(1 / lam)) == form_to_str(delta2())


def test_simple_contact_tangent_count_is_curve_degree(gamma6):
    prof = contact_profile(gamma6, delta2(), delta2_param())
    assert prof.tangent_count == gamma6.degree


def test_parametrize_random_transformed_conics():
    # transformed copies of the normal conic always carry rational points;
    # the stereographic parametrization must satisfy its identities
    from splitcurves.linalg import mat_det
    import random

    rng = random.Random(0xC051C)
    done = 0
    while done < 25:
        m = [[QQ(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        if mat_det(m) == 0:
            continue
        done += 1
        q = compose_form(delta2(), m)
        assert classify_conic(q) == "smooth"
        base = find_rational_point(q)
        assert base is not None
        param = parametrize_conic(q, base)
        assert restrict_to_conic(q, param).is_zero()
        assert param_point(param, QQ(0), QQ(1)).eq_proj(base)
        # coefficient matrix invertible: the three quadratics independent
        from splitcurves.linalg import rank_naive

        assert rank_naive(param.coefficient_matrix()) == 3
        norm = normalize_conic(q)
        transformed = compose_form(q, mat_inv(norm))
        lam = None
        for expo, c in transformed.terms.items():
            lam = c / delta2().terms[expo]
            break
        assert transformed == delta2().scale(lam)


# -- restriction with rational binary-form products, kept as an oracle ------


def _restrict_to_conic_oracle(f, param):
    """f(p0, p1, p2) as the parent computed it: rational BinForm products,
    each power of a component built once per call."""
    comps = param.components()
    powers = [dict() for _ in comps]

    def power(i, e):
        if e not in powers[i]:
            powers[i][e] = BinForm(0, [ONE]) if e == 0 else comps[i] ** e
        return powers[i][e]

    acc = BinForm.zero(2 * f.degree)
    for expo, coeff in f.sorted_terms():
        term = BinForm(0, [ONE])
        for i, e in enumerate(expo):
            if e:
                term = term * power(i, e)
        acc = acc + term.scale(coeff)
    return acc


def test_restriction_matches_oracle_on_sextics_and_monomials():
    rng = rng_for("restrict-oracle")
    # the normalized conic, and one whose base point (27 : 74 : -49) comes
    # from Legendre's descent, so the components have rational coefficients
    params = [
        delta2_param(),
        rational_parametrization(parse_form("1/2*x^2+1/3*y^2-5/6*z^2+1/7*x*z", PLANE)),
    ]
    for param in params:
        for _ in range(20):
            f = random_form(rng, 6, sparsity=0.6)
            assert restrict_to_conic(f, param) == _restrict_to_conic_oracle(f, param)
        for expo in monomial_basis(3, 4):
            c = QQ(rng.randint(1, 9), rng.randint(1, 9))
            mono = Form.monomial(PLANE, expo).scale(c)
            assert restrict_to_conic(mono, param) == _restrict_to_conic_oracle(mono, param)


def test_restriction_of_a_constant_is_the_constant():
    for param in (delta2_param(), rational_parametrization(delta2())):
        for c in (QQ(0), QQ(-3, 2)):
            constant = Form(PLANE, 0, {(0, 0, 0): c})
            expected = _restrict_to_conic_oracle(constant, param)
            assert restrict_to_conic(constant, param) == expected == BinForm(0, [c])
        zero = Form.zero(PLANE, 3)
        assert restrict_to_conic(zero, param) == BinForm.zero(6)
