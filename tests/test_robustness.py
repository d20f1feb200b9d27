"""Randomized robustness checks beyond the catalog examples.

Freshly generated splitting configurations must be recognized by the
factorization search (it may miss in general, but these shapes are the
bread-and-butter cases), and repeated runs must agree to the byte.
"""

import pytest

from splitcurves.conics import delta2
from splitcurves.cover import involution_biform, pullback_curve
from splitcurves.errors import (
    ConicNotSmooth,
    FieldMismatch,
    NodeDegenerate,
    SplitCurvesError,
)
from splitcurves.forms import Form, parse_form, point
from splitcurves.quartics import QuarticSurface
from splitcurves.reports import jsonable
from splitcurves.splitting import factor_pullback, splitting_type
from splitcurves.scalars import QQ

from conftest import PLANE, rng_for, random_form


def test_factor_search_finds_generated_33_splittings():
    rng = rng_for("gen-33")
    found = 0
    attempts = 0
    while found < 20 and attempts < 60:
        attempts += 1
        c3 = random_form(rng, 3, height=4)
        c2 = random_form(rng, 2, height=4)
        if c3.is_zero() or c2.is_zero():
            continue
        gamma = c3 * c3 - delta2() * c2 * c2
        if gamma.is_zero():
            continue
        f = pullback_curve(gamma)
        factor = factor_pullback(f, 3, 3)
        assert factor is not None, (c3, c2)
        a = factor.a1
        if factor.is_rational() and factor.scalar == 1:
            assert a * involution_biform(a) == f
        found += 1
    assert found == 20


def test_factor_search_finds_generated_24_splittings():
    rng = rng_for("gen-24")
    found = 0
    attempts = 0
    while found < 10 and attempts < 40:
        attempts += 1
        a2 = random_form(rng, 2, height=3)
        b2 = random_form(rng, 2, height=3)
        c2 = random_form(rng, 2, height=3)
        x, y, z = (Form.variable(PLANE, v) for v in "xyz")
        g3 = z * c2 - (x * b2).scale(2) - (y * a2).scale(2)
        g4 = c2 * c2 - (a2 * b2).scale(4)
        gamma = g3 * g3 - delta2() * g4
        if gamma.is_zero():
            continue
        f = pullback_curve(gamma)
        try:
            factor = factor_pullback(f, 2, 4)
        except SplitCurvesError:
            continue
        assert factor is not None, (a2, b2, c2)
        if factor.is_rational() and factor.scalar == 1:
            assert factor.a1 * involution_biform(factor.a1) == f
        found += 1
    assert found == 10


def test_quartic_curve_type_22_over_gaussian_nodes():
    # degree-4 configuration: gamma = c2^2 - delta * c1^2 has its two nodes
    # conjugate over the Gaussian rationals; full pipeline certifies (2,2)
    from splitcurves.arith import NumberField, UPoly
    from splitcurves.conics import contact_profile, delta2_param
    from splitcurves.curves import singular_locus_complete, verify_node
    from splitcurves.forms import ProjPoint
    from splitcurves.splitting import verify_certificate

    c2 = parse_form("x^2+y^2+z^2", PLANE)
    c1 = parse_form("x", PLANE)
    gamma = c2 * c2 - delta2() * c1 * c1
    profile = contact_profile(gamma, delta2(), delta2_param())
    assert profile.kind == "simple_contact" and profile.tangent_count == 4

    field = NumberField(UPoly([1, 0, 1]))
    i = field.gen()
    orbit = ProjPoint([field.zero(), i, field.one()])
    assert verify_node(gamma, [orbit])[0].is_node
    assert singular_locus_complete(gamma, [orbit])

    rep = splitting_type(gamma, delta2(), [orbit])
    assert rep.outcome == "split" and (rep.m, rep.n) == (2, 2)
    assert rep.certificate is not None
    assert rep.certificate.c_n in (c2, -c2)
    assert verify_certificate(gamma, delta2(), rep.certificate)
    reasons = {tuple(e["type"]): e.get("reason") for e in rep.evidence}
    assert reasons[(1, 3)] == "node_bound"


def test_splitting_type_is_deterministic(gamma6, gamma6_orbit):
    rep1 = splitting_type(gamma6, delta2(), [gamma6_orbit])
    rep2 = splitting_type(gamma6, delta2(), [gamma6_orbit])
    assert jsonable(rep1.evidence) == jsonable(rep2.evidence)
    assert rep1.factor.a1 == rep2.factor.a1
    assert rep1.certificate.c_n == rep2.certificate.c_n


def test_splitting_type_rejects_non_simple_contact():
    # transversal configuration: not a contact conic at all
    gamma = parse_form(
        "(x+y+z)*(x-y+2*z)*(x^4+y^4+z^4+x*y*z*(x+3*y+7*z))", PLANE
    )
    with pytest.raises(SplitCurvesError, match="not a simple contact conic"):
        splitting_type(gamma, delta2())


def test_splitting_type_rejects_wrong_node_claims(gamma6_prime, gamma6_prime_nodes):
    with pytest.raises(SplitCurvesError):
        splitting_type(gamma6_prime, delta2(), gamma6_prime_nodes[:4])
    with pytest.raises(SplitCurvesError):
        splitting_type(
            gamma6_prime, delta2(), gamma6_prime_nodes + [point(1, 0, 0)]
        )


def test_eval_dimension_mismatch():
    with pytest.raises(FieldMismatch):
        delta2().eval([QQ(1), QQ(2)])


def test_parametrize_rejects_singular_conic():
    from splitcurves.conics import parametrize_conic

    with pytest.raises(ConicNotSmooth, match=r"the conic x\*y is not smooth"):
        parametrize_conic(parse_form("x*y", PLANE), point(1, 0, 0))


def test_from_raw_rejects_smooth_point():
    quartic = parse_form("x^4+y^4+z^4+w^4", ("x", "y", "z", "w"))
    with pytest.raises(NodeDegenerate):
        QuarticSurface.from_raw(quartic, point(1, 0, 0, 0))


def test_mixed_number_fields_rejected():
    from splitcurves.arith import NumberField, UPoly
    from splitcurves.forms import ProjPoint

    k1 = NumberField(UPoly([-2, 0, 1]))
    k2 = NumberField(UPoly([-3, 0, 1]))
    with pytest.raises(FieldMismatch):
        k1.gen() + k2.gen()
    with pytest.raises(FieldMismatch):
        ProjPoint([k1.gen(), k2.gen(), k1.one()])


def test_node_spec_wrong_ambient():
    from splitcurves.registry import parse_node_spec

    quartic = parse_form("x^4 + y^4 + z^4 + w^4", ("x", "y", "z", "w"))
    with pytest.raises(ValueError):
        parse_node_spec([1, 2, 3], quartic)


def test_node_spec_orbit_larger_than_the_singular_locus_is_rejected_at_once():
    import time

    from splitcurves.registry import parse_node_spec

    sextic = parse_form("x^6 + y^6 + z^6", PLANE)
    spec = {"minpoly": "a^400+a+1", "point": ["a", "1", "1"]}
    start = time.perf_counter()
    with pytest.raises(ValueError, match="more than the 15 singular points"):
        parse_node_spec(spec, sextic)
    assert time.perf_counter() - start < 0.1
    quartic = parse_form("x^4 + y^4 + z^4 + w^4", ("x", "y", "z", "w"))
    spec["minpoly"] = "a^17+a+1"
    spec["point"].append("1")
    with pytest.raises(ValueError, match="more than the 16 singular points"):
        parse_node_spec(spec, quartic)
