import itertools

import pytest

from splitcurves import splitting
from splitcurves.conics import contact_profile, delta2, delta2_param
from splitcurves.curves import irreducibility_sextic, singular_locus_complete, singular_points
from splitcurves.cover import involution_biform, pullback_curve, ram_form
from splitcurves.errors import (
    CannotCertify,
    ConicNotSmooth,
    NotTangentLine,
    SearchBudgetExceeded,
    SplitCurvesError,
    WrongNodeCount,
)
from splitcurves.forms import BiForm, Form, compose_form, monomial_basis, parse_form, point
from splitcurves.registry import example_ids, load_example
from splitcurves.reports import certificate_payload
from splitcurves.splitting import (
    SplitCertificate,
    alpha_of,
    certificate_from_factor,
    criterion_24_7nodal,
    factor_pullback,
    necessary_dim_check,
    node_bound_filter,
    normalize_configuration,
    splitting_type,
    verify_certificate,
    _binform_squarefree,
    _line_param,
    _match_scalar,
    _restrict_to_line,
)
from splitcurves.arith import BinForm
from splitcurves.linalg import kernel_basis, primitive_vector, solve_linear
from splitcurves.scalars import ONE, QQ

from conftest import (
    PLANE,
    criterion_24_oracle,
    irreducibility_sextic_oracle,
    necessary_dim_oracle,
    param_point,
    random_form,
    random_rat,
    rng_for,
    seven_nodal_construction,
)


def test_alpha_of():
    assert alpha_of(3, 3) == 6
    assert alpha_of(2, 4) == 7
    assert alpha_of(1, 5) == 10


def test_node_bound_filter():
    assert not node_bound_filter(6, 2, 4, 6)  # 12 < 14
    assert node_bound_filter(7, 2, 4, 6)  # 14 >= 14
    assert node_bound_filter(6, 3, 3, 6)  # 12 >= 12


def _profile_for(gamma):
    return contact_profile(gamma, delta2(), delta2_param())


def test_necessary_check_positive(gamma6, gamma6_orbit):
    prof = _profile_for(gamma6)
    out = necessary_dim_check(
        gamma6, [gamma6_orbit], prof.contact_form, 3, 3
    )
    assert out.passes
    assert out.witnesses[0]["subset"] == (0,)
    assert out.witnesses[0]["dim_n1"] >= 0


def test_necessary_check_negative(gamma6_prime, gamma6_prime_nodes):
    prof = _profile_for(gamma6_prime)
    out = necessary_dim_check(
        gamma6_prime, gamma6_prime_nodes, prof.contact_form, 3, 3
    )
    assert not out.passes
    assert all(f["reason"] == "degree_n_minus_1_system" for f in out.failures)


def test_necessary_check_seven_subsets(gamma7_prime, gamma7_prime_nodes):
    gamma, conic = gamma7_prime
    config = normalize_configuration(gamma, conic, gamma7_prime_nodes)
    out = necessary_dim_check(
        config.gamma, config.nodes, config.profile.contact_form, 3, 3
    )
    assert not out.passes and len(out.failures) == 7


def test_alpha_exceeds_nodes():
    prof_dummy = _profile_for(parse_form("(x^3+y^3+z^3)^2-(z^2-4xy)*(xy+yz+zx)^2", PLANE))
    out = necessary_dim_check(
        parse_form("(x^3+y^3+z^3)^2-(z^2-4xy)*(xy+yz+zx)^2", PLANE),
        [point(0, 0, 1)],
        prof_dummy.contact_form,
        3,
        3,
    )
    assert not out.passes
    assert out.failures[0]["reason"] == "alpha_exceeds_nodes"


def test_the_detail_names_orbit_sizes_that_cannot_sum_to_alpha():
    # three node orbits of size 4: no union of them has 10, 7 or 6 nodes
    gamma = parse_form(
        "((x+2*y+z)^2-2*(z^2-4*x*y))*((x-y+3*z)^2-3*(z^2-4*x*y))"
        "*((2*x+y-z)^2-5*(z^2-4*x*y))",
        PLANE,
    )
    nodes = singular_points(gamma)
    assert sorted(p.orbit_size() for p in nodes) == [4, 4, 4]
    rep = splitting_type(gamma, delta2(), nodes)
    details = {tuple(e["type"]): (e["reason"], e["detail"]) for e in rep.evidence}
    assert details == {
        (m, n): ("necessary_dim", "no union of node orbits has alpha = %d nodes" % alpha_of(m, n))
        for m, n in ((1, 5), (2, 4), (3, 3))
    }


def test_a_curve_not_certified_irreducible_is_never_non_splitting():
    # pullback(delta) = r^2, so this product splits over QQ(sqrt 2, sqrt 3,
    # sqrt 5) as A sigma(A) with A the product of the L_i + sqrt(e_i) r,
    # though every type fails a condition that holds for an irreducible
    # curve; its 12 nodes are beyond the sextic irreducibility certificate
    gamma = parse_form(
        "((x+2*y+z)^2-2*(z^2-4*x*y))*((x-y+3*z)^2-3*(z^2-4*x*y))"
        "*((2*x+y-z)^2-5*(z^2-4*x*y))",
        PLANE,
    )
    rep = splitting_type(gamma, delta2())
    assert rep.outcome == "undetermined"
    assert [e["reason"] for e in rep.evidence] == ["necessary_dim"] * 3
    assert rep.notes == [
        "every type failed a necessary condition, but the conditions hold only "
        "for an absolutely irreducible curve: no irreducibility certificate "
        "(criterion valid for at most 7 nodes, got 12)"
    ]


def test_the_irreducibility_gap_names_the_missing_certificate():
    gap = splitting._irreducibility_gap
    record = load_example("nonsplit7")
    assert gap(record.curve, record.nodes, 7) is None
    # r < d - 1: two components would meet in at least d - 1 nodes
    quartic = parse_form("(x^2+y^2-z^2)^2-x*y*z^2", PLANE)
    assert gap(quartic, [], 2) is None
    assert "degree 4" in gap(quartic, [point(0, 0, 1)] * 3, 3)
    # five collinear nodes leave room for a line component
    sextic = parse_form("z*(x^5+y^5+z^5)", PLANE)
    line = [point(1, k, 0) for k in range(5)]
    assert gap(sextic, line, 5) == "no irreducibility certificate for degree 6 with 5 nodes"


def _decided_configurations():
    """Normalized configurations of the catalog curves and of three seeded
    7-nodal constructions (a draw that is not a valid input is redrawn)."""
    configs = []
    for example_id in example_ids():
        record = load_example(example_id)
        if record.nodes is not None:
            configs.append(normalize_configuration(record.curve, record.conic, record.nodes))
    rng = rng_for("seven-nodal constructions")
    drawn = rejected = 0
    while drawn < 3:
        try:
            gamma, conic = seven_nodal_construction(rng)
            configs.append(normalize_configuration(gamma, conic, singular_points(gamma)))
            drawn += 1
        except SplitCurvesError:
            rejected += 1
            assert rejected <= 3
    return configs


def test_rank_decisions_match_the_system_solve_oracle():
    criteria = []
    checked = []
    for config in _decided_configurations():
        contact = config.profile.contact_form
        for m in range(1, 4):
            n = config.gamma.degree - m
            if m > n:
                continue
            out = necessary_dim_check(config.gamma, config.nodes, contact, m, n)
            if out.failures and out.failures[0]["reason"] == "alpha_exceeds_nodes":
                continue
            witnesses, failures, kernels = necessary_dim_oracle(
                config.gamma, config.nodes, contact, m, n
            )
            assert (out.witnesses, out.failures) == (witnesses, failures)
            assert out.passes == bool(witnesses)
            assert out.kernels == kernels
        r = sum(p.orbit_size() for p in config.nodes)
        if r <= 7:
            try:
                irreducible = irreducibility_sextic(config.gamma, config.nodes)
            except CannotCertify:
                irreducible = None
            assert irreducible == irreducibility_sextic_oracle(config.gamma, config.nodes)
            checked.append(irreducible)
        rational = all(p.field is None for p in config.nodes)
        if r == 7 and rational and contact.degree == 6:
            crit = criterion_24_7nodal(config.gamma, config.nodes, contact)
            oracle = criterion_24_oracle(config.gamma, config.nodes, contact)
            assert (crit.holds, crit.failed, crit.details) == oracle
            criteria.append(crit.failed)
    # split7-24 and the constructions with seven nodes pass every condition,
    # so (iii-d) ran on all 21 five-subsets; nonsplit7 fails at (iii-b)
    assert criteria.count(None) >= 2 and "iii-b" in criteria
    assert checked and all(checked)


def test_verify_certificate_catalog(gamma6):
    cert = SplitCertificate(
        3, 3, None,
        parse_form("x^3+y^3+z^3", PLANE),
        parse_form("x*y+y*z+z*x", PLANE),
    )
    assert verify_certificate(gamma6, delta2(), cert)


def test_verify_certificate_7nodal():
    c3 = parse_form("y^2*z-3*x*y*z+z^3-x^2*z", PLANE)
    w2 = parse_form("z^2-x*y-y^2+x^2", PLANE)
    gamma = c3 * c3 - delta2() * w2 * w2
    cert = SplitCertificate(3, 3, None, c3, w2)
    assert verify_certificate(gamma, delta2(), cert)


def test_degenerate_certificate_rejected():
    c3 = parse_form("x^3+y^3+z^3", PLANE)
    gamma = c3 * c3
    cert = SplitCertificate(3, 3, None, c3, Form.zero(PLANE, 2))
    assert not verify_certificate(gamma, delta2(), cert)


def test_wrong_identity_rejected(gamma6):
    cert = SplitCertificate(
        3, 3, None,
        parse_form("x^3+y^3+z^3", PLANE),
        parse_form("x*y+y*z+2*z*x", PLANE),
    )
    assert not verify_certificate(gamma6, delta2(), cert)


def test_factor_pullback_product_of_lines():
    f = pullback_curve(parse_form("x", PLANE) * parse_form("y", PLANE))
    factor = factor_pullback(f, 1, 1)
    assert factor is not None and factor.verify(f)
    # A = s*v up to scalar (or its ruling mate t*u)
    assert set(factor.a1.terms) in ({(1, 0)}, {(0, 1)})


def test_factor_pullback_split6(gamma6):
    f = pullback_curve(gamma6)
    factor = factor_pullback(f, 3, 3)
    assert factor is not None and factor.is_rational()
    a = factor.a1
    assert a * involution_biform(a) == f
    expected = pullback_curve(parse_form("x^3+y^3+z^3", PLANE)) + ram_form() * (
        pullback_curve(parse_form("x*y+y*z+z*x", PLANE))
    )
    ratio = _match_scalar(a, expected)
    sigma_ratio = _match_scalar(a, involution_biform(expected))
    assert ratio is not None or sigma_ratio is not None


def test_a_search_factor_is_rescaled_to_its_square_class(gamma6):
    # 12 = 3 * 2^2: A / 2 has A * sigma(A) = 3 F
    f = pullback_curve(gamma6.scale(12))
    factor = factor_pullback(f, 3, 3)
    assert factor.is_rational() and factor.scalar == 3 and factor.verify(f)


def test_certificate_extraction(gamma6):
    f = pullback_curve(gamma6)
    factor = factor_pullback(f, 3, 3)
    cert = certificate_from_factor(gamma6, factor, 3, 3, None)
    assert cert is not None
    assert verify_certificate(gamma6, delta2(), cert)
    assert cert.c_n in (
        parse_form("x^3+y^3+z^3", PLANE),
        -parse_form("x^3+y^3+z^3", PLANE),
    )


def test_the_decision_expands_a_search_factor_once(monkeypatch):
    # _candidate_factor has matched A * sigma(A) against F exactly; the
    # decision takes its factor without expanding the product again
    monkeypatch.setattr(splitting, "linear_route", lambda *_args: None)
    expanded = []
    verify = splitting.PullbackFactor.verify

    def counted(factor, f_pull):
        expanded.append(factor)
        return verify(factor, f_pull)

    monkeypatch.setattr(splitting.PullbackFactor, "verify", counted)
    for example_id in ("split6", "split7-24"):
        record = load_example(example_id)
        rep = splitting_type(record.curve, record.conic, record.nodes)
        assert rep.outcome == "split" and rep.certificate is not None
        assert expanded == []


def test_factor_search_budget(monkeypatch):
    gamma6 = parse_form("(x^3+y^3+z^3)^2-(z^2-4xy)*(xy+yz+zx)^2", PLANE)
    monkeypatch.setattr(splitting, "FACTOR_SEARCH_BUDGET", 0)
    with pytest.raises(SearchBudgetExceeded, match="budget of 0 groupings exhausted"):
        factor_pullback(pullback_curve(gamma6), 3, 3)
    monkeypatch.setattr(splitting, "_SPECIALIZATION_POINTS", [(1, 0), (0, 1)])
    with pytest.raises(SearchBudgetExceeded, match="found 2 nonzero .* of the 4 needed"):
        factor_pullback(pullback_curve(gamma6), 3, 3)


# -- restriction to a line by interpolation, kept as an oracle ---------------


def _restrict_to_line_oracle(f, line):
    """f(s p1 + t p2) as the parent computed it: f evaluated at d + 1
    parameter values, then the Vandermonde system solved."""
    p1, p2 = _line_param(line)
    d = f.degree
    rows = []
    rhs = []
    for i in range(d + 1):
        s0, t0 = QQ(i), ONE
        coords = [s0 * a + t0 * b for a, b in zip(p1, p2)]
        rows.append([s0**k * t0 ** (d - k) for k in range(d + 1)])
        rhs.append(f.eval(coords))
    return BinForm(d, solve_linear(rows, rhs))


def test_restriction_to_a_line_matches_interpolation_oracle():
    rng = rng_for("restrict-line-oracle")
    lines = [parse_form("x", PLANE), parse_form("x - 2y + z", PLANE)]
    lines += [random_form(rng, 1, height=5) for _ in range(6)]
    for line in lines:
        for _ in range(6):
            f = random_form(rng, rng.randint(1, 6))
            assert _restrict_to_line(f, line) == _restrict_to_line_oracle(f, line)
        # a multiple of the line restricts to zero
        assert _restrict_to_line(line * line, line) == BinForm.zero(2)


def test_squarefree_test_agrees_with_the_factorization():
    # products of random binary forms of degree 1 and 2, times t^0, t^1 or
    # t^2, with a repeated factor in some of them
    rng = rng_for("binform-squarefree")
    t = BinForm(1, [QQ(1), QQ(0)])
    seen = set()
    for _ in range(400):
        factors = [
            BinForm(k, [QQ(rng.randint(-4, 4)) for _ in range(k + 1)])
            for k in (rng.choice((1, 2)) for _ in range(rng.randint(1, 3)))
        ]
        if rng.random() < 0.3:
            factors.append(rng.choice(factors))
        factors += [t] * rng.choice((0, 1, 2))
        b = BinForm(0, [QQ(1)])
        for f in factors:
            b = b * f
        if b.is_zero():
            assert not _binform_squarefree(b)
            continue
        expected = all(mult == 1 for _fac, mult in b.factor()[1])
        assert _binform_squarefree(b) == expected
        seen.add((b.t_multiplicity(), expected))
    assert {(0, True), (0, False), (1, True), (1, False), (2, False)} <= seen


def test_factor_pullback_extension_case():
    # gamma = l^2 - 2*delta splits only over QQ(sqrt(2)), as
    # A = pullback(l) + sqrt(2) * r: the search looks over QQ alone.  l is
    # tangent to the conic here, so the decision refuses gamma (its contact
    # is not simple); tests/test_route.py decides the same splitting for
    # lines that are not tangent
    line = parse_form("x+y+z", PLANE)
    gamma = line * line - delta2().scale(2)
    assert factor_pullback(pullback_curve(gamma), 1, 1) is None


@pytest.mark.parametrize(
    "square, e",
    [
        # specialized at (1 : 0) the pullback is rational (s^2), elsewhere an
        # irreducible quadratic
        ("x^2", 3),
        ("(x+y+z)^2", 11),
    ],
)
def test_factor_pullback_over_the_field_the_specializations_name(square, e):
    # gamma = l^2 - e*delta splits only over QQ(sqrt(e)), which the search
    # does not try; l is tangent to the conic (see the test above)
    gamma = parse_form(square, PLANE) - delta2().scale(e)
    assert factor_pullback(pullback_curve(gamma), 1, 1) is None


def _perfbench_kinds(rng):
    """One curve of each split kind of the benchmark's factor-search
    workload: c3^2 - delta c2^2, the syzygetic (2, 4) construction, and
    c3^2 - e delta c2^2 for a non-square e."""
    x, y, z = (Form.variable(PLANE, v) for v in PLANE)
    c3, c2 = random_form(rng, 3, height=4), random_form(rng, 2, height=4)
    a2, b2, q2 = (random_form(rng, 2, height=3) for _ in range(3))
    g3 = z * q2 - (x * b2).scale(2) - (y * a2).scale(2)
    e = rng.choice((-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10))
    d3, d2 = random_form(rng, 3, height=4), random_form(rng, 2, height=4)
    return [
        ("split33", c3 * c3 - delta2() * c2 * c2, 3, 3),
        ("split24", g3 * g3 - delta2() * (q2 * q2 - (a2 * b2).scale(4)), 2, 4),
        ("split33_ext", d3 * d3 - (delta2() * d2 * d2).scale(e), 3, 3),
    ]


def test_the_search_returns_rational_factors_on_the_benchmark_kinds():
    rng = rng_for("benchmark split kinds")
    found = {}
    for _ in range(3):
        for kind, gamma, m, n in _perfbench_kinds(rng):
            f = pullback_curve(gamma)
            factor = factor_pullback(f, m, n)
            if factor is not None:
                assert factor.a2 is None and factor.verify(f)
                assert factor.bidegree == (m, n)
            found[kind] = found.get(kind, 0) + (factor is not None)
    assert found == {"split33": 3, "split24": 3, "split33_ext": 0}


def test_factor_pullback_extension_beyond_quadratic_fibers_is_best_effort():
    # here every specialized fiber is an irreducible quartic over QQ whose
    # extension factors have degree two; splitting those is out of scope,
    # so the search reports absence rather than guessing
    c2 = parse_form("x^2+y^2+z^2", PLANE)
    line = parse_form("x+y+z", PLANE)
    gamma = c2 * c2 - (delta2() * line * line).scale(2)
    f = pullback_curve(gamma)
    assert factor_pullback(f, 2, 2) is None


def test_splitting_type_rejects_singular_branch_conic(gamma6):
    with pytest.raises(ConicNotSmooth):
        splitting_type(gamma6, parse_form("x^2-y^2", PLANE), [])


def test_criterion_24_on_both_7nodal_configurations(gamma7_prime, gamma7_prime_nodes):
    # the syzygetic projection satisfies the criterion
    f1 = parse_form("x*w-y^2+z^2", ("x", "y", "z", "w"))
    f2 = parse_form("y*w-x^2+z^2", ("x", "y", "z", "w"))
    f3 = parse_form("z*w-x^2+y^2", ("x", "y", "z", "w"))
    from splitcurves.quartics import QuarticSurface, project_quartic

    surf = QuarticSurface.from_raw(f3 * f3 - (f1 * f2).scale(4), point(0, 0, 0, 1))
    gamma_x, delta_x, _ = project_quartic(surf, check_contact=False)
    assert delta_x == delta2()
    nodes = [
        point(0, 1, 1), point(-1, 0, 1), point(1, 1, 0), point(1, 1, 1),
        point(-1, 1, 1), point(1, -1, 1), point(1, 1, -1),
    ]
    prof = _profile_for(gamma_x)
    crit = criterion_24_7nodal(gamma_x, nodes, prof.contact_form)
    assert crit.holds

    # the non-splitting curve fails exactly at the dimension condition
    gamma, conic = gamma7_prime
    config = normalize_configuration(gamma, conic, gamma7_prime_nodes)
    crit = criterion_24_7nodal(
        config.gamma, config.nodes, config.profile.contact_form
    )
    assert not crit.holds and crit.failed == "iii-b"
    assert crit.details["quartic_dimension"] == 1


def test_criterion_24_conic_through_all_seven(gamma6):
    # seven points on a smooth conic trip condition (iii-a) immediately
    pts = []
    k = 0
    while len(pts) < 7:
        s, t = QQ(1), QQ(k)
        p = param_point(delta2_param(), s, t)
        pts.append(p)
        k += 1
    prof = _profile_for(gamma6)
    crit = criterion_24_7nodal(gamma6, pts, prof.contact_form)
    assert not crit.holds and crit.failed == "iii-a"


def test_criterion_24_node_count():
    prof = _profile_for(parse_form("(x^3+y^3+z^3)^2-(z^2-4xy)*(xy+yz+zx)^2", PLANE))
    with pytest.raises(WrongNodeCount):
        criterion_24_7nodal(
            parse_form("(x^3+y^3+z^3)^2-(z^2-4xy)*(xy+yz+zx)^2", PLANE),
            [point(0, 0, 1)],
            prof.contact_form,
        )


def test_splitting_type_registry_outcomes(
    gamma6, gamma6_orbit, gamma6_prime, gamma6_prime_nodes,
    gamma7_prime, gamma7_prime_nodes,
):
    rep = splitting_type(gamma6, delta2(), [gamma6_orbit])
    assert rep.outcome == "split" and (rep.m, rep.n) == (3, 3)
    assert rep.certificate is not None
    assert rep.factor.verify(pullback_curve(gamma6))

    rep = splitting_type(gamma6_prime, delta2(), gamma6_prime_nodes)
    assert rep.outcome == "non_splitting"
    reasons = {tuple(e["type"]): e["reason"] for e in rep.evidence}
    assert reasons == {
        (1, 5): "node_bound",
        (2, 4): "node_bound",
        (3, 3): "necessary_dim",
    }

    gamma, conic = gamma7_prime
    rep = splitting_type(gamma, conic, gamma7_prime_nodes)
    assert rep.outcome == "non_splitting"


def test_certificate_extraction_with_tangent_line():
    # type (2,4): k = 2, so the certificate carries a tangent line and the
    # identity gamma * l^2 = c_4^2 - delta * c_3^2 must hold exactly
    from splitcurves.registry import load_example

    record = load_example("split7-24")
    rep = splitting_type(record.curve, record.conic, record.nodes)
    assert rep.outcome == "split" and (rep.m, rep.n) == (2, 4)
    cert = rep.certificate
    assert cert is not None and cert.line is not None
    assert cert.c_n.degree == 4 and cert.c_n1.degree == 3
    assert verify_certificate(record.curve, delta2(), cert)
    lhs = record.curve * cert.line * cert.line
    rhs = cert.c_n * cert.c_n - delta2() * cert.c_n1 * cert.c_n1
    assert lhs == rhs


def test_rescaled_catalog_curves_carry_a_scaled_certificate():
    # the factor of c * gamma has A * sigma(A) = s * F with s = c times a
    # square; the decision rescales A so that s is its square class, c
    # itself here, and no rational rescaling of A removes a non-square s: the
    # certificate states s * gamma * l^k = c_n^2 - delta * c_(n-1)^2
    scales = {
        ("split6", 3): 3,
        ("split6", -1): -1,
        ("split7-33", 3): 3,
        ("split7-33", -1): -1,
        ("split7-24", 3): 3,
        ("split7-24", -1): -1,
    }
    for (example_id, c), scale in scales.items():
        record = load_example(example_id)
        gamma = record.curve.scale(c)
        rep = splitting_type(gamma, record.conic, record.nodes)
        cert = rep.certificate
        assert rep.outcome == "split" and cert is not None
        assert cert.scale == rep.factor.scalar == scale
        assert certificate_payload(cert)["scale"] == str(scale)
        gamma_n = normalize_configuration(gamma, record.conic, record.nodes).gamma
        assert verify_certificate(gamma_n, delta2(), cert)
        unscaled = SplitCertificate(cert.m, cert.n, cert.line, cert.c_n, cert.c_n1)
        assert not verify_certificate(gamma_n, delta2(), unscaled)
        expo = min(cert.c_n.terms)
        changed = cert.c_n + Form.monomial(PLANE, expo)
        wrong = SplitCertificate(cert.m, cert.n, cert.line, changed, cert.c_n1, cert.scale)
        assert not verify_certificate(gamma_n, delta2(), wrong)
    # the unscaled curve's certificate has scale 1, which the payload omits,
    # and fails with any other scale
    record = load_example("split6")
    cert = splitting_type(record.curve, record.conic, record.nodes).certificate
    assert cert.scale == 1 and "scale" not in certificate_payload(cert)
    gamma_n = normalize_configuration(record.curve, record.conic, record.nodes).gamma
    rescaled = SplitCertificate(3, 3, None, cert.c_n, cert.c_n1, QQ(3))
    assert not verify_certificate(gamma_n, delta2(), rescaled)


def test_split_positive_satisfies_node_bound(gamma6, gamma6_orbit):
    rep = splitting_type(gamma6, delta2(), [gamma6_orbit])
    r = gamma6_orbit.orbit_size()
    assert node_bound_filter(r, rep.m, rep.n, 6)


def test_intersection_accounting():
    for m, n in ((3, 3), (2, 4), (1, 5)):
        assert 2 * alpha_of(m, n) + (m + n) == m * m + n * n


@pytest.mark.parametrize("example_id", example_ids())
def test_splitting_type_computes_the_catalog_nodes(example_id):
    record = load_example(example_id)
    nodes = singular_points(record.curve)
    assert sorted(p.orbit_size() for p in nodes) == sorted(
        p.orbit_size() for p in record.nodes
    )
    rational = lambda pts: {p.canonical_key() for p in pts if p.field is None}
    assert rational(nodes) == rational(record.nodes)
    assert singular_locus_complete(record.curve, nodes)
    rep = splitting_type(record.curve, record.conic)
    assert [p.canonical_key() for p in rep.nodes] == [p.canonical_key() for p in nodes]
    claim = record.claim
    assert rep.outcome == claim["outcome"]
    if claim["outcome"] == "split":
        assert [rep.m, rep.n] == claim["type"]
    for label, reason in claim.get("exclusions", {}).items():
        entry = next(e for e in rep.evidence if "(%d,%d)" % e["type"] == label)
        assert (entry["status"], entry["reason"]) == ("excluded", reason)


def _parent_is_tangent(line, conic):
    """The parent's tangency test, kept as an oracle: the line restricted to
    a rational parametrization of the conic has a double root."""
    from splitcurves.conics import rational_parametrization, restrict_to_conic

    restr = restrict_to_conic(line, rational_parametrization(conic))
    disc = restr.coeffs[1] ** 2 - 4 * restr.coeffs[0] * restr.coeffs[2]
    return not restr.is_zero() and disc == 0


def _passes_tangency(line, conic):
    """Whether verify_certificate takes the line as tangent to the conic."""
    cert = SplitCertificate(
        1, 3, line, parse_form("x^3 + y^2*z", PLANE), parse_form("x*y - z^2", PLANE)
    )
    try:
        verify_certificate(parse_form("x^4 + y^4 - z^4", PLANE), conic, cert)
    except NotTangentLine as exc:
        return "not tangent" not in str(exc)
    return True


def test_tangency_in_closed_form_matches_the_parametrization_test():
    from splitcurves.conics import conic_matrix, rational_parametrization

    rng = rng_for("closed-form tangency")
    conics = [
        delta2(),
        parse_form("x^2 + y^2 - z^2", PLANE),
        compose_form(delta2(), [[1, 2, 0], [-1, 1, 3], [2, 0, 1]]),
    ]
    tangent = 0
    for conic in conics:
        param = rational_parametrization(conic)
        a = conic_matrix(conic)
        lines = []
        for _ in range(12):
            s, t = rng.randint(-4, 4), rng.randint(-4, 4)
            if (s, t) == (0, 0):
                continue
            # the tangent line at a point P of the conic has coefficients A P
            p = param_point(param, QQ(s), QQ(t)).coords
            vec = [sum(r * x for r, x in zip(row, p)) for row in a]
            lines.append(Form(PLANE, 1, dict(zip(monomial_basis(3, 1), vec))))
            lines.append(random_form(rng, 1, height=5))
        for line in lines:
            expected = _parent_is_tangent(line, conic)
            tangent += expected
            assert _passes_tangency(line, conic) == expected
    assert 20 <= tangent < 3 * 24


def test_no_rational_line_is_tangent_to_a_conic_without_rational_points():
    conic = parse_form("x^2 + y^2 + z^2", PLANE)
    for text in ("x", "x + y", "x - 3*y + 2*z"):
        assert not _passes_tangency(parse_form(text, PLANE), conic)
    with pytest.raises(ConicNotSmooth, match=r"the conic x\*y is not smooth"):
        _passes_tangency(parse_form("x", PLANE), parse_form("x*y", PLANE))


def test_tangent_line_pick_is_settled_within_the_degree_bound():
    from splitcurves.cover import tangent_line
    from splitcurves.splitting import _pick_tangent_line

    # the first 21 tangent lines are components of the curve, so not transversal
    gamma = tangent_line(1, 0)[0]
    for j in range(1, 21):
        gamma = gamma * tangent_line(1, j)[0]
    line, l = _pick_tangent_line(gamma)
    assert (line, l) == tangent_line(1, 21)
    # a multiple component meets every line twice: the bound is reached
    with pytest.raises(NotTangentLine, match="j = 0..12.*multiple component"):
        _pick_tangent_line(parse_form("(x - y)^2*z", PLANE))


# -- the consistency system in all unknowns, kept as an oracle ----------------


def _consistency_rows_oracle(m, n, specs, gs, hs):
    """The parent's system: rows in the (m+1)(n+1) coefficients of A and the
    2(n+1) scalars."""
    na = (m + 1) * (n + 1)
    nl = len(specs)
    ncols = na + 2 * nl
    off_lambda = na
    off_mu = off_lambda + nl
    rows = []
    for kk, (u0, v0, _b) in enumerate(specs):
        upow_n = [u0**j * v0 ** (n - j) for j in range(n + 1)]
        upow_m = [u0**i * v0 ** (m - i) for i in range(m + 1)]
        by_g = [
            [(i * (n + 1) + j, upow_n[j]) for j in range(n + 1)] for i in range(m + 1)
        ]
        by_h = [
            [(i * (n + 1) + j, upow_m[i]) for i in range(m + 1)] for j in range(n + 1)
        ]
        for cells, coeffs, off in (
            (by_g, gs[kk].coeffs, off_lambda),
            (by_h, hs[kk].coeffs, off_mu),
        ):
            for c, a_cells in enumerate(cells):
                row = [QQ(0)] * ncols
                for col, val in a_cells:
                    row[col] = val
                row[off + kk] = -coeffs[c]
                rows.append(row)
    return rows, ncols


def _grouping_kernels(f_pull, m, n, limit):
    """(kernel, oracle kernel) for the first ``limit`` groupings of the
    factor search; each listed divisor times its listed cofactor must give
    its specialization back."""
    specs = splitting._specializations(f_pull, n)
    interp = splitting._interpolation_matrix(n, specs)
    pair_lists = [splitting._degree_m_divisors(b, b.factor()[1], m) for _u, _v, b in specs]
    for (_u, _v, b), pairs in zip(specs, pair_lists):
        for g, h in pairs:
            assert g * h == b
    for combo in itertools.islice(itertools.product(*pair_lists), limit):
        gs = [g for g, _h in combo]
        hs = [h for _g, h in combo]
        rows, ncols = _consistency_rows_oracle(m, n, specs, gs, hs)
        kern = splitting._grouping_kernel(m, n, specs, interp, gs, hs)
        yield kern, kernel_basis(rows, ncols)


def _random_biform(rng, bidegree):
    d1, d2 = bidegree
    return BiForm(
        bidegree,
        {(i, j): QQ(rng.randint(-2, 2)) for i in range(d1 + 1) for j in range(d2 + 1)},
    )


def _split_pullbacks(rng, m, n):
    """Pullbacks A * sigma(A) for random A of bidegree (m, n), A also a
    product with a factor of bidegree (1, 0), (0, 1) or (1, 1)."""
    out = []
    for piece in ((0, 0), (1, 0), (0, 1), (1, 1)):
        if piece[0] > m or piece[1] > n:
            continue
        rest = _random_biform(rng, (m - piece[0], n - piece[1]))
        a = rest * _random_biform(rng, piece) if piece != (0, 0) else rest
        if not a.is_zero():
            out.append(a * involution_biform(a))
    return out


def test_reduced_consistency_system_has_the_oracle_kernel():
    rng = rng_for("consistency-kernel-oracle")
    cases = [(f, m, n) for m, n in ((1, 5), (2, 4), (3, 3)) for f in _split_pullbacks(rng, m, n)]
    # plane curves split by construction: c3^2 - delta c2^2 and a syzygetic (2, 4)
    for _ in range(2):
        c3, c2 = random_form(rng, 3, height=3), random_form(rng, 2, height=3)
        cases.append((pullback_curve(c3 * c3 - delta2() * c2 * c2), 3, 3))
    # pullbacks of squares, l^2 at (1, 1) and l1^2 l2^2 at (2, 2): for these
    # lines some of their grouping kernels are planes
    for text in ("z", "x+y", "x-y", "2x+y"):
        line = parse_form(text, PLANE)
        cases.append((pullback_curve(line * line), 1, 1))
    l2 = parse_form("x+2y-z", PLANE)
    for text in ("x+y", "x-y", "2x+y", "x+2y"):
        l1 = parse_form(text, PLANE)
        cases.append((pullback_curve(l1 * l1 * l2 * l2), 2, 2))
    seen = {"groupings": 0, "dim2": 0, "types": set()}
    for f, m, n in cases:
        for kern, expected in _grouping_kernels(f, m, n, limit=6):
            assert kern == expected
            seen["groupings"] += 1
            seen["dim2"] += len(kern) >= 2
            seen["types"].add((m, n))
    assert seen["types"] == {(1, 5), (2, 4), (3, 3), (1, 1), (2, 2)}
    assert seen["groupings"] >= 100 and seen["dim2"] >= 4, seen


def test_lifted_kernel_basis_is_the_full_kernel_basis():
    # a system [I | -L; 0 | R] in (a, x) forces a = L x, so its kernel is the
    # lift x -> (L x, x) of the kernel of R: lifting kernel_basis(R) and making
    # each vector primitive gives kernel_basis of the whole system
    rng = rng_for("lifted-kernel-basis")
    dims = set()
    for _ in range(80):
        nx, na = rng.randint(3, 9), rng.randint(1, 6)
        rank = rng.randint(max(1, nx - 5), nx - 2)
        left = [[QQ(rng.randint(-3, 3)) for _ in range(rank)] for _ in range(rank + 2)]
        right = [[random_rat(rng, 4) for _ in range(nx)] for _ in range(rank)]
        r_rows = [
            [sum((a * b for a, b in zip(row, col)), QQ(0)) for col in zip(*right)]
            for row in left
        ]
        lmat = [[random_rat(rng, 4) if rng.random() < 0.7 else QQ(0) for _ in range(nx)] for _ in range(na)]
        full = [
            [QQ(int(i == j)) for j in range(na)] + [-c for c in lrow]
            for i, lrow in enumerate(lmat)
        ] + [[QQ(0)] * na + row for row in r_rows]
        reduced = kernel_basis(r_rows, nx)
        lifted = [
            primitive_vector(
                [sum((c * x for c, x in zip(lrow, v)), QQ(0)) for lrow in lmat] + v
            )
            for v in reduced
        ]
        assert lifted == kernel_basis(full, na + nx)
        dims.add(len(reduced))
    assert {2, 3, 4, 5} <= dims
