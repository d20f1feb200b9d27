"""The linear route: type (m, n) read off an exact witness's degree-n system.

Every input is built from a fixed seed (``rng_for``), so the suite is the
same under every ``PYTHONHASHSEED``; CI runs this file under two of them,
because the orientation rule and the square root must not depend on dict or
set order.
"""

import pytest

from splitcurves import splitting
from splitcurves.conics import delta2
from splitcurves.errors import SplitCurvesError
from splitcurves.forms import Form, biform_to_str, point
from splitcurves.linsys import FormSpace, cond_point, system_solve
from splitcurves.registry import load_example
from splitcurves.reports import certificate_payload
from splitcurves.splitting import (
    SplitCertificate,
    normalize_configuration,
    splitting_type,
    verify_certificate,
)

from conftest import PLANE, random_form, rng_for

X, Y, Z = (Form.variable(PLANE, v) for v in PLANE)


@pytest.fixture
def no_search(monkeypatch):
    """Make the grouping search fail loudly: a verdict must come from the route."""

    def refuse(*_args):
        raise AssertionError("the grouping search ran")

    monkeypatch.setattr(splitting, "factor_pullback", refuse)


def _without_route(monkeypatch):
    monkeypatch.setattr(splitting, "linear_route", lambda *_args: None)


def _six_node_curve(rng, e):
    """c3^2 - e delta c2^2 with c2 = xz - y^2 + a xy and six rational nodes
    (1 : t : t^2 - a t) on c2, c3 a seeded member of the cubics through them.

    t = 0 and the t with (t^2 - a t)^2 = 4t are skipped: they put a node on
    the conic z^2 - 4xy.
    """
    a = rng.randint(-3, 3)
    ts = rng.sample(
        [t for t in range(-6, 7) if t != 0 and (t * t - a * t) ** 2 != 4 * t], 6
    )
    c2 = X * Z - Y * Y + (X * Y).scale(a)
    nodes = [point(1, t, t * t - a * t) for t in ts]
    space = FormSpace(3, PLANE)
    rep = system_solve(space, [r for p in nodes for r in cond_point(space, p)])
    c3 = Form.zero(PLANE, 3)
    for member in rep.kernel:
        c3 = c3 + member.scale(rng.randint(-3, 3))
    return c3 * c3 - (delta2() * c2 * c2).scale(e), nodes


def _accepted(make, count):
    """The first ``count`` draws that ``splitting_type`` accepts, with their
    reports.  A rejected draw (a multiple component, a singular point that
    is not a node) is not a valid input; it is redrawn, and at most as many
    redraws as accepted draws are allowed."""
    out = []
    rejected = 0
    while len(out) < count:
        gamma, nodes = make()
        try:
            out.append((gamma, nodes, splitting_type(gamma, delta2(), nodes)))
        except SplitCurvesError:
            rejected += 1
            assert rejected <= count
    return out


@pytest.mark.parametrize("e", [1, 3, -7, 2])
def test_six_rational_node_family_splits_over_its_field(e, no_search):
    rng = rng_for("six rational nodes %d" % e)
    for gamma, nodes, rep in _accepted(lambda: _six_node_curve(rng, e), 3):
        assert rep.outcome == "split" and (rep.m, rep.n) == (3, 3)
        cert = rep.certificate
        assert cert is not None and cert.e == e
        gamma_n = normalize_configuration(gamma, delta2(), nodes).gamma
        assert verify_certificate(gamma_n, delta2(), cert)
        assert rep.factor.verify(splitting.pullback_curve(gamma_n))
        payload = certificate_payload(cert)
        if e == 1:
            assert rep.factor.is_rational() and "e" not in payload
        else:
            assert rep.factor.ext == e and payload["e"] == e
            assert rep.factor.scalar == cert.scale and rep.factor.scalar_surd == 0


def test_the_search_leaves_the_field_splittings_undetermined(monkeypatch):
    # the route decides what the search alone does not
    _without_route(monkeypatch)
    rng = rng_for("six rational nodes 3")
    for _gamma, _nodes, rep in _accepted(lambda: _six_node_curve(rng, 3), 3):
        assert rep.outcome == "undetermined"


def _quartic_13(rng):
    """(c3^2 - delta c2^2) / y^2 with c2 = z b + y q and
    c3 = z^2 b + y (z q - 2 x b) + y^2 r, b, q, r seeded linear forms: a
    quartic of type (1, 3), y = 0 being the tangent line at (1 : 0 : 0)."""
    b, q, r = (random_form(rng, 1, height=3) for _ in range(3))
    c2 = Z * b + Y * q
    c3 = Z * Z * b + Y * (Z * q - (X * b).scale(2)) + Y * Y * r
    num = c3 * c3 - delta2() * c2 * c2
    assert all(expo[1] >= 2 for expo in num.terms)
    return Form(PLANE, 4, {(i, j - 2, k): c for (i, j, k), c in num.terms.items()}), None


def test_k_positive_splits_come_from_the_route(no_search):
    record = load_example("split7-24")
    rep = splitting_type(record.curve, record.conic, record.nodes)
    assert rep.outcome == "split" and (rep.m, rep.n) == (2, 4)
    assert rep.certificate.e == 1 and rep.certificate.line is not None
    rng = rng_for("quartic (1,3)")
    for gamma, _nodes, rep in _accepted(lambda: _quartic_13(rng), 3):
        assert rep.outcome == "split" and (rep.m, rep.n) == (1, 3)
        cert = rep.certificate
        assert cert.e == 1 and cert.line is not None
        gamma_n = normalize_configuration(gamma, delta2(), rep.nodes).gamma
        assert verify_certificate(gamma_n, delta2(), cert)


def test_the_factor_path_reads_the_route_certificate_off_its_factor(monkeypatch):
    # the route builds its e = 1 certificate itself; certificate_from_factor,
    # which the search's rational factors still take, is its oracle
    calls = []
    route = splitting.linear_route

    def recorded(*args):
        found = route(*args)
        calls.append((args, found))
        return found

    monkeypatch.setattr(splitting, "linear_route", recorded)
    reports = []
    for example_id in ("split6", "split7-33", "split7-24"):
        record = load_example(example_id)
        for c in (1, 3, -1):
            gamma = record.curve.scale(c)
            reports.append(splitting_type(gamma, record.conic, record.nodes))
    for name, make in (
        ("six rational nodes 1", lambda rng: _six_node_curve(rng, 1)),
        ("quartic (1,3)", _quartic_13),
    ):
        rng = rng_for(name)
        reports.extend(rep for _g, _n, rep in _accepted(lambda: make(rng), 3))
    routed = [(args, found) for args, found in calls if found is not None]
    assert len(routed) == len(reports) == 15
    for rep, (args, (factor, cert)) in zip(reports, routed):
        assert rep.outcome == "split" and rep.certificate is cert
        assert cert is not None and cert.e == 1 and factor.is_rational()
        gamma, _f_pull, _kernel, m, n, tangent = args
        oracle = splitting.certificate_from_factor(gamma, factor, m, n, tangent)
        assert oracle is not None
        assert certificate_payload(cert) == certificate_payload(oracle)


def test_one_tangent_line_per_curve(monkeypatch):
    picked = []
    pick = splitting._pick_tangent_line

    def counted(gamma):
        picked.append(gamma)
        return pick(gamma)

    monkeypatch.setattr(splitting, "_pick_tangent_line", counted)
    for example_id, count in (("split6", 0), ("split7-33", 1), ("split7-24", 1)):
        record = load_example(example_id)
        splitting_type(record.curve, record.conic, record.nodes)
        assert len(picked) == count
        del picked[:]


def _split33(rng):
    c3, c2 = random_form(rng, 3, height=4), random_form(rng, 2, height=4)
    return c3 * c3 - delta2() * c2 * c2, None


def _split24(rng):
    """The syzygetic construction: g3^2 - delta g4 splits as (2, 4)."""
    a2, b2, c2 = (random_form(rng, 2, height=3) for _ in range(3))
    g3 = Z * c2 - (X * b2).scale(2) - (Y * a2).scale(2)
    g4 = c2 * c2 - (a2 * b2).scale(4)
    return g3 * g3 - delta2() * g4, None


@pytest.mark.parametrize("make", [_split33, _split24])
@pytest.mark.parametrize("rescale", [1, 3])
def test_the_search_is_the_oracle_where_it_finds_a_factor(monkeypatch, make, rescale):
    rng = rng_for("route oracle %s %d" % (make.__name__, rescale))

    def draw():
        gamma, _ = make(rng)
        return gamma.scale(rescale), None

    compared = 0
    for gamma, _nodes, rep in _accepted(draw, 3):
        with monkeypatch.context() as patch:
            _without_route(patch)
            searched = splitting_type(gamma, delta2(), rep.nodes)
        if searched.outcome != "split":
            continue
        compared += 1
        assert (rep.outcome, rep.m, rep.n) == ("split", searched.m, searched.n)
        if rep.certificate.e == 1:
            assert biform_to_str(rep.factor.a1) == biform_to_str(searched.factor.a1)
            assert rep.factor.scalar == searched.factor.scalar == rescale
            assert certificate_payload(rep.certificate) == certificate_payload(
                searched.certificate
            )
    assert compared >= 2


def test_mutated_certificates_fail():
    record = load_example("split7-24")
    gamma, nodes = _six_node_curve(rng_for("mutated certificates"), -7)
    for gamma, conic, nodes in (
        (record.curve, record.conic, record.nodes),
        (gamma, delta2(), nodes),
    ):
        cert = splitting_type(gamma, conic, nodes).certificate
        gamma_n = normalize_configuration(gamma, conic, nodes).gamma
        assert verify_certificate(gamma_n, delta2(), cert)
        parts = (cert.m, cert.n, cert.line, cert.c_n)
        off = cert.c_n1 + Form.monomial(PLANE, max(cert.c_n1.terms))
        mutants = [
            SplitCertificate(*parts, cert.c_n1, cert.scale * 2, cert.e),  # mu changed
            SplitCertificate(*parts, cert.c_n1, cert.scale, -cert.e),  # e flipped
            SplitCertificate(*parts, off, cert.scale, cert.e),  # one coefficient off
        ]
        for mutant in mutants:
            assert not verify_certificate(gamma_n, delta2(), mutant)


def test_exact_witnesses_keep_their_kernel_outside_the_evidence():
    for example_id, (m, n), sizes in (
        ("split6", (3, 3), [1]),
        ("split7-33", (2, 4), [3]),
        ("split7-24", (2, 4), [3]),
    ):
        record = load_example(example_id)
        config = normalize_configuration(record.curve, record.conic, record.nodes)
        nec = splitting.necessary_dim_check(
            config.gamma, config.nodes, config.profile.contact_form, m, n
        )
        assert [len(kernel) for kernel in nec.kernels] == sizes
        assert all(set(w) == {"subset", "dim_n", "dim_n1"} for w in nec.witnesses)
        assert all(f.degree == n for kernel in nec.kernels for f in kernel)
    # for k = 0 the kernel vector is c_n itself, up to a constant
    record = load_example("split6")
    config = normalize_configuration(record.curve, record.conic, record.nodes)
    nec = splitting.necessary_dim_check(
        config.gamma, config.nodes, config.profile.contact_form, 3, 3
    )
    cert = splitting_type(record.curve, record.conic, record.nodes).certificate
    assert splitting._match_scalar(nec.kernels[0][0], cert.c_n) is not None


def test_a_field_splitting_prints_the_same_certificate_under_every_hash_seed():
    # pinned bytes: CI runs this file under two PYTHONHASHSEED values
    rng = rng_for("pinned field payload")
    ((_gamma, _nodes, rep),) = _accepted(lambda: _six_node_curve(rng, 3), 1)
    assert certificate_payload(rep.certificate) == {
        "c_n": "1800*x^3 - 573*x^2*y + 109*x^2*z - 3*x*y^2 + 59*x*y*z - 39*x*z^2"
        " - 2*y^3 + y^2*z + z^3",
        "c_n1": "3*x*y + x*z - y^2",
        "line": None,
        "e": 3,
    }
    assert rep.factor.scalar == 1 and biform_to_str(rep.factor.a2) == (
        "s^3*u*v^2 + 3*s^2*t*u*v^2 - s*t^2*u^3 - 3*s*t^2*u^2*v - s*t^2*v^3 + t^3*u*v^2"
    )
