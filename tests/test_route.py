"""The linear route: type (m, n) read off an exact witness's degree-n system.

Every input is built from a fixed seed (``rng_for``), so the suite is the
same under every ``PYTHONHASHSEED``; CI runs this file under two of them,
because the orientation rule and the square root must not depend on dict or
set order.
"""

import json

import pytest

from splitcurves import splitting
from splitcurves.arith import BinForm, binform_quotient
from splitcurves.cli import main
from splitcurves.conics import delta2
from splitcurves.cover import descend, pullback_curve, ram_form
from splitcurves.errors import SplitCurvesError
from splitcurves.forms import BiForm, Form, biform_to_str, parse_form, point
from splitcurves.linsys import FormSpace, cond_point, system_solve
from splitcurves.registry import load_example
from splitcurves.reports import certificate_payload
from splitcurves.splitting import (
    SplitCertificate,
    factor_pullback,
    normalize_configuration,
    splitting_type,
    verify_certificate,
)

from conftest import PLANE, divide_by_ram_oracle, random_form, rng_for

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
            assert rep.factor.scalar == cert.scale


# l^2 - e delta for a line l that is not tangent to the conic: the conic
# touches the curve at the two points where l meets it, and the pullback is
# L^2 - e r^2 = (L - sqrt(e) r)(L + sqrt(e) r), L the pullback of l and
# r = sv - tu: type (1, 1), with c_(n-1) a constant.
@pytest.mark.parametrize(
    "line, e",
    [
        ("x-y+3*z", 11),
        ("x-y+3*z", 1),
        ("x-y+3*z", -7),
        ("x+2*y-z", 2),
        ("x+2*y-z", 3),
    ],
)
def test_a_conic_touching_a_conic_twice_splits_over_its_field(line, e, no_search):
    l = parse_form(line, PLANE)
    gamma = l * l - delta2().scale(e)
    rep = splitting_type(gamma, delta2())
    assert rep.outcome == "split" and (rep.m, rep.n) == (1, 1)
    cert = rep.certificate
    assert cert.e == e and cert.scale == 1 and cert.c_n1.degree == 0
    assert verify_certificate(gamma, delta2(), cert)
    f_pull = pullback_curve(gamma)
    assert rep.factor.verify(f_pull)
    if e == 1:
        assert rep.factor.is_rational()
    else:
        assert rep.factor.ext == e and certificate_payload(cert)["e"] == e
        # no rational factor exists, so the search finds none
        assert factor_pullback(f_pull, 1, 1) is None


def test_split_type_decides_a_conic_with_two_tangency_points(capsys):
    code = main(["split-type", "--curve", "(x-y+3*z)^2 - 11*(z^2-4*x*y)",
                 "--conic", "z^2-4*x*y", "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["outcome"], out["type"]) == ("split", [1, 1])
    assert out["certificate"] == {"c_n": "x - y + 3*z", "c_n1": "1", "e": 11, "line": None}


def test_a_field_factor_is_rescaled_to_its_square_class(no_search):
    # 12 (l^2 - 3 delta): 3 * 12 (l^2 - 3 delta) = (6 l)^2 - 3 delta 6^2, and
    # 12 = 3 * 2^2 is not a square, so the scale is 3
    l = parse_form("x-y+3*z", PLANE)
    gamma = (l * l - delta2().scale(3)).scale(12)
    rep = splitting_type(gamma, delta2())
    cert = rep.certificate
    assert (rep.outcome, cert.e, cert.scale, rep.factor.scalar) == ("split", 3, 3, 3)
    assert rep.factor.ext == 3 and rep.factor.verify(pullback_curve(gamma))
    assert verify_certificate(gamma, delta2(), cert)


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


# The parent's divisions, kept as oracles: the ruling divided out of each
# column (u^j v^(d2 - j)) by ``binform_quotient``, and R / delta as the
# pullback of R divided twice by r = sv - tu, then descended.


def _divide_by_ruling_oracle(b, lk):
    if lk.degree == 0:
        return b.scale(1 / lk.coeffs[0])
    d1, d2 = b.bidegree
    w = d2 + 1
    columns = []
    for j in range(w):
        q = binform_quotient(BinForm(d1, b.coeffs[j::w]), lk)
        if q is None:
            return None
        columns.append(q.coeffs)
    return BiForm(
        (d1 - lk.degree, d2),
        {(i, j): c for j, column in enumerate(columns) for i, c in enumerate(column)},
    )


def _r_over_delta_oracle(r_form):
    pulled = divide_by_ram_oracle(pullback_curve(r_form))
    pulled = None if pulled is None else divide_by_ram_oracle(pulled)
    return None if pulled is None else descend(pulled, r_form.variables)


def test_the_route_divisions_match_the_parent_paths(monkeypatch):
    plane, biform = [], []
    divide_terms, divide_biform = splitting.quotient_terms, BiForm.quotient

    def plane_recorded(f, g):
        q = divide_terms(f, g)
        plane.append((f, g, q))
        return q

    def biform_recorded(b, g):
        q = divide_biform(b, g)
        biform.append((b, g, q))
        return q

    monkeypatch.setattr(splitting, "quotient_terms", plane_recorded)
    monkeypatch.setattr(BiForm, "quotient", biform_recorded)
    reports = []
    for example_id in ("split6", "nonsplit6a", "nonsplit6b", "split7-33", "split7-24", "nonsplit7"):
        record = load_example(example_id)
        config = normalize_configuration(record.curve, record.conic, record.nodes)
        reports.append((config.gamma, splitting_type(record.curve, record.conic, record.nodes)))
    for name, make in (
        ("six rational nodes 3", lambda rng: _six_node_curve(rng, 3)),
        ("six rational nodes -7", lambda rng: _six_node_curve(rng, -7)),
        ("quartic (1,3)", _quartic_13),
        ("route oracle _split24 1", _split24),
    ):
        rng = rng_for(name)
        for gamma, _nodes, rep in _accepted(lambda: make(rng), 2):
            config = normalize_configuration(gamma, delta2(), rep.nodes)
            reports.append((config.gamma, rep))
    # a rational factor also takes the certificate path's division by r
    for gamma_n, rep in reports:
        if rep.outcome == "split" and rep.factor.is_rational():
            tangent = splitting._pick_tangent_line(gamma_n) if rep.m != rep.n else None
            assert splitting.certificate_from_factor(gamma_n, rep.factor, rep.m, rep.n, tangent)
    delta = delta2().terms
    for f, g, q in plane:
        assert g == delta and f
        degree = sum(next(iter(f)))
        expected = _r_over_delta_oracle(Form(PLANE, degree, f))
        assert (q is None) == (expected is None)
        assert q is None or Form(PLANE, degree - 2, q) == expected
    kinds = set()
    for b, g, q in biform:
        if g == ram_form():
            kinds.add("r")
            assert q == divide_by_ram_oracle(b)
        else:
            kinds.add(g.bidegree)
            assert q == _divide_by_ruling_oracle(b, BinForm(g.bidegree[0], list(g.coeffs)))
    assert len(plane) >= 10 and kinds == {"r", (0, 0), (2, 0)}
