"""Acceptance suite: the exit criteria, one test per criterion.

Every check is exact (integer/rational equality); each test prints one
PASS line with its runtime.  The stated per-criterion time budgets are
asserted as well.
"""

import itertools
import time

import pytest

from splitcurves.arith import NumberField, UPoly, binary_form_sqrt
from splitcurves.conics import (
    SIMPLE_CONTACT,
    contact_profile,
    delta2,
    delta2_param,
)
from splitcurves.cover import involution_biform, pullback_curve, ram_form
from splitcurves.curves import singular_locus_complete, verify_node
from splitcurves.errors import NotHomogeneous
from splitcurves.forms import (
    BiForm,
    ProjPoint,
    compose_form,
    parse_form,
    transform_point,
)
from splitcurves.linalg import mat_det, mat_inv
from splitcurves.linsys import (
    FormSpace,
    cond_point,
    cond_divisible_on_conic,
    system_solve,
)
from splitcurves.registry import load_example, raw_record
from splitcurves.reports import run_verify_example, zariski_triple_outcomes
from splitcurves.scalars import QQ, ZERO
from splitcurves.splitting import (
    criterion_24_7nodal,
    factor_pullback,
    normalize_configuration,
    splitting_type,
    verify_certificate,
    SplitCertificate,
    _match_scalar,
)

from conftest import (
    PLANE,
    SPACE,
    biform_value,
    check_elimination,
    euler_check,
    rng_for,
    random_form,
    random_rat,
)

BUDGETS = {}


def _stamp(name, budget):
    def wrap(fn):
        def inner(*args, **kwargs):
            start = time.time()
            fn(*args, **kwargs)
            elapsed = time.time() - start
            print("[PASS] %s (%.2fs, budget %ss)" % (name, elapsed, budget))
            assert elapsed < budget, "%s exceeded its %ss budget" % (name, budget)

        inner.__name__ = fn.__name__
        return inner

    return wrap


@_stamp("criterion 1: 6-nodal split example", 10)
def test_criterion_1_split6():
    record = load_example("split6")
    c3 = parse_form("x^3+y^3+z^3", PLANE)
    c2 = parse_form("x*y+y*z+z*x", PLANE)
    assert c3 * c3 - delta2() * c2 * c2 == record.curve
    field = NumberField(UPoly([1, 3, 3, 1, 3, 3, 1]))
    assert record.nodes[0].field == field
    assert record.nodes[0].orbit_size() == 6
    for rep in verify_node(record.curve, record.nodes):
        assert rep.is_node
    profile = contact_profile(record.curve, record.conic, delta2_param())
    assert profile.kind == SIMPLE_CONTACT and profile.tangent_count == 6
    rep = splitting_type(record.curve, record.conic, record.nodes)
    assert rep.outcome == "split" and (rep.m, rep.n) == (3, 3)
    report = run_verify_example("split6")
    assert report.overall


@_stamp("criterion 2: 6-nodal non-split 1", 5)
def test_criterion_2_nonsplit6a():
    record = load_example("nonsplit6a")
    for p, rep in zip(record.nodes, verify_node(record.curve, record.nodes)):
        assert p.field is None and rep.is_node
    space = FormSpace(2, PLANE)
    conds = []
    for p in record.nodes:
        conds.extend(cond_point(space, p))
    assert system_solve(space, conds).dimension == -1
    rep = splitting_type(record.curve, record.conic, record.nodes)
    assert rep.outcome == "non_splitting"
    evidence = {tuple(e["type"]): e for e in rep.evidence}
    assert evidence[(2, 4)]["reason"] == "node_bound"
    assert "12 < m^2+n^2-d = 14" in evidence[(2, 4)]["detail"]
    assert evidence[(1, 5)]["reason"] == "node_bound"
    assert "12 < m^2+n^2-d = 20" in evidence[(1, 5)]["detail"]
    assert evidence[(3, 3)]["reason"] == "necessary_dim"
    assert "degree-2" in evidence[(3, 3)]["detail"]
    assert run_verify_example("nonsplit6a").overall


@_stamp("criterion 3: 6-nodal non-split 2", 5)
def test_criterion_3_nonsplit6b():
    raw = raw_record("nonsplit6b")
    c3 = parse_form(raw["c3"], PLANE)
    c4 = parse_form(raw["c4"], PLANE)
    curve = c3 * c3 - (delta2() * c4).scale(432)
    record = load_example("nonsplit6b")
    assert curve == record.curve
    for rep in verify_node(curve, record.nodes):
        assert rep.is_node
    # the catalog erratum: the circulated sixth point is not on the curve
    assert curve.eval([QQ(-3), QQ(36), QQ(38)]) != 0
    assert curve.eval([QQ(-3), QQ(36), QQ(28)]) == 0
    assert singular_locus_complete(curve, record.nodes)
    profile = contact_profile(curve, record.conic, delta2_param())
    assert profile.kind == SIMPLE_CONTACT and profile.tangent_count == 6
    rep = splitting_type(curve, record.conic, record.nodes)
    assert rep.outcome == "non_splitting"
    reasons = {tuple(e["type"]): e["reason"] for e in rep.evidence}
    assert reasons == {
        (1, 5): "node_bound",
        (2, 4): "node_bound",
        (3, 3): "necessary_dim",
    }
    assert run_verify_example("nonsplit6b").overall


@_stamp("criterion 4: 7-nodal type (3,3)", 10)
def test_criterion_4_split7_33():
    record = load_example("split7-33")
    assert sum(p.orbit_size() for p in record.nodes) == 7
    sizes = sorted(p.orbit_size() for p in record.nodes)
    assert sizes == [1, 2, 4]
    for rep in verify_node(record.curve, record.nodes):
        assert rep.is_node
    w2 = parse_form("z^2 - x*y - y^2 + x^2", PLANE)
    from splitcurves.arith import scalar_is_zero

    for p in record.nodes:
        if p.field is not None:
            assert scalar_is_zero(w2.eval(list(p.coords)))
    cert = SplitCertificate(
        3, 3, None, parse_form("y^2*z-3*x*y*z+z^3-x^2*z", PLANE), w2
    )
    assert verify_certificate(record.curve, record.conic, cert)
    rep = splitting_type(record.curve, record.conic, record.nodes)
    assert rep.outcome == "split" and (rep.m, rep.n) == (3, 3)
    assert run_verify_example("split7-33").overall


@_stamp("criterion 5: 7-nodal type (2,4) via the syzygetic surface", 30)
def test_criterion_5_split7_24():
    from splitcurves.quartics import (
        general_position_p3,
        project_quartic,
        syzygetic_test,
    )

    raw = raw_record("split7-24")
    f1 = parse_form(raw["f1"], SPACE)
    f2 = parse_form(raw["f2"], SPACE)
    f3 = parse_form(raw["f3"], SPACE)
    quartic = f3 * f3 - (f1 * f2).scale(4)
    record = load_example("split7-24")
    assert record.surface.form() == quartic
    for rep in verify_node(quartic, record.surface_nodes):
        assert rep.is_node
    assert bool(general_position_p3(record.surface_nodes))
    syz = syzygetic_test(quartic, record.surface_nodes)
    assert syz and syz.report.dimension == 2
    gamma_x, delta_x, _info = project_quartic(record.surface, check_contact=False)
    assert delta_x == delta2()
    f_pull = pullback_curve(gamma_x)
    factor = factor_pullback(f_pull, 2, 4)
    assert factor is not None and factor.is_rational()
    assert factor.a1.bidegree == (2, 4)
    assert factor.a1 * involution_biform(factor.a1) == f_pull
    # displayed product: the reading ending in the quadratic coefficient
    a2 = parse_form("-y^2+z^2", PLANE)
    b2 = parse_form("-x^2+z^2", PLANE)
    c2 = parse_form("-x^2+y^2", PLANE)
    u2 = BiForm((0, 2), {(0, 2): 1})
    uv = BiForm((0, 2), {(0, 1): 1})
    v2 = BiForm((0, 2), {(0, 0): 1})
    displayed = (
        u2 * pullback_curve(b2) - uv * pullback_curve(c2) + v2 * pullback_curve(a2)
    )
    ratio = _match_scalar(factor.a1, displayed)
    assert ratio is not None and ratio != 0
    # the other reading is not even bihomogeneous
    with pytest.raises(NotHomogeneous):
        _ = (
            u2 * pullback_curve(b2)
            - uv * pullback_curve(c2)
            + v2 * pullback_curve(parse_form("x", PLANE))
        )
    profile = contact_profile(gamma_x, delta_x, delta2_param())
    crit = criterion_24_7nodal(gamma_x, record.nodes, profile.contact_form)
    assert crit.holds
    rep = splitting_type(gamma_x, delta_x, record.nodes)
    assert rep.outcome == "split" and (rep.m, rep.n) == (2, 4)
    assert run_verify_example("split7-24").overall


@_stamp("criterion 6: 7-nodal non-split", 10)
def test_criterion_6_nonsplit7():
    record = load_example("nonsplit7")
    for p, rep in zip(record.nodes, verify_node(record.curve, record.nodes)):
        assert p.field is None and rep.is_node
    config = normalize_configuration(record.curve, record.conic, record.nodes)
    space2 = FormSpace(2, PLANE)
    for subset in itertools.combinations(range(7), 6):
        conds = []
        for i in subset:
            conds.extend(cond_point(space2, config.nodes[i]))
        assert system_solve(space2, conds).dimension == -1
    space4 = FormSpace(4, PLANE)
    conds = cond_divisible_on_conic(4, config.profile.contact_form)
    for p in config.nodes:
        conds.extend(cond_point(space4, p))
    assert system_solve(space4, conds).dimension == 1
    crit = criterion_24_7nodal(
        config.gamma, config.nodes, config.profile.contact_form
    )
    assert not crit.holds and crit.failed == "iii-b"
    rep = splitting_type(record.curve, record.conic, record.nodes)
    assert rep.outcome == "non_splitting"
    assert run_verify_example("nonsplit7").overall


@_stamp("criterion 7: Zariski-triple distinguishability", 60)
def test_criterion_7_triple():
    outcomes = zariski_triple_outcomes()
    assert outcomes == {
        "split7-33": "split(3,3)",
        "split7-24": "split(2,4)",
        "nonsplit7": "non_splitting",
    }
    assert len(set(outcomes.values())) == 3


@_stamp("criterion 8: property suites", 120)
def test_criterion_8_property_suites():
    # pullback multiplicativity (200 cases)
    rng = rng_for("acc-pull-mult")
    for _ in range(200):
        f = random_form(rng, rng.randint(1, 3))
        g = random_form(rng, rng.randint(1, 3))
        assert pullback_curve(f * g) == pullback_curve(f) * pullback_curve(g)

    # involution fixes pullbacks (200 cases)
    rng = rng_for("acc-inv-fix")
    for _ in range(200):
        f = random_form(rng, rng.randint(1, 4))
        image = pullback_curve(f)
        assert involution_biform(image) == image

    # the branch conic pulls back to the ramification square, exercised
    # at 200 deterministic parameter points as an evaluation oracle
    r = ram_form()
    image = pullback_curve(delta2())
    assert image == r * r
    rng = rng_for("acc-ram")
    for _ in range(200):
        s, t, u, v = (QQ(rng.randint(-9, 9)) for _ in range(4))
        value = biform_value(image, s, t, u, v)
        assert value == biform_value(r, s, t, u, v) ** 2
        assert value == delta2().eval([s * u, t * v, s * v + t * u])

    # Euler identity (200 cases)
    rng = rng_for("acc-euler")
    for _ in range(200):
        assert euler_check(random_form(rng, rng.randint(1, 5)))

    # binary square roots (200 cases)
    rng = rng_for("acc-sqrt")
    from splitcurves.arith import BinForm

    done = 0
    while done < 200:
        deg = rng.randint(1, 6)
        g = BinForm(deg, [random_rat(rng, 7) for _ in range(deg + 1)])
        if g.is_zero():
            continue
        done += 1
        root = binary_form_sqrt(g * g)
        assert root in (g, -g)

    # fraction-free rank equals naive rank (200 matrices up to 12 x 15), and
    # kernels, solves, inverses and determinants check out on each
    rng = rng_for("acc-rank")
    for _ in range(200):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 15)
        mat = [
            [random_rat(rng, 6) if rng.random() < 0.7 else ZERO for _ in range(ncols)]
            for _ in range(nrows)
        ]
        check_elimination(rng, mat)

    # 8 general points in P^3: quadric system dimension in [1, 2]
    rng = rng_for("acc-eight")
    from splitcurves.quartics import general_position_p3

    space_q = FormSpace(2, SPACE)
    configs = 0
    while configs < 50:
        pts = []
        while len(pts) < 8:
            coords = [QQ(rng.randint(-9, 9)) for _ in range(4)]
            if any(c != 0 for c in coords):
                pts.append(ProjPoint(coords))
        if len({p.canonical_key() for p in pts}) < 8:
            continue
        if not general_position_p3(pts):
            continue
        configs += 1
        conds = []
        for p in pts:
            conds.extend(cond_point(space_q, p))
        assert 1 <= system_solve(space_q, conds).dimension <= 2


@_stamp("criterion 9: cross-coordinate robustness", 60)
def test_criterion_9_coordinate_robustness():
    record = load_example("split6")
    rng = rng_for("acc-transform")
    transforms = 0
    while transforms < 3:
        m = [[QQ(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        if mat_det(m) == 0:
            continue
        transforms += 1
        minv = mat_inv(m)
        gamma_t = compose_form(record.curve, minv)
        conic_t = compose_form(record.conic, minv)
        nodes_t = [transform_point(m, p) for p in record.nodes]
        rep = splitting_type(gamma_t, conic_t, nodes_t)
        assert rep.outcome == "split" and (rep.m, rep.n) == (3, 3)


def _count_calls(monkeypatch, targets):
    """Count calls of each (module, name); a function imported by name is
    replaced in every module holding it."""
    import sys

    calls = {}
    for module, name in targets:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        for held in list(sys.modules.values()):
            if held.__name__.startswith("splitcurves"):
                if getattr(held, name, None) is fn:
                    monkeypatch.setattr(held, name, counted)
    return calls


# verify_node calls of one verify-example: one per node claim, plus the
# check of the surface's center when split7-24 is loaded
_NODE_TESTS = {
    "split6": 1,
    "nonsplit6a": 1,
    "nonsplit6b": 1,
    "split7-33": 1,
    "nonsplit7": 1,
    # the center, the plane claim, the surface claim and the projected
    # sextic's claim inside it
    "split7-24": 4,
    # the center, loading split7-24
    "zariski-triple": 1,
}


@pytest.mark.parametrize("example_id", sorted(_NODE_TESTS))
def test_verify_example_tests_each_node_claim_once(example_id, monkeypatch, capsys):
    from splitcurves import cli, curves

    calls = _count_calls(monkeypatch, ((curves, "verify_node"),))
    assert cli.main(["verify-example", example_id, "--json"]) == 0
    capsys.readouterr()
    assert calls == {"verify_node": _NODE_TESTS[example_id]}


@pytest.mark.parametrize("command", ["analyze", "split-type"])
@pytest.mark.parametrize("example_id", ["split6", "nonsplit6a"])
def test_a_node_claim_on_the_command_line_is_tested_once(
    command, example_id, tmp_path, monkeypatch, capsys
):
    import json

    from splitcurves import cli, curves

    raw = raw_record(example_id)
    node_file = tmp_path / "nodes.json"
    node_file.write_text(json.dumps(raw["nodes"]))
    argv = [command, "--curve", raw["curve"], "--conic", raw["conic"], "--nodes", str(node_file)]
    calls = _count_calls(monkeypatch, ((curves, "verify_node"),))
    assert cli.main(argv + ["--json"]) == 0
    capsys.readouterr()
    assert calls == {"verify_node": 1}


def test_verify_example_split7_24_analyzes_contact_and_criterion_once(monkeypatch):
    from splitcurves import conics, splitting

    calls = _count_calls(
        monkeypatch, ((conics, "contact_profile"), (splitting, "criterion_24_7nodal"))
    )
    assert run_verify_example("split7-24").overall
    assert calls == {"contact_profile": 1, "criterion_24_7nodal": 1}


def test_verify_example_split7_24_projects_the_quartic_once(monkeypatch):
    # the example's plane data and the surface's locus check share the
    # projection the surface holds
    from splitcurves import quartics

    calls = _count_calls(monkeypatch, ((quartics, "project_quartic"),))
    assert run_verify_example("split7-24").overall
    assert calls == {"project_quartic": 1}


def test_verify_example_split7_24_tests_general_position_once(monkeypatch):
    # the report reads the verdict that the syzygetic test computed on the
    # same eight nodes
    from splitcurves import quartics

    calls = _count_calls(monkeypatch, ((quartics, "general_position_p3"),))
    assert run_verify_example("split7-24").overall
    assert calls == {"general_position_p3": 1}
    record = load_example("split7-24")
    syz = quartics.syzygetic_test(record.surface.form(), record.surface_nodes)
    assert syz.subset == tuple(range(8)) and bool(syz.position)
    assert syz.report.dimension == 2 and len(syz.report.kernel) == 3


def test_verify_example_split7_24_searches_no_plane_locus(monkeypatch):
    # the plane check and the surface's locus check ask about the same
    # sextic; the discriminant certificate settles both, so no locus shear is
    # tried, and the sextic keeps its one discriminant
    # (the only resultant taken) for the second check and the reducedness flag
    from splitcurves import curves

    calls = _count_calls(
        monkeypatch,
        ((curves, "_sheared_locus"), (curves, "_node_certificate"), (curves, "resultant_y")),
    )
    assert run_verify_example("split7-24").overall
    assert calls == {"_node_certificate": 2, "resultant_y": 1}


def test_split7_24_criterion_check_fails_when_the_decision_skipped_it():
    from types import SimpleNamespace

    from splitcurves.reports import VerificationReport, _split7_24_checks

    record = load_example("split7-24")
    report = VerificationReport(record.example_id, record.label)
    _split7_24_checks(report, record, SimpleNamespace(evidence=[{"type": (2, 4)}]))
    last = report.checks[-1]
    assert last["name"] == "type-(2,4) criterion holds"
    assert not last["passed"] and last["actual"] is None
