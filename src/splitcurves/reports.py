"""End-to-end verification of catalog examples, with deterministic reports.

Each report runs the full pipeline (construction, node verification,
completeness of the singular locus, contact analysis, irreducibility,
splitting-type decision, plus per-example cross-checks) and compares every
result against the catalog's claims.  Reports render to JSON (sorted keys)
and to plain text; both are byte-identical across runs.
"""

import itertools

from .arith import NFElem, scalar_is_zero
from .conics import SIMPLE_CONTACT
from .cover import involution_biform, pullback_curve
from .curves import check_claim, irreducibility_sextic, verify_node
from .errors import SplitCurvesError
from .forms import (
    PLANE_VARS,
    SPACE_VARS,
    BiForm,
    Form,
    biform_to_str,
    form_to_str,
    parse_form,
    w_slices,
)
from .linsys import FormSpace, SubsetSystems, system_dimension
from .quartics import (
    check_surface_claim,
    general_position_p3,
    syzygetic_test,
)
from .registry import load_example
from .scalars import rat_str
from .splitting import (
    criterion_24_7nodal,
    normalize_configuration,
    splitting_type_normalized,
    verify_certificate,
    SplitCertificate,
    _match_scalar,
)


def _point_str(p):
    if p.field is None:
        return "(%s)" % " : ".join(rat_str(c) for c in p.primitive())
    coords = " : ".join(str(c) for c in p.coords)
    return "(%s) over %s = 0" % (coords, p.field.minimal_polynomial)


def jsonable(obj):
    """Recursively convert package objects to JSON-serializable data."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Form):
        return form_to_str(obj)
    if isinstance(obj, BiForm):
        return biform_to_str(obj)
    if isinstance(obj, NFElem):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if hasattr(obj, "numerator") and hasattr(obj, "denominator"):
        return rat_str(obj)
    if hasattr(obj, "coords"):
        return _point_str(obj)
    return str(obj)


class VerificationReport:
    """Aggregated outcome of one example verification."""

    def __init__(self, example_id, label):
        self.example_id = example_id
        self.label = label
        self.checks = []
        self.splitting = None
        self.undetermined = False

    def add(self, name, passed, expected=None, actual=None, detail=None):
        self.checks.append(
            {
                "name": name,
                "passed": bool(passed),
                "expected": jsonable(expected),
                "actual": jsonable(actual),
                "detail": jsonable(detail),
            }
        )
        return passed

    @property
    def overall(self):
        return all(c["passed"] for c in self.checks)

    def to_json_dict(self):
        return {
            "example": self.example_id,
            "label": self.label,
            "overall": self.overall,
            "undetermined": self.undetermined,
            "checks": self.checks,
            "splitting": self.splitting,
        }

    def to_text(self):
        lines = ["example %s: %s" % (self.example_id, self.label)]
        for c in self.checks:
            mark = "ok  " if c["passed"] else "FAIL"
            line = "  [%s] %s" % (mark, c["name"])
            if not c["passed"]:
                line += "  expected=%r actual=%r" % (c["expected"], c["actual"])
            lines.append(line)
        lines.append(
            "  overall: %s" % ("pass" if self.overall else "FAIL")
        )
        return "\n".join(lines) + "\n"


def certificate_payload(cert):
    """A splitting certificate as JSON: c_n, c_(n-1), the line (or None),
    the scale when it is not 1 and the field's e when it is not 1."""
    payload = {
        "c_n": form_to_str(cert.c_n),
        "c_n1": form_to_str(cert.c_n1),
        "line": form_to_str(cert.line) if cert.line is not None else None,
    }
    if cert.scale != 1:
        payload["scale"] = rat_str(cert.scale)
    if cert.e != 1:
        payload["e"] = cert.e
    return payload


def _splitting_summary(rep):
    summary = {"outcome": rep.outcome}
    if rep.outcome == "split":
        summary["type"] = [rep.m, rep.n]
        if rep.factor is not None:
            summary["factor_bidegree"] = list(rep.factor.bidegree)
            summary["factor"] = biform_to_str(rep.factor.a1)
            if not rep.factor.is_rational():
                summary["factor_extension"] = rep.factor.ext
                summary["factor_surd_part"] = biform_to_str(rep.factor.a2)
        if rep.certificate is not None:
            summary["certificate"] = certificate_payload(rep.certificate)
    summary["evidence"] = jsonable(rep.evidence)
    if rep.notes:
        summary["notes"] = list(rep.notes)
    summary["unassigned_base_points"] = "not certified"
    return summary


def run_verify_example(example_id):
    """Execute the full pipeline for a catalog example and grade it."""
    record = load_example(example_id)
    report = VerificationReport(example_id, record.label)
    claim = record.claim

    gamma, conic, nodes = record.curve, record.conic, record.nodes

    _construction_checks(report, record)

    try:
        node_reports, complete = check_claim(gamma, nodes)
    except SplitCurvesError as exc:
        # the claim check raised before it could report: test the nodes alone
        node_reports, complete = verify_node(gamma, nodes), str(exc)
    report.add(
        "nodes verify as nodes",
        all(rep.is_node for rep in node_reports),
        expected=True,
        actual=[rep.is_node for rep in node_reports],
        detail=[_point_str(p) for p in nodes],
    )
    # complete is the verdict, or the message of the error the check raised
    report.add("singular locus complete", complete is True, True, complete)

    config = normalize_configuration(gamma, conic, nodes)
    profile = config.profile
    report.add(
        "contact profile",
        profile.kind == SIMPLE_CONTACT
        and profile.tangent_count == claim["tangent_count"],
        expected={"kind": SIMPLE_CONTACT, "tangent_count": claim["tangent_count"]},
        actual={"kind": profile.kind, "tangent_count": profile.tangent_count},
    )

    try:
        irred = irreducibility_sextic(gamma, nodes)
    except SplitCurvesError as exc:
        irred = False
        report.add("irreducible", False, True, str(exc))
    else:
        report.add("irreducible", irred, True, irred)

    split_report = splitting_type_normalized(config)
    _example_specific_checks(report, record, config, split_report)
    report.splitting = _splitting_summary(split_report)
    report.undetermined = split_report.outcome == "undetermined"
    expected_outcome = {"outcome": claim["outcome"]}
    actual_outcome = {"outcome": split_report.outcome}
    if claim["outcome"] == "split":
        expected_outcome["type"] = claim["type"]
        actual_outcome["type"] = (
            [split_report.m, split_report.n] if split_report.outcome == "split" else None
        )
    report.add(
        "splitting outcome",
        expected_outcome == actual_outcome,
        expected=expected_outcome,
        actual=actual_outcome,
    )
    if claim["outcome"] == "split" and split_report.outcome == "split":
        if split_report.factor is not None:
            verified = split_report.factor.verify(pullback_curve(config.gamma))
            report.add(
                "pullback factorization verified",
                verified,
                expected=True,
                actual=verified,
            )
        witness_alpha = None
        for entry in split_report.evidence:
            if entry.get("status") == "split" and entry.get("witnesses"):
                witness_alpha = sum(
                    config.nodes[i].orbit_size()
                    for i in entry["witnesses"][0]["subset"]
                )
        if witness_alpha is not None:
            m, n = split_report.m, split_report.n
            report.add(
                "intersection accounting 2*alpha + d = m^2 + n^2",
                2 * witness_alpha + (m + n) == m * m + n * n,
                expected=m * m + n * n,
                actual=2 * witness_alpha + m + n,
            )
    if claim["outcome"] == "non_splitting" and split_report.outcome == "non_splitting":
        got = {
            "(%d,%d)" % tuple(e["type"]): e["reason"] for e in split_report.evidence
        }
        report.add(
            "exclusion evidence shape",
            got == claim["exclusions"],
            expected=claim["exclusions"],
            actual=got,
        )
    return report


def _construction_checks(report, record):
    raw = record.raw
    example_id = record.example_id
    if example_id == "split6":
        c3 = parse_form(raw["c3"], PLANE_VARS)
        c2 = parse_form(raw["c2"], PLANE_VARS)
        conic = parse_form(raw["conic"], PLANE_VARS)
        built = c3 * c3 - conic * c2 * c2
        report.add(
            "construction identity",
            built == record.curve,
            expected="c3^2 - delta*c2^2 equals the catalog sextic",
            actual=built == record.curve,
        )
    elif example_id == "nonsplit6a":
        c3 = parse_form(raw["c3"], PLANE_VARS)
        conic = parse_form(raw["conic"], PLANE_VARS)
        lines = [parse_form(t, PLANE_VARS) for t in raw["lines"]]
        prod = lines[0]
        for ln in lines[1:]:
            prod = prod * ln
        built = c3 * c3 - conic * prod
        report.add(
            "construction identity",
            built == record.curve,
            expected="c3^2 - delta*l1*l2*l3*l4 equals the catalog sextic",
            actual=built == record.curve,
        )
    elif example_id == "split7-24":
        report.add(
            "surface construction",
            record.surface is not None,
            expected=True,
            actual=record.surface is not None,
        )


def _example_specific_checks(report, record, config, split_report):
    example_id = record.example_id
    if example_id == "split6":
        _catalog_certificate_check(report, record)
        for text in record.claim["nodes_on"]:
            curve = parse_form(text, PLANE_VARS)
            ok = all(
                _vanishes(curve, p) for p in record.nodes
            )
            report.add(
                "nodes lie on %s" % text, ok, expected=True, actual=ok
            )
    elif example_id in ("nonsplit6a", "nonsplit6b"):
        space = FormSpace(2, PLANE_VARS)
        dim = system_dimension(space, [], record.nodes)
        report.add(
            "no conic through the six nodes (dimension -1)",
            dim == -1,
            expected=-1,
            actual=dim,
        )
    elif example_id == "split7-33":
        w2 = parse_form(record.raw["w2"], PLANE_VARS)
        orbit_nodes = [p for p in record.nodes if p.field is not None]
        ok = all(_vanishes(w2, p) for p in orbit_nodes)
        count = sum(p.orbit_size() for p in orbit_nodes)
        report.add(
            "six conjugate nodes lie on the conic %s" % record.raw["w2"],
            ok and count == 6,
            expected={"on_conic": True, "count": 6},
            actual={"on_conic": ok, "count": count},
        )
        _catalog_certificate_check(report, record)
    elif example_id == "split7-24":
        _split7_24_checks(report, record, split_report)
    elif example_id == "nonsplit7":
        _nonsplit7_checks(report, record, config)


def _catalog_certificate_check(report, record):
    """Verify the (3, 3) certificate the catalog records for the example."""
    claim = record.claim["certificate"]
    cert = SplitCertificate(
        3,
        3,
        None,
        parse_form(claim["c_n"], PLANE_VARS),
        parse_form(claim["c_n1"], PLANE_VARS),
    )
    report.add(
        "catalog certificate verifies",
        verify_certificate(record.curve, record.conic, cert),
        expected=True,
    )


def _vanishes(form, p):
    return scalar_is_zero(form.eval(list(p.coords)))


def _split7_24_checks(report, record, split_report):
    surface = record.surface
    quartic = surface.form()
    raw = record.raw
    f1 = parse_form(raw["f1"], SPACE_VARS)
    f2 = parse_form(raw["f2"], SPACE_VARS)
    f3 = parse_form(raw["f3"], SPACE_VARS)
    built = f3 * f3 - (f1 * f2).scale(4)
    report.add(
        "surface equation f3^2 - 4 f1 f2",
        built == quartic,
        expected=True,
        actual=built == quartic,
    )
    try:
        node_reports, complete = check_surface_claim(surface, record.surface_nodes)
    except SplitCurvesError as exc:
        node_reports, complete = verify_node(quartic, record.surface_nodes), str(exc)
    report.add(
        "eight surface nodes verify",
        all(rep.is_node for rep in node_reports),
        expected=True,
        actual=[rep.is_node for rep in node_reports],
    )
    # with exactly eight nodes the syzygetic test has tested their position
    syz = syzygetic_test(quartic, record.surface_nodes)
    gp = syz.position
    if gp is None:
        gp = general_position_p3(record.surface_nodes)
    gp = bool(gp)
    report.add("surface nodes in general position", gp, expected=True, actual=gp)
    report.add("surface singular locus complete", complete is True, True, complete)
    report.add(
        "syzygetic: dim of quadrics through the 8 nodes",
        bool(syz) and syz.report.dimension == claim_dim(record),
        expected=claim_dim(record),
        actual=syz.report.dimension if syz else None,
    )
    # the record's curve and conic are the projection of the surface
    target = parse_form(record.raw["claim"]["delta_x"], PLANE_VARS)
    report.add(
        "projected contact conic is z^2 - 4xy",
        record.conic == target,
        expected=form_to_str(target),
        actual=form_to_str(record.conic),
    )
    # displayed biform product: u^2 pb(b2) - uv pb(c2) + v^2 pb(a2), with
    # a2, b2, c2 the w-free parts of f1, f2, f3
    a2, b2, c2 = (w_slices(f)[0] for f in (f1, f2, f3))
    u2 = BiForm((0, 2), {(0, 2): 1})
    uv = BiForm((0, 2), {(0, 1): 1})
    v2 = BiForm((0, 2), {(0, 0): 1})
    displayed = (
        u2 * pullback_curve(b2) - uv * pullback_curve(c2) + v2 * pullback_curve(a2)
    )
    f_pull = pullback_curve(record.curve)
    prod = displayed * involution_biform(displayed)
    scalar = _match_scalar(prod, f_pull)
    report.add(
        "displayed (2,4)x(4,2) product matches the pullback up to a scalar",
        scalar is not None and scalar != 0,
        expected="nonzero rational scalar",
        actual=rat_str(scalar) if scalar is not None else None,
        detail="the alternative reading ending in the linear coefficient is "
        "not bihomogeneous, so exact verification selects the quadratic one",
    )
    # the decision ran the criterion on this curve, its nodes and contact form
    crit = next(
        (e["criterion_24"] for e in split_report.evidence if "criterion_24" in e),
        None,
    )
    report.add(
        "type-(2,4) criterion holds",
        crit is not None and crit["holds"],
        expected=True,
        actual=crit and {"holds": crit["holds"], "failed": crit["failed"]},
    )


def claim_dim(record):
    return record.claim["syzygetic_dimension"]


def _nonsplit7_checks(report, record, config):
    nodes_n = config.nodes
    space2 = FormSpace(2, PLANE_VARS)
    systems = SubsetSystems(space2, [], nodes_n)
    dims = [systems.dimension(subset) for subset in itertools.combinations(range(7), 6)]
    report.add(
        "all seven 6-node conic systems are empty",
        all(d == -1 for d in dims),
        expected=[-1] * 7,
        actual=dims,
    )
    # the quartic system is the criterion's (iii-b) system
    crit = criterion_24_7nodal(config.gamma, nodes_n, config.profile.contact_form)
    quartic_dim = crit.details.get("quartic_dimension")
    report.add(
        "quartics through nodes and contact divisor: dimension",
        quartic_dim == record.claim["quartic_system_dimension"],
        expected=record.claim["quartic_system_dimension"],
        actual=quartic_dim,
    )
    report.add(
        "type-(2,4) criterion fails at (iii-b)",
        (not crit.holds) and crit.failed == "iii-b",
        expected={"holds": False, "failed": "iii-b"},
        actual={"holds": crit.holds, "failed": crit.failed},
    )


def zariski_triple_outcomes():
    """Splitting outcomes of the three 7-nodal examples (pairwise distinct)."""
    outcomes = {}
    for example_id in ("split7-33", "split7-24", "nonsplit7"):
        record = load_example(example_id)
        rep = splitting_type_normalized(
            normalize_configuration(record.curve, record.conic, record.nodes)
        )
        if rep.outcome == "split":
            outcomes[example_id] = "split(%d,%d)" % (rep.m, rep.n)
        else:
            outcomes[example_id] = rep.outcome
    return outcomes


__all__ = [
    "VerificationReport",
    "run_verify_example",
    "zariski_triple_outcomes",
    "jsonable",
]
