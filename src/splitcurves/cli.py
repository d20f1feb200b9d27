"""Command-line front end.

Subcommands: verify-example, analyze, pullback, split-type,
project-quartic, syzygetic.  Polynomials are written in the text grammar
(rational coefficients, + - * ^, parentheses, juxtaposition like 4xy);
node files are JSON arrays of coordinate lists or {"minpoly": ...,
"point": [...]} orbits.  A node file is a claim, checked against the
computed singular locus; split-type computes the nodes when it has none.
Exit codes: 0 all checks pass, 1 a check contradicts the claim, 2 an
undetermined outcome, 64 usage errors, 65 malformed input data.
"""

import argparse
import functools
import json
import os
import sys

from .conics import (
    classify_conic,
    contact_profile,
    rational_parametrization,
    restrict_to_conic,
)
from .cover import pullback_curve
from .curves import check_claim, irreducibility_sextic
from .errors import CannotCertify, ParseError, SplitCurvesError, TooManyNodes
from .forms import PLANE_VARS, SPACE_VARS, biform_to_str, form_to_str, parse_form
from .registry import example_ids, parse_node_spec
from .reports import (
    certificate_payload,
    jsonable,
    run_verify_example,
    zariski_triple_outcomes,
)
from .quartics import QuarticSurface, project_quartic, syzygetic_test
from .splitting import normalize_configuration, splitting_type, splitting_type_normalized

EX_USAGE = 64
EX_DATA = 65


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        sys.exit(EX_USAGE)


def _read_form(value, variables):
    """The form an expression option names: the value itself when it
    parses, else the text of the regular file it names.  A value that
    neither parses nor names a regular file keeps its parse error."""
    try:
        return parse_form(value, variables)
    except ParseError:
        if not os.path.isfile(value):
            raise
    with open(value, "r", encoding="utf-8") as handle:
        return parse_form(handle.read(), variables)


def _load_nodes(path, form):
    """The node claim of a file, for a plane curve or (in four variables)
    the quartic surface ``form``; ``parse_node_spec`` bounds each orbit."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise ValueError("node file nests too deeply") from None
    if not isinstance(data, list):
        raise ValueError("node file must hold a JSON array")
    return [parse_node_spec(spec, form) for spec in data]


def _emit(payload, as_json, text):
    if as_json:
        sys.stdout.write(json.dumps(jsonable(payload), sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(text)


def _cmd_verify_example(args):
    if args.id == "zariski-triple":
        outcomes = zariski_triple_outcomes()
        distinct = len(set(outcomes.values())) == 3
        _emit(
            {"outcomes": outcomes, "pairwise_distinct": distinct},
            args.json,
            "zariski triple outcomes: %s\npairwise distinct: %s\n"
            % (outcomes, distinct),
        )
        return 0 if distinct else 1
    report = run_verify_example(args.id)
    _emit(report.to_json_dict(), args.json, report.to_text())
    if report.undetermined:
        return 2
    return 0 if report.overall else 1


def _cmd_analyze(args):
    gamma = _read_form(args.curve, PLANE_VARS)
    conic = _read_form(args.conic, PLANE_VARS)
    payload = {
        "curve": form_to_str(gamma),
        "conic": form_to_str(conic),
        "conic_class": classify_conic(conic),
    }
    param = rational_parametrization(conic)
    profile = contact_profile(gamma, conic, param)
    payload["contact"] = {
        "kind": profile.kind,
        "tangent_count": profile.tangent_count,
        # per irreducible factor; the profile reads Yun's parts only
        "multiplicities": [m for _, m in restrict_to_conic(gamma, param).factor()[1]],
        "contact_form": str(profile.contact_form),
    }
    exit_code = 0
    if args.nodes:
        nodes = _load_nodes(args.nodes, gamma)
        payload["nodes"] = [jsonable(p) for p in nodes]
        reports, complete = check_claim(gamma, nodes)
        payload["nodes_are_nodes"] = [r.is_node for r in reports]
        payload["singular_locus_complete"] = complete
        if gamma.degree == 6:
            try:
                payload["irreducible"] = irreducibility_sextic(gamma, nodes)
            except (CannotCertify, TooManyNodes) as exc:
                payload["irreducible"] = "not certified: %s" % exc
        if complete and all(r.is_node for r in reports):
            # the claim is checked: decide without checking it again
            split = splitting_type_normalized(
                normalize_configuration(gamma, conic, nodes)
            )
            payload["splitting"] = {
                "outcome": split.outcome,
                "type": [split.m, split.n] if split.outcome == "split" else None,
                "evidence": split.evidence,
            }
            if split.outcome == "undetermined":
                exit_code = 2
        else:
            exit_code = 1
    text_lines = ["analysis of %s" % payload["curve"]]
    for key in sorted(payload):
        if key == "curve":
            continue
        text_lines.append("  %s: %s" % (key, jsonable(payload[key])))
    _emit(payload, args.json, "\n".join(text_lines) + "\n")
    return exit_code


def _cmd_pullback(args):
    gamma = _read_form(args.curve, PLANE_VARS)
    image = pullback_curve(gamma)
    payload = {
        "curve": form_to_str(gamma),
        "pullback": biform_to_str(image),
        "bidegree": list(image.bidegree),
    }
    _emit(
        payload,
        args.json,
        "pullback (bidegree %r): %s\n" % (image.bidegree, biform_to_str(image)),
    )
    return 0


def _cmd_split_type(args):
    gamma = _read_form(args.curve, PLANE_VARS)
    conic = _read_form(args.conic, PLANE_VARS)
    nodes = _load_nodes(args.nodes, gamma) if args.nodes else None
    report = splitting_type(gamma, conic, nodes)
    payload = {
        "nodes": [jsonable(p) for p in report.nodes],
        "outcome": report.outcome,
        "type": [report.m, report.n] if report.outcome == "split" else None,
        "evidence": report.evidence,
        "notes": report.notes,
    }
    if report.certificate is not None:
        payload["certificate"] = certificate_payload(report.certificate)
    text = "splitting outcome: %s" % report.outcome
    if report.outcome == "split":
        text += " of type (%d,%d)" % (report.m, report.n)
    _emit(payload, args.json, text + "\n")
    return 2 if report.outcome == "undetermined" else 0


def _cmd_project_quartic(args):
    g2 = _read_form(args.g2, PLANE_VARS)
    g3 = _read_form(args.g3, PLANE_VARS)
    g4 = _read_form(args.g4, PLANE_VARS)
    surface = QuarticSurface(g2, g3, g4)
    gamma_x, delta_x, info = project_quartic(surface)
    payload = {
        "sextic": form_to_str(gamma_x),
        "contact_conic": form_to_str(delta_x),
    }
    if "reduced" in info:
        payload["reduced"] = info["reduced"]
    if "contact" in info:
        payload["contact_kind"] = info["contact"].kind
        payload["tangent_count"] = info["contact"].tangent_count
    _emit(
        payload,
        args.json,
        "sextic: %s\nconic:  %s\n%s"
        % (
            payload["sextic"],
            payload["contact_conic"],
            "".join(
                "%s: %s\n" % (k, payload[k])
                for k in ("reduced", "contact_kind", "tangent_count")
                if k in payload
            ),
        ),
    )
    return 0


def _cmd_syzygetic(args):
    surface = _read_form(args.surface, SPACE_VARS)
    nodes = _load_nodes(args.nodes, surface)
    result = syzygetic_test(surface, nodes)
    payload = {"syzygetic": bool(result)}
    if result:
        payload["assigned_nodes"] = list(result.subset)
        payload["dimension"] = result.report.dimension
        payload["quadric_net"] = [form_to_str(k) for k in result.report.kernel]
    _emit(
        payload,
        args.json,
        "syzygetic: %s\n" % bool(result)
        + ("assigned nodes: %r\n" % (payload.get("assigned_nodes"),) if result else ""),
    )
    return 0


@functools.cache
def build_parser():
    """The parser, built on the first call of a process and reused after:
    parsing leaves it as it was, and each call gets a fresh namespace."""
    parser = _Parser(
        prog="splitcurves",
        description="Exact splitting-type certification for nodal plane "
        "curves with contact conics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("verify-example", help="run a catalog example end to end")
    p.add_argument(
        "id",
        choices=list(example_ids()) + ["zariski-triple"],
        help="catalog example id",
    )
    common(p)
    p.set_defaults(func=_cmd_verify_example)

    p = sub.add_parser("analyze", help="contact analysis and optional splitting")
    p.add_argument("--curve", required=True, help="curve expression or file")
    p.add_argument("--conic", required=True, help="conic expression")
    p.add_argument("--nodes", help="JSON node file")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("pullback", help="pullback under the standard double cover")
    p.add_argument("--curve", required=True, help="curve expression or file")
    common(p)
    p.set_defaults(func=_cmd_pullback)

    p = sub.add_parser("split-type", help="decide the splitting type")
    p.add_argument("--curve", required=True)
    p.add_argument("--conic", required=True)
    p.add_argument("--nodes", help="JSON node file (a claim; computed when absent)")
    common(p)
    p.set_defaults(func=_cmd_split_type)

    p = sub.add_parser(
        "project-quartic", help="project a node-centered quartic surface"
    )
    p.add_argument("--g2", required=True)
    p.add_argument("--g3", required=True)
    p.add_argument("--g4", required=True)
    common(p)
    p.set_defaults(func=_cmd_project_quartic)

    p = sub.add_parser("syzygetic", help="detect the syzygetic node configuration")
    p.add_argument("--surface", required=True, help="quartic in x, y, z, w")
    p.add_argument("--nodes", required=True, help="JSON node file (quadruples)")
    common(p)
    p.set_defaults(func=_cmd_syzygetic)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SplitCurvesError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EX_DATA
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return EX_DATA


if __name__ == "__main__":
    sys.exit(main())
