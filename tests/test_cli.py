import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from splitcurves.cli import main
from splitcurves.forms import MAX_NESTING


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_example_passes(capsys):
    code, out, _err = run_cli(capsys, "verify-example", "nonsplit6a")
    assert code == 0
    assert "overall: pass" in out


def test_verify_example_json_is_byte_identical(capsys):
    code1, out1, _ = run_cli(capsys, "verify-example", "split6", "--json")
    code2, out2, _ = run_cli(capsys, "verify-example", "split6", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["overall"] is True
    assert payload["splitting"]["outcome"] == "split"
    assert payload["splitting"]["type"] == [3, 3]
    assert payload["splitting"]["unassigned_base_points"] == "not certified"


def test_the_parser_is_built_once_and_left_as_it_was(capsys):
    # a usage error, a data error and a call without --json between two
    # calls leave the bytes of the second the bytes of the first
    from splitcurves import cli

    cli.build_parser.cache_clear()
    first = run_cli(capsys, "verify-example", "split6", "--json")
    assert first[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["verify-example", "split6", "--height", "5"])
    assert exc.value.code == 64
    capsys.readouterr()
    assert run_cli(capsys, "verify-example", "split6", "--json") == first
    code, _out, _err = run_cli(capsys, "analyze", "--curve", "x^2+y", "--conic", "z^2-4xy")
    assert code == 65
    assert run_cli(capsys, "verify-example", "split6", "--json") == first
    code, out, _err = run_cli(capsys, "verify-example", "split6")
    assert code == 0 and "overall: pass" in out
    assert run_cli(capsys, "verify-example", "split6", "--json") == first
    assert cli.build_parser.cache_info().misses == 1


def test_failed_factor_verification_shows_in_report(capsys, monkeypatch):
    # the search itself accepts only verified factors, so the re-check in the
    # report is made to fail after the decision has been taken
    from splitcurves import reports
    from splitcurves.splitting import PullbackFactor

    decide = reports.splitting_type_normalized

    def decide_then_break_verify(*args, **kwargs):
        rep = decide(*args, **kwargs)
        monkeypatch.setattr(PullbackFactor, "verify", lambda self, f_pull: False)
        return rep

    monkeypatch.setattr(reports, "splitting_type_normalized", decide_then_break_verify)
    code, out, _ = run_cli(capsys, "verify-example", "split6", "--json")
    assert code == 1
    payload = json.loads(out)
    check = next(
        c for c in payload["checks"] if c["name"] == "pullback factorization verified"
    )
    assert check["passed"] is False and check["actual"] is False
    assert payload["overall"] is False


def test_zariski_triple_command(capsys):
    code, out, _ = run_cli(capsys, "verify-example", "zariski-triple", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pairwise_distinct"] is True
    assert sorted(payload["outcomes"].values()) == [
        "non_splitting",
        "split(2,4)",
        "split(3,3)",
    ]


def test_pullback_command(capsys):
    code, out, _ = run_cli(capsys, "pullback", "--curve", "z^2-4xy", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pullback"] == "s^2*v^2 - 2*s*t*u*v + t^2*u^2"
    assert payload["bidegree"] == [2, 2]


def test_split_type_command(tmp_path, capsys):
    nodes = tmp_path / "nodes.json"
    nodes.write_text(
        json.dumps([[1, 1, 0], [1, 2, 0], [1, -1, 0], [0, 0, 1], [1, 1, 1], [2, 4, 3]])
    )
    code, out, _ = run_cli(
        capsys,
        "split-type",
        "--curve",
        "(2x^3-x^2y+3x^2z-2xy^2-4xz^2+y^3+yz^2)^2"
        "-z*(x-y)*(2x-y)*(x+y-2z)*(z^2-4xy)",
        "--conic",
        "z^2-4xy",
        "--nodes",
        str(nodes),
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "non_splitting"
    assert payload["nodes"][:2] == ["(1 : 1 : 0)", "(1 : 2 : 0)"]


def test_split_type_computes_the_nodes_when_none_are_given(capsys):
    code, out, _ = run_cli(
        capsys,
        "split-type",
        "--curve",
        "(x^3+y^3+z^3)^2-(z^2-4xy)*(xy+yz+zx)^2",
        "--conic",
        "z^2-4xy",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["outcome"], payload["type"]) == ("split", [3, 3])
    # one orbit of six conjugate nodes
    assert len(payload["nodes"]) == 1 and " over " in payload["nodes"][0]


def test_split_type_on_cuspidal_curve_exits_data_error(capsys):
    code, _out, err = run_cli(
        capsys, "split-type", "--curve", "y^2z-x^3", "--conic", "z^2-4xy"
    )
    assert code == 65
    assert "not a node" in err


@pytest.mark.parametrize(
    "text",
    [
        '[{"minpoly": 5}]',
        '[{"point": [1, 2, 3]}]',
        "[null]",
        '[{"minpoly": "a^2-2", "point": [1, 2]}]',
        "[[1e400, 1, 1]]",
    ],
)
def test_malformed_node_file_exits_data_error(tmp_path, capsys, text):
    nodes = tmp_path / "nodes.json"
    nodes.write_text(text)
    code, _out, err = run_cli(
        capsys, "split-type", "--curve", "x^2+y^2+z^2", "--conic", "z^2-4xy",
        "--nodes", str(nodes),
    )
    assert code == 65
    assert err.startswith("input error:")


@pytest.mark.parametrize("claim", [None, "[[2, 0, 1]]"])
def test_split_type_on_a_non_reduced_curve_exits_data_error(tmp_path, capsys, claim):
    argv = ["split-type", "--curve", "(x-2z)^2*(x^2+y^2-4z^2)", "--conic", "z^2-4xy"]
    if claim is not None:
        nodes = tmp_path / "nodes.json"
        nodes.write_text(claim)
        argv += ["--nodes", str(nodes)]
    code, _out, err = run_cli(capsys, *argv)
    assert code == 65
    assert err == "error: the curve is not reduced: it has a multiple component\n"


def test_node_orbit_larger_than_the_singular_locus_is_rejected_at_once(tmp_path, capsys):
    from splitcurves.registry import raw_record

    nodes = tmp_path / "nodes.json"
    nodes.write_text('[{"minpoly": "a^400+a+1", "point": ["a", "1", "1"]}]')
    record = raw_record("split6")
    start = time.perf_counter()
    code, _out, err = run_cli(
        capsys, "split-type", "--curve", record["curve"], "--conic", record["conic"],
        "--nodes", str(nodes),
    )
    assert time.perf_counter() - start < 1.0
    assert code == 65
    assert "an orbit of 400 points is more than the 15 singular points" in err


@pytest.mark.parametrize("command", ["split-type", "analyze"])
def test_a_reducible_minimal_polynomial_is_named_in_the_generator(tmp_path, capsys, command):
    nodes = tmp_path / "nodes.json"
    nodes.write_text('[{"minpoly": "a^2-4", "point": ["0", "a", "1"]}]')
    code, _out, err = run_cli(
        capsys, command, "--curve", "y^2*z-x^3", "--conic", "z^2-4xy", "--nodes", str(nodes)
    )
    assert code == 65
    assert err == "error: the minimal polynomial a^2 - 4 is reducible over the rationals\n"


def test_analyze_decides_nothing_on_an_incomplete_node_claim(tmp_path, capsys):
    # five of the six nodes of nonsplit6a
    nodes = tmp_path / "nodes.json"
    nodes.write_text(json.dumps([[1, 1, 0], [1, 2, 0], [1, -1, 0], [0, 0, 1], [1, 1, 1]]))
    code, out, _ = run_cli(
        capsys,
        "analyze",
        "--curve",
        "(2x^3-x^2y+3x^2z-2xy^2-4xz^2+y^3+yz^2)^2"
        "-z*(x-y)*(2x-y)*(x+y-2z)*(z^2-4xy)",
        "--conic",
        "z^2-4xy",
        "--nodes",
        str(nodes),
        "--json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["nodes_are_nodes"] == [True] * 5
    assert payload["singular_locus_complete"] is False
    assert "splitting" not in payload


def test_analyze_reports_a_sextic_claim_of_more_than_seven_nodes(tmp_path, capsys):
    # the irreducibility criterion covers at most 7 nodes: an eight-point
    # claim is reported as not certified, and the claim is still checked
    nodes = tmp_path / "eight.json"
    nodes.write_text(json.dumps(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 3], [2, 1, 5], [3, -1, 2], [1, -2, 7]]
    ))
    code, out, err = run_cli(
        capsys,
        "analyze",
        "--curve",
        "x^6+y^6+z^6",
        "--conic",
        "z^2-4*x*y",
        "--nodes",
        str(nodes),
        "--json",
    )
    assert code == 1 and err == ""
    payload = json.loads(out)
    assert payload["irreducible"] == "not certified: criterion valid for at most 7 nodes, got 8"
    assert payload["nodes_are_nodes"] == [False] * 8
    assert payload["singular_locus_complete"] is False


def test_analyze_rejects_an_orbit_over_a_field_its_point_does_not_need(
    tmp_path, capsys
):
    # (1:1:1) of nonsplit6a written over Q(sqrt 2): the claim is checked and
    # fails, it does not exhaust the shears
    nodes = tmp_path / "nodes.json"
    nodes.write_text(json.dumps(
        [[1, 1, 0], [1, 2, 0], [1, -1, 0], [0, 0, 1], [2, 4, 3],
         {"minpoly": "a^2-2", "point": ["1", "1", "1"]}]
    ))
    code, out, _ = run_cli(
        capsys,
        "analyze",
        "--curve",
        "(2x^3-x^2y+3x^2z-2xy^2-4xz^2+y^3+yz^2)^2"
        "-z*(x-y)*(2x-y)*(x+y-2z)*(z^2-4xy)",
        "--conic",
        "z^2-4xy",
        "--nodes",
        str(nodes),
        "--json",
    )
    assert code == 1
    assert json.loads(out)["singular_locus_complete"] is False


def test_expression_that_names_a_file_is_the_expression(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x").write_text("y^2")
    code, out, _ = run_cli(capsys, "pullback", "--curve", "x")
    assert code == 0
    assert out == "pullback (bidegree (1, 1)): s*u\n"
    # a value that does not parse is read as the file it names
    curve = tmp_path / "curve.txt"
    curve.write_text("y^2")
    code, out, _ = run_cli(capsys, "pullback", "--curve", str(curve), "--json")
    assert code == 0
    assert json.loads(out)["curve"] == "y^2"
    # and one that names no regular file keeps its parse error
    code, _out, err = run_cli(capsys, "pullback", "--curve", str(tmp_path))
    assert code == 65
    assert "position" in err


def test_split_type_on_conic_without_small_points(tmp_path, capsys):
    # the configuration of test_split_type_command moved by M: every
    # rational point of the moved conic is N*(s^2, t^2, 2st) with N = M^-1
    # unimodular, so its height is at least 51 s^2 + 52 t^2 > 50
    from splitcurves.conics import delta2
    from splitcurves.forms import compose_form, form_to_str, parse_form
    from splitcurves.scalars import QQ

    m = [[QQ(c) for c in row] for row in ([-1, 52, 0], [1, -51, 0], [0, 0, 1])]
    n = [[51, 52, 0], [1, 1, 0], [0, 0, 1]]
    curve = parse_form(
        "(2x^3-x^2y+3x^2z-2xy^2-4xz^2+y^3+yz^2)^2"
        "-z*(x-y)*(2x-y)*(x+y-2z)*(z^2-4xy)",
        ("x", "y", "z"),
    )
    nodes = tmp_path / "nodes.json"
    points = [[1, 1, 0], [1, 2, 0], [1, -1, 0], [0, 0, 1], [1, 1, 1], [2, 4, 3]]
    nodes.write_text(
        json.dumps([[sum(a * b for a, b in zip(row, p)) for row in n] for p in points])
    )
    curve_text = form_to_str(compose_form(curve, m))
    conic_text = form_to_str(compose_form(delta2(), m))
    code, out, _ = run_cli(
        capsys, "split-type", "--curve", curve_text, "--conic", conic_text,
        "--nodes", str(nodes), "--json",
    )
    assert code == 0
    assert json.loads(out)["outcome"] == "non_splitting"
    code, out, _ = run_cli(
        capsys, "analyze", "--curve", curve_text, "--conic", conic_text, "--json"
    )
    assert code == 0
    assert json.loads(out)["contact"]["kind"] == "simple_contact"


def test_conic_without_rational_point_exits_data_error(capsys):
    # x^2 + y^2 = 3 z^2 has no 3-adic point
    code, _out, err = run_cli(
        capsys, "analyze", "--curve", "x^2+y^2+z^2", "--conic", "x^2+y^2-3z^2"
    )
    assert code == 65
    assert "conic has no rational point" in err


def test_analyze_with_orbit_nodes(tmp_path, capsys):
    nodes = tmp_path / "orbit.json"
    nodes.write_text(
        json.dumps(
            [
                {
                    "minpoly": "a^6 + 3*a^5 + 3*a^4 + a^3 + 3*a^2 + 3*a + 1",
                    "point": ["a", "-a^5 - 2*a^4 - a^3 - 3*a - 1", "1"],
                }
            ]
        )
    )
    code, out, _ = run_cli(
        capsys,
        "analyze",
        "--curve",
        "(x^3+y^3+z^3)^2-(z^2-4xy)*(xy+yz+zx)^2",
        "--conic",
        "z^2-4xy",
        "--nodes",
        str(nodes),
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["contact"]["kind"] == "simple_contact"
    assert payload["splitting"]["outcome"] == "split"


def test_project_quartic_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "project-quartic",
        "--g2", "z^2-4xy",
        "--g3", "2x^3-x^2z-2xz^2+2y^3+y^2z-2yz^2",
        "--g4", "x^4-6x^2y^2+4x^2z^2+y^4+4y^2z^2-4z^4",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["contact_conic"] == "-4*x*y + z^2"
    assert payload["contact_kind"] == "simple_contact"


def test_syzygetic_command(tmp_path, capsys):
    nodes = tmp_path / "snodes.json"
    nodes.write_text(
        json.dumps(
            [
                [0, 0, 0, 1], [0, 1, 1, -1], [-1, 0, 1, 1], [1, 1, 0, 1],
                [1, 1, 1, 0], [-1, 1, 1, 0], [1, -1, 1, 0], [1, 1, -1, 0],
            ]
        )
    )
    code, out, _ = run_cli(
        capsys,
        "syzygetic",
        "--surface",
        "(zw-x^2+y^2)^2-4*(xw-y^2+z^2)*(yw-x^2+z^2)",
        "--nodes",
        str(nodes),
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["syzygetic"] is True and payload["dimension"] == 2


def test_unknown_example_exits_data_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-example", "no-such-example"])
    assert exc.value.code == 64  # rejected by argparse choices


def test_bad_expression_exits_data_error(capsys):
    code, _out, err = run_cli(
        capsys, "analyze", "--curve", "x^2+y", "--conic", "z^2-4xy"
    )
    assert code == 65
    assert "degree" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])  # missing required arguments
    assert exc.value.code == 64


def test_removed_search_flags_are_usage_errors(capsys):
    for flag in (["--height", "5"], ["--seed-shear", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(["verify-example", "split6"] + flag)
        assert exc.value.code == 64


def test_split_type_on_singular_conic_exits_data_error(tmp_path, capsys):
    nodes = tmp_path / "nodes.json"
    nodes.write_text("[]")
    code, _out, err = run_cli(
        capsys, "split-type", "--curve", "x^2+y^2+z^2", "--conic", "x^2-y^2",
        "--nodes", str(nodes),
    )
    assert code == 65
    assert "branch conic must be smooth" in err


def test_analyze_on_singular_conic_says_the_conic_is_not_smooth(capsys):
    code, _out, err = run_cli(
        capsys, "analyze", "--curve", "x^2+y^2-z^2", "--conic", "x^2"
    )
    assert code == 65
    assert "not smooth" in err
    assert "x^2" in err and "Form(" not in err


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (("pullback", "--curve", "1"), 65, "constant form cannot be substituted"),
        (("split-type", "--curve", "1", "--conic", "z^2-4xy"), 65,
         "constant form cannot be substituted"),
        (("analyze", "--curve", "1", "--conic", "z^2-4xy"), 0, "'multiplicities': []"),
        (("analyze", "--curve", "x", "--conic", "z^2-4xy"), 0,
         "'contact_form': '2*s + t'"),
        # a tangent line splits, as (s - t)(u - v), but no type 0 < m <= n fits d = 1
        (("split-type", "--curve", "x+y-z", "--conic", "z^2-4xy"), 65,
         "a curve of degree 1 has no splitting type"),
    ],
)
def test_constant_and_linear_curves(capsys, argv, code, message):
    # a line's partials are constants, which restrict to the conic as themselves
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert message in (out if code == 0 else err)


def test_a_line_with_an_empty_node_file_has_no_verdict(tmp_path, capsys):
    nodes = tmp_path / "nodes.json"
    nodes.write_text("[]")
    code, _out, err = run_cli(
        capsys,
        "analyze",
        "--curve",
        "x+y-z",
        "--conic",
        "z^2-4xy",
        "--nodes",
        str(nodes),
    )
    assert code == 65
    assert "a curve of degree 1 has no splitting type" in err


def _cli_process(*argv):
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "splitcurves.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize("depth", [400, 5000])
def test_deep_nesting_exits_data_error_without_traceback(tmp_path, depth):
    curve = tmp_path / "curve.txt"
    curve.write_text("(" * depth + "x" + ")" * depth)
    proc = _cli_process("pullback", "--curve", str(curve))
    assert proc.returncode == 65
    assert "Traceback" not in proc.stderr
    assert "parentheses nest deeper than %d levels" % MAX_NESTING in proc.stderr


def test_deeply_nested_node_file_exits_data_error_without_traceback(tmp_path):
    nodes = tmp_path / "deep.json"
    nodes.write_text("[" * 100000)
    proc = _cli_process(
        "split-type",
        "--curve",
        "x^2+y^2-z^2",
        "--conic",
        "z^2-4xy",
        "--nodes",
        str(nodes),
    )
    assert proc.returncode == 65
    assert "Traceback" not in proc.stderr
    assert "node file nests too deeply" in proc.stderr


def test_nesting_up_to_the_limit_parses(tmp_path):
    assert MAX_NESTING >= 200
    curve = tmp_path / "curve.txt"
    curve.write_text("(" * 200 + "x" + ")" * 200)
    proc = _cli_process("pullback", "--curve", str(curve))
    assert proc.returncode == 0, proc.stderr
    assert "pullback (bidegree (1, 1)): s*u" in proc.stdout
