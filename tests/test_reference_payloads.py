"""The `verify-example --json` payloads are byte-identical to the references.

The reference bytes in perfbench/reference/ were captured when the
benchmark was defined; a change to any payload must be intended and
explained, and then re-captured with perfbench/capture_reference.py.
"""

import contextlib
import io
import json
import pathlib

import pytest

from splitcurves.cli import main
from splitcurves.errors import SplitCurvesError

REFERENCE = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "reference"

IDS = ("split6", "nonsplit6a", "nonsplit6b", "split7-33", "split7-24", "nonsplit7",
       "zariski-triple")


@pytest.mark.parametrize("example_id", IDS)
def test_verify_example_payload_matches_reference(example_id):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify-example", example_id, "--json"])
    assert code == 0
    expected = (REFERENCE / ("verify-example-%s.json" % example_id)).read_bytes()
    assert out.getvalue().encode("utf-8") == expected


def _injected(*_args):
    raise SplitCurvesError("injected")


@pytest.mark.parametrize(
    "example_id, where",
    [(i, "plane") for i in IDS if i != "zariski-triple"] + [("split7-24", "surface")],
)
def test_an_error_in_a_claim_check_fails_that_check_alone(example_id, where, monkeypatch):
    # the node test of each claim is still reported; the payload is the
    # reference with the failed claim checks reading the error
    from splitcurves import curves, quartics

    if where == "plane":
        # every plane claim check, the projected sextic's inside the surface's too
        monkeypatch.setattr(curves, "_node_certificate", _injected)
        failed = {"singular locus complete", "surface singular locus complete"}
    else:
        monkeypatch.setattr(quartics, "singular_locus_complete", _injected)
        failed = {"surface singular locus complete"}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify-example", example_id, "--json"])
    expected = json.loads((REFERENCE / ("verify-example-%s.json" % example_id)).read_text())
    hit = 0
    for check in expected["checks"]:
        if check["name"] in failed:
            check.update(passed=False, actual="injected")
            hit += 1
    expected["overall"] = False
    assert hit == (2 if example_id == "split7-24" and where == "plane" else 1)
    assert code == 1
    assert json.loads(out.getvalue()) == expected
