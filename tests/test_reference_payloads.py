"""The `verify-example --json` payloads are byte-identical to the references.

The reference bytes in perfbench/reference/ were captured when the
benchmark was defined; a change to any payload must be intended and
explained, and then re-captured with perfbench/capture_reference.py.
"""

import contextlib
import io
import pathlib

import pytest

from splitcurves.cli import main

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
