#!/usr/bin/env python3
"""Write the reference ``verify-example --json`` payloads the catalog workload compares against.

    python3 perfbench/capture_reference.py

Run from the root of a checkout.  Each payload is captured exactly as the
catalog workload captures it: ``splitcurves.cli.main`` in-process with
standard output redirected.  Re-run it only when a change to the payloads
is intended and explained.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from splitcurves import cli  # noqa: E402

from workloads import CATALOG_IDS, reference_payload_path, verify_example_json  # noqa: E402


def main():
    for example_id in CATALOG_IDS:
        rc, text = verify_example_json(cli, example_id)
        if rc != 0:
            sys.stderr.write("verify-example %s exited %d\n" % (example_id, rc))
            return 1
        with open(reference_payload_path(example_id), "w", encoding="utf-8") as handle:
            handle.write(text)
        print("wrote", os.path.relpath(reference_payload_path(example_id)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
