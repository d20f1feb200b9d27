#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at the smallest size (about a minute).

    python3 perfbench/smoke.py

Run from the root of a checkout.  For every workload and both trace modes it
checks that the run exits 0, that the last line holds exactly the metrics
BENCHMARK.json lists for that mode, and that no operation failed.  It also
checks that a traced run repeats its call counts exactly for one seed, and
that the benchmark refuses to run, without printing a result, when the
package sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BARE_DIR = os.path.join(HERE, "out", "bare")


def run(workload, trace, cwd=ROOT, seed=1):
    command = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(spec, workload, trace, proc):
    where = "%s --trace %d" % (workload, trace)
    assert proc.returncode == 0, "%s exited %d:\n%s" % (where, proc.returncode, proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], where
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed), where
    for entry in listed:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"], (where, entry["name"])
        assert isinstance(metric["value"], (int, float)), (where, entry["name"])
        if not trace:
            assert metric["value"] > 0, (where, entry["name"])
    assert result["correct"] is True and result["failed"] == 0, (where, proc.stderr)
    assert result["attempted"] >= 1, where
    if trace:
        assert result["metrics"]["workload.fail_ratio"]["value"] == 0, where
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_result(spec, workload, trace, run(workload, trace))
            print("ok  %s --trace %d" % (workload, trace), flush=True)

    first, again = (
        check_result(spec, "factor-search", 1, run("factor-search", 1, seed=7))["metrics"]
        for _ in range(2)
    )
    for name, metric in first.items():
        if name.endswith(".calls") or name == "workload.undetermined_ratio":
            assert metric["value"] == again[name]["value"], name
    print("ok  traced call counts repeat for one seed")

    shutil.rmtree(BARE_DIR, ignore_errors=True)
    os.makedirs(BARE_DIR)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), BARE_DIR)
    shutil.copytree(HERE, os.path.join(BARE_DIR, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    bare = run("catalog", 0, cwd=BARE_DIR)
    shutil.rmtree(BARE_DIR)
    assert bare.returncode != 0, "ran without package sources"
    assert not bare.stdout.strip(), "printed output without package sources"
    print("ok  refuses to run without package sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
