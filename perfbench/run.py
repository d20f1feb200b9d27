#!/usr/bin/env python3
"""Benchmark of the splitcurves certifier: one client, one process, closed loop.

    python3 perfbench/run.py --workload {catalog,factor-search} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  Human-readable lines come first (``#``
header, then every metric by name with its unit); the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` runs whole blocks of operations until ``--seconds`` have
passed and reports the end-to-end metrics listed in BENCHMARK.json.
``--trace 1`` runs a fixed number of blocks, each twice on the same inputs,
once plain and once with the outside-in tracer installed, and reports the
per-layer metrics; the fixed count makes every call count repeat exactly
for one seed.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Seconds one block takes on the machine the benchmark was tuned on (2-core
# x86-64, Python 3.11, fraction backend).  They size the input pool and the
# traced run only; a timed run always stops on the clock.
NOMINAL_BLOCK_S = {"catalog": 5.6, "factor-search": 0.62}
# Inputs built for this many times the blocks a run is expected to need;
# a faster program cycles through the pool again.
POOL_HEADROOM = 1.25
# A traced run plays its blocks twice, plain and traced, at nominal cost
# for this share of --seconds.  The share is small because the block count
# is fixed: a rare factor-search input costs about a minute (one took 58 s),
# and played twice it must still leave the run well inside three minutes.
TRACE_SHARE = 0.2
# Fresh interpreters started per run to time set-up; the median is reported.
SETUP_REPEATS = 3
# The tail is p90, or a lower percentile when a run is too short to keep
# TAIL_BEYOND operations above p90.
TAIL_PCT = 90
TAIL_BEYOND = 10


def fail(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(2)


def import_package():
    if not os.path.isfile(os.path.join(SRC, "splitcurves", "__init__.py")):
        fail("no package sources at %s; run from the root of a checkout" % SRC)
    sys.path.insert(0, SRC)
    import splitcurves

    if not os.path.abspath(splitcurves.__file__).startswith(SRC + os.sep):
        fail("splitcurves was imported from %s, not %s" % (splitcurves.__file__, SRC))
    return splitcurves


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        fail("cannot read %s: %s" % (path, exc))


def pool_blocks(workload, seconds):
    if workload == "catalog":
        return 1
    return max(1, math.ceil(POOL_HEADROOM * seconds / NOMINAL_BLOCK_S[workload]))


def trace_blocks(workload, seconds):
    return max(1, round(TRACE_SHARE * seconds / NOMINAL_BLOCK_S[workload]))


def build(args):
    import workloads

    work = workloads.WORKLOADS[args.workload](args.seed, pool_blocks(args.workload, args.seconds))
    return work, workloads.digest(work.blocks)


def call_timed(work, op):
    start = time.perf_counter()
    try:
        result = work.call(op)
    except Exception as exc:  # graded as a failure; the run goes on
        exc.trace_text = traceback.format_exc()
        result = exc
    return result, time.perf_counter() - start


def run_ops(work, ops, tracer=None):
    """Run ``ops`` in order; (records, wall)."""
    records = []
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op += 1
        result, dt = call_timed(work, op)
        records.append((op, result, dt))
    return records, time.perf_counter() - start


def run_for(work, seconds):
    """Whole blocks until the clock passes ``seconds``; (records, wall)."""
    records = []
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds:
        records += run_ops(work, work.blocks[index % len(work.blocks)])[0]
        index += 1
    return records, time.perf_counter() - start


def grade(work, records):
    import workloads

    counts = {"attempted": len(records), "failed": 0, "undetermined": 0, "json_changed": 0}
    for op, result, _dt in records:
        outcome = work.check(op, result)
        if outcome.status == workloads.FAILED:
            counts["failed"] += 1
            if counts["failed"] == 1:
                detail = getattr(result, "trace_text", None) or repr(result)[:400]
                sys.stderr.write("perfbench: first failed op %s: %s\n" % (op.kind, detail))
        elif outcome.status == workloads.UNDETERMINED:
            counts["undetermined"] += 1
        counts["json_changed"] += int(outcome.json_changed)
    return counts


def measure_setup(args, want_digest):
    """Seconds from starting a fresh interpreter to inputs ready, per repeat."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            try:
                child.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                child.kill()
                child.communicate()
        if child.returncode != 0 or line.split() != ["ready", want_digest]:
            fail("set-up child exited %s with %r; expected inputs %s"
                 % (child.returncode, line.strip(), want_digest))
        times.append(elapsed)
    return times


def commit_id():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as handle:
                head = handle.read().strip()
        return head[:12]
    except OSError:
        return "unknown (not a git checkout)"


def header(args, package):
    import importlib.util

    from splitcurves import scalars

    gmpy2 = "available" if importlib.util.find_spec("gmpy2") else "unavailable"
    print("# splitcurves %s benchmark: workload=%s seed=%d seconds=%d trace=%d"
          % (package.__version__, args.workload, args.seed, args.seconds, args.trace))
    print("# python %s  nproc %s  machine %s  commit %s  backend %s  gmpy2 %s"
          % (platform.python_version(), os.cpu_count(), platform.machine(),
             commit_id(), scalars.BACKEND, gmpy2))


def tail(durations):
    """Nearest-rank p90, lowered until TAIL_BEYOND ops lie above it: (value, percentile, ops above).

    A rank nearer the maximum would follow the few slowest inputs a seed
    happens to draw, and the run-to-run spread would measure those draws.
    """
    ranked = sorted(durations)
    n = len(ranked)
    k = max(0, min(n - TAIL_BEYOND - 1, math.ceil(TAIL_PCT * n / 100) - 1))
    return ranked[k], 100.0 * (k + 1) / n, n - k - 1


def kind_median(records):
    """Median over operation kinds of each kind's median seconds: (value, kinds).

    A block mixes kinds of very different cost, so the plain median of all
    operations falls in the gap between two kinds, on whichever two ops
    border it in a given run.  Each kind's median is steady, and so is the
    median of those.
    """
    by_kind = {}
    for op, _result, dt in records:
        by_kind.setdefault(op.kind, []).append(dt)
    return statistics.median(statistics.median(v) for v in by_kind.values()), len(by_kind)


def plain_run(args, work, inputs_digest):
    setup_times = measure_setup(args, inputs_digest)
    records, wall = run_for(work, args.seconds)
    counts = grade(work, records)
    durations = [dt for _op, _result, dt in records]
    tail_s, tail_pct, above = tail(durations)
    p50_s, kinds = kind_median(records)
    print("# %d ops in %d blocks over %.3f s; p50 is the median of %d kind medians;"
          " tail is p%.1f (%d ops above it)"
          % (len(records), len(records) // len(work.blocks[0]), wall, kinds, tail_pct, above))
    # Throughput is printed, not reported as a metric: it is the mean cost,
    # and one rare input can hold a third of a run (see README.md).
    slowest = max(records, key=lambda record: record[2])
    print("# ops_per_s %.4f; slowest op %s, %.3f s"
          % (len(records) / wall, slowest[0].kind, slowest[2]))
    print("# set-up runs (s): %s" % " ".join("%.4f" % t for t in setup_times))
    print("# fail_ratio %.6f  undetermined_ratio %.6f  json_changed %d"
          % (counts["failed"] / counts["attempted"],
             counts["undetermined"] / counts["attempted"], counts["json_changed"]))
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_s.p50": p50_s,
        "op_s.tail": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return counts, metrics


def traced_run(args, work):
    import spans

    n_blocks = trace_blocks(args.workload, args.seconds)
    tracer = spans.Tracer()
    plain_records, traced_records = [], []
    plain_wall = traced_wall = 0.0
    # Each block runs plain, then traced, so a drift in machine speed
    # reaches both sides of the overhead ratio alike.
    for i in range(n_blocks):
        block = work.blocks[i % len(work.blocks)]
        records, wall = run_ops(work, block)
        plain_records += records
        plain_wall += wall
        tracer.install()
        try:
            records, wall = run_ops(work, block, tracer)
        finally:
            tracer.uninstall()
        traced_records += records
        traced_wall += wall
    os.makedirs(OUT, exist_ok=True)
    span_file = os.path.join(OUT, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))
    tracer.write(span_file)
    print("# %d ops in %d blocks, plain %.3f s, traced %.3f s; spans in %s"
          % (len(traced_records), n_blocks, plain_wall, traced_wall,
             os.path.relpath(span_file, ROOT)))

    counts = grade(work, traced_records)
    plain_counts = grade(work, plain_records)
    metrics = spans.layer_metrics(tracer.spans)
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    metrics["reports.json_changed"] = counts["json_changed"]
    metrics["workload.fail_ratio"] = counts["failed"] / counts["attempted"]
    metrics["workload.undetermined_ratio"] = counts["undetermined"] / counts["attempted"]
    for key in ("attempted", "failed"):
        counts[key] += plain_counts[key]
    return counts, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(NOMINAL_BLOCK_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print 'ready <digest>' and exit")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    package = import_package()
    work, inputs_digest = build(args)
    if args.setup_only:
        print("ready", inputs_digest, flush=True)
        return 0

    spec = load_spec()
    header(args, package)
    print("# inputs %s: %d blocks of %d ops"
          % (inputs_digest, len(work.blocks), len(work.blocks[0])))
    if args.trace:
        counts, values = traced_run(args, work)
        listed = spec["per_layer"]
    else:
        counts, values = plain_run(args, work, inputs_digest)
        listed = spec["end_to_end"]

    metrics = {}
    for entry in listed:
        if entry["name"] not in values:
            fail("metric %s is listed in BENCHMARK.json but not measured" % entry["name"])
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        print("%-56s %16.6f %s" % (entry["name"], values[entry["name"]], entry["unit"]))
    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
