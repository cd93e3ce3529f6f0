#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark program from source, runs one
workload and prints every metric by name with its unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program and the library are compiled into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). With --trace 0
the metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every answer was right and every accounting
check held; a wrong answer prints the result with "correct": false and exits
1, and a build or program failure exits 2 without a result.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"),
        "perfbench")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_quiet(configure, "configure")
    run_quiet(["cmake", "--build", build_dir, "--target", "perfbench",
               "-j", str(min(os.cpu_count() or 1, 4))], "build")
    return os.path.join(build_dir, "perfbench")


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail(f"{what} failed")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def end_to_end(raw, lines):
    """Named end-to-end values from the program's raw untraced result."""
    m = {"setup_s": statistics.median(raw["setup_s"])}
    lines.append(f"setup_s: median of {len(raw['setup_s'])} set-ups "
                 f"{[round(x, 3) for x in raw['setup_s']]}")

    q = raw["query_us"]
    for name, p in (("query_p50_us", 50), ("query_p99_us", 99)):
        r = stats.percentile(q, p)
        m[name] = r["value"]
        lines.append(f"{name}: n={r['count']}, {r['beyond']} beyond")
    lines.append(f"query latency: highest supported tail "
                 f"p{stats.supported_tail(len(q))} of {len(q)} samples")

    m.update(visibility(raw, lines))
    m.update(drain(raw, lines))

    if "batch_rates" in raw:
        rates = raw["batch_rates"]
        what = "executor batch slices"
    else:  # ingest-mixed: readers beside the writer.
        rates = rates_or_overall(raw["reader_done_us"], 64)
        what = "windows of 64 reader completions"
    m["batch_qps"] = statistics.median(rates)
    lines.append(f"batch_qps: median of {len(rates)} {what}")

    for key in ("index_pages_per_query", "space_pages"):
        m[key] = raw[key]
    return m


def rates_or_overall(times_us, per_window):
    """Rates over windows of `per_window` events, or the one overall rate
    when there are too few events for two windows."""
    if len(times_us) > per_window:
        return stats.windowed_rates(times_us, per_window)
    return [len(times_us) * 1e6 / max(times_us)] if times_us else []


def drain(raw, lines):
    """Closed-loop drain rate: median over windows of 512 acknowledgements
    (8 full groups). A per-layer metric: its run-to-run spread on a shared
    host exceeds the largest bound an end-to-end metric may have."""
    slices = raw["drain_ack_us"]
    rates = [r for acks in slices for r in rates_or_overall(acks, 512)]
    value = statistics.median(rates)
    lines.append(f"exec.ingest_tps: {value:.1f} appends/s, median of "
                 f"{len(rates)} windows of 512 acknowledgements over "
                 f"{len(slices)} drain slices, "
                 f"{sum(len(a) for a in slices)} appends")
    return {"exec.ingest_tps": value}


def visibility(raw, lines):
    """Open-loop visibility percentiles, timed from each append's due time.
    The p99 is a per-layer metric: host stalls make it too noisy to gate."""
    vis, lateness = stats.open_loop(
        raw["ingest_rate"], raw["sent_us"], raw["visible_us"])
    m = {}
    for name, p in (("visibility_p50_us", 50),
                    ("exec.visibility_p99_us", 99)):
        r = stats.percentile(vis, p)
        m[name] = r["value"]
        lines.append(f"{name}: {r['value']:.1f} us, n={r['count']}, "
                     f"{r['beyond']} beyond")
    lines.append(
        f"open loop: {raw['ingest_rate']:g} appends/s offered, generator "
        f"lateness p50 {stats.percentile(lateness, 50)['value']:.1f} us, "
        f"p99 {stats.percentile(lateness, 99)['value']:.1f} us, "
        f"max {max(lateness):.1f} us; highest supported visibility tail "
        f"p{stats.supported_tail(len(vis))}")
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    program = build()
    proc = subprocess.run(
        [program, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"benchmark program exited with {proc.returncode}")
    raw = json.loads(proc.stdout)

    lines = []
    if args.trace:
        values = dict(raw["layers"])
        values.update(visibility(raw, lines))
        values.update(drain(raw, lines))
        wanted = spec["per_layer"]
    else:
        values = end_to_end(raw, lines)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"benchmark program did not measure {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    # A lost append makes visibility infinite; JSON has no infinity.
    for metric in metrics.values():
        if not math.isfinite(metric["value"]):
            metric["value"] = None

    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    guards = int(raw["guard_failures"])
    correct = failed == 0 and guards == 0
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']!s:>16} {metric['unit']}")
    print(f"{'error_rate':40s} {failed / attempted:16.4f} fraction "
          f"({failed} of {attempted} operations)")
    for line in lines:
        print(line)
    for note in raw["notes"]:
        print(f"CHECK FAILED: {note}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed + guards, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
