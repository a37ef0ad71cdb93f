#!/usr/bin/env python3
"""perfbench: the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload <train|verify_hard|eval_store>
                             --seed <n> --seconds <s> --trace <0|1>

Builds the workload runner from source (perfbench/CMakeLists.txt, into
.bench_build/perfbench), runs one workload, checks its outputs, prints a
human-readable report on stderr and, as the last line of stdout, one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end-to-end set, with --trace 1 its per-layer
set. Every result, with the environment stamp, is also written to
.bench_build/perfbench/results/. See perfbench/README.md.

--record-expected stores a train run's deterministic plane (smt.* and
verify.* counters, diff_correct_pct, geomean_speedup) in
perfbench/expected_train.json, the set every later train run must equal.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import analysis  # noqa: E402

WORKLOADS = ("train", "verify_hard", "eval_store")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
EXPECTED_PATH = os.path.join(HERE, "expected_train.json")
RUNNER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg=""):
    print(msg, file=sys.stderr, flush=True)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "w") as out:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout)
    if proc.returncode != 0:
        with open(log_path) as f:
            tail = f.read()[-3000:]
        raise BenchError("%s failed (exit %d):\n%s" %
                         (" ".join(cmd[:3]), proc.returncode, tail))


def build():
    """Configure and build the runner (incrementally); returns its path."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if (shutil.which("ninja") and
            not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt"))):
        cmd += ["-G", "Ninja"]
    run_logged(cmd, os.path.join(BUILD_DIR, "configure.log"), 300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD_DIR, "--target",
                "perfbench_workloads", "-j", jobs],
               os.path.join(BUILD_DIR, "build.log"), 840)
    return os.path.join(BUILD_DIR, "perfbench_workloads")


def run_workload(runner, args):
    tag = "%s-%d-t%d" % (args.workload, args.seed, args.trace)
    report_path = os.path.join(BUILD_DIR, "reports", tag + ".json")
    tmp_dir = os.path.join(BUILD_DIR, "tmp", "%s-%d" % (tag, os.getpid()))
    os.makedirs(os.path.dirname(report_path), exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", report_path, "--tmp", tmp_dir]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("runner did not finish within %d s" %
                         RUNNER_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError("runner failed (exit %d)" % proc.returncode)
    with open(report_path) as f:
        return json.load(f)


def load_expected():
    if not os.path.exists(EXPECTED_PATH):
        return None
    with open(EXPECTED_PATH) as f:
        return json.load(f)


def record_expected(report):
    with open(EXPECTED_PATH, "w") as f:
        json.dump(analysis.deterministic_plane(report["iterations"][0]), f,
                  indent=1, sort_keys=True)
        f.write("\n")


def units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["end_to_end"] + bench["per_layer"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-expected", action="store_true")
    args = ap.parse_args()
    if args.record_expected and (args.workload != "train" or args.trace):
        ap.error("--record-expected needs --workload train --trace 0")

    try:
        unit_of = units()
        report = run_workload(build(), args)
    except (BenchError, OSError, ValueError,
            subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        return 1

    if args.record_expected:
        record_expected(report)
    expected = load_expected()
    tally = analysis.check_report(report, expected)
    if args.trace:
        metrics = analysis.per_layer(report)
    else:
        metrics = analysis.end_to_end(report)

    env = report["env"]
    log("perfbench %s seed=%d trace=%d  nproc=%d  %s  %s  threads %s" % (
        args.workload, args.seed, args.trace, env["nproc"], env["build_type"],
        env["compiler"], ",".join("%s=%d" % kv
                                  for kv in sorted(env["threads"].items()))))
    for name, value in metrics.items():
        log("  %-28s %16.4f %s" % (name, value, unit_of.get(name, "")))
    if args.trace:
        log("attribution (self time = total - union of child spans):")
        for line in analysis.attribution_report(report):
            log(line)
    if report["workload"] == "verify_hard" and not args.trace:
        tail = analysis.tail_percentile(report["query_ms"])
        log("  verdict p50 %.3f ms; tail p%.1f %.3f ms (rank %d of %d)" % (
            statistics.median(report["query_ms"]), tail[1], tail[0], tail[2],
            tail[3]))
    if report["workload"] == "train" and expected is None:
        log("  (no expected set committed: checked repetition and outputs "
            "only; see --record-expected)")
    log("checks: %d attempted, %d failed (failed_pct %.3f)" % (
        tally.attempted, tally.failed, tally.pct()))
    for why in tally.failures[:20]:
        log("  FAILED " + why)

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": unit_of[name]}
                          for name, value in metrics.items()}}
    os.makedirs(os.path.join(BUILD_DIR, "results"), exist_ok=True)
    with open(os.path.join(BUILD_DIR, "results", "%s-%d-t%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(dict(result, env=env, seed=args.seed,
                       failed_pct=tally.pct(), failures=tally.failures), f,
                  indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
