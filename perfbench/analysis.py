"""Turns a perfbench workload report into the benchmark's metrics.

The workload runner (perfbench/workloads) measures and checks; this
module only computes: the tail-percentile rule, span self time, failure
accounting, and the end-to-end and per-layer metric sets of
BENCHMARK.json. Pure functions of the report, so tests/ can pin them.
"""

import bisect
import math
import statistics

# Counter families whose values a train run must reproduce exactly: the
# solver's work and the verifier's verdict stream (docs/COMPARISON.md's
# deterministic plane). verify.cache.* is left out: its hits include
# single-flight joins, which depend on the thread schedule.
EXPECTED_COUNTER_PREFIXES = ("smt.", "verify.")
EXPECTED_COUNTER_EXCLUDE = ("verify.cache.",)

# Parents whose time is broken down into children plus an explicit
# "unattributed" row in the traced run's report.
ATTRIBUTED_PARENTS = ("grpo.step", "verify.candidate")


def tail_percentile(values, beyond=10):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, rank, count), where `rank` is the 1-based
    position of `value` in the sorted samples, or None when there are too
    few samples to leave `beyond` of them above any sample.
    """
    n = len(values)
    if n <= beyond:
        return None
    rank = n - beyond
    return sorted(values)[rank - 1], 100.0 * rank / n, rank, n


def interval_union(intervals):
    """Total length covered by a set of [start, end) intervals."""
    covered, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def span_breakdown(spans, parents):
    """Self time of every span named in `parents`.

    `spans` holds [name, tid, start_ns, dur_ns] rows. A span's children are
    the other spans of its thread that lie inside its interval; its self
    time is its duration minus the union of the children's intervals, so
    nested and overlapping children are counted once. Returns, per parent
    name: count, total_ns, self_ns, and children_ns mapping each direct
    child's name to the summed duration of the direct children so named
    (the spans not inside another child).
    """
    by_tid = {}
    for row in spans:
        by_tid.setdefault(row[1], []).append(row)
    out = {name: {"count": 0, "total_ns": 0, "self_ns": 0, "children_ns": {}}
           for name in parents}
    for rows in by_tid.values():
        # Start ascending, longer first: an enclosing span precedes the
        # spans it contains.
        rows.sort(key=lambda r: (r[2], -r[3]))
        starts = [r[2] for r in rows]
        for i, (name, _tid, start, dur) in enumerate(rows):
            if name not in out:
                continue
            end = start + dur
            agg = out[name]
            agg["count"] += 1
            agg["total_ns"] += dur
            children, reach = [], start
            j = bisect.bisect_left(starts, start)
            while j < len(rows) and rows[j][2] <= end:
                c_name, _, c_start, c_dur = rows[j]
                c_end = c_start + c_dur
                if j != i and c_end <= end:
                    children.append((c_start, c_end))
                    if c_end > reach:  # not inside an earlier child
                        reach = c_end
                        agg["children_ns"][c_name] = (
                            agg["children_ns"].get(c_name, 0) + c_dur)
                j += 1
            agg["self_ns"] += dur - interval_union(children)
    return out


def attribution_rows(agg):
    """Rows that sum exactly to the parent's total: one per direct child
    name, an overlap correction when siblings overlap, and unattributed."""
    rows = sorted(agg["children_ns"].items())
    attributed = agg["total_ns"] - agg["self_ns"]
    overlap = attributed - sum(ns for _, ns in rows)
    if overlap:
        rows.append(("overlap", overlap))
    rows.append(("unattributed", agg["self_ns"]))
    return rows


def failed_pct(attempted, failed):
    """Failed operations as a percentage of attempted ones."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed count outside [0, attempted]")
    return 100.0 * failed / attempted


class Tally:
    """Attempted and failed operations; every check counts once."""

    def __init__(self, attempted=0, failures=()):
        self.attempted = attempted
        self.failures = list(failures)

    def check(self, ok, why):
        self.attempted += 1
        if not ok:
            self.failures.append(why)

    @property
    def failed(self):
        return len(self.failures)

    def pct(self):
        return failed_pct(self.attempted, self.failed)


def deterministic_plane(iteration):
    """The part of a train iteration that must repeat bit for bit."""
    counters = {k: v for k, v in iteration["counters"].items()
                if k.startswith(EXPECTED_COUNTER_PREFIXES)
                and not k.startswith(EXPECTED_COUNTER_EXCLUDE)}
    return {"counters": counters,
            "diff_correct_pct": iteration["diff_correct_pct"],
            "geomean_speedup": iteration["geomean_speedup"]}


def plane_differences(got, want):
    """Names of the fields where two deterministic planes differ."""
    diffs = [k for k in ("diff_correct_pct", "geomean_speedup")
             if got[k] != want[k]]
    keys = set(got["counters"]) | set(want["counters"])
    diffs += sorted(k for k in keys
                    if got["counters"].get(k, 0) != want["counters"].get(k, 0))
    return diffs


def check_report(report, expected):
    """All correctness checks: the runner's own plus, for train, exact
    repetition across iterations and equality with the committed expected
    plane `expected` (None when nothing is committed)."""
    tally = Tally(report["checks"]["attempted"],
                  report["checks"]["failures"])
    if report["workload"] == "train":
        planes = [deterministic_plane(it) for it in report["iterations"]]
        for n, plane in enumerate(planes[1:], start=2):
            diffs = plane_differences(plane, planes[0])
            tally.check(not diffs, "train: iteration %d differs from the "
                        "first in %s" % (n, ", ".join(diffs[:8])))
        for n, plane in enumerate(planes if expected else [], start=1):
            diffs = plane_differences(plane, expected)
            tally.check(not diffs, "train: iteration %d differs from the "
                        "expected set in %s" % (n, ", ".join(diffs[:8])))
    return tally


def _ratio(num, den):
    return num / den if den else 0.0


def _decided_pct(counters):
    """Share of verifier queries that ended in a verdict, not in
    Inconclusive (budget, unsupported construct, loop bound)."""
    queries = counters.get("verify.queries", 0)
    undecided = counters.get("verify.verdict.inconclusive", 0)
    return 100.0 * _ratio(queries - undecided, queries)


def _eval_rates(rounds):
    """(cold, warm, all) samples per second over eval_store rounds."""
    cold_n = sum(r["samples_per_pass"] for r in rounds)
    cold_s = sum(r["cold_s"] for r in rounds)
    warm_n = sum(r["samples_per_pass"] * len(r["warm_s"]) for r in rounds)
    warm_s = sum(sum(r["warm_s"]) for r in rounds)
    return (_ratio(cold_n, cold_s), _ratio(warm_n, warm_s),
            _ratio(cold_n + warm_n, cold_s + warm_s))


def end_to_end(report):
    """The end-to-end metrics of an untraced run, as {name: value}."""
    w = report["workload"]
    m = {"setup_s": statistics.median(report["setup_s"]),
         "peak_rss_mb": report["peak_rss_kb"] / 1024.0}
    if w == "train":
        its = report["iterations"]
        m["throughput_per_s"] = (sum(it["rollouts"] for it in its) /
                                 sum(it["pipeline_s"] for it in its))
        m["decided_pct"] = _decided_pct(its[0]["counters"])
        m["diff_correct_pct"] = its[0]["diff_correct_pct"]
        m["geomean_speedup"] = its[0]["geomean_speedup"]
    elif w == "verify_hard":
        m["throughput_per_s"] = (len(report["query_ms"]) /
                                 sum(report["pass_s"]))
        m["decided_pct"] = report["decided_pct"]
        m["diff_correct_pct"] = report["diff_correct_pct"]
        m["geomean_speedup"] = report["geomean_speedup"]
    else:
        m["throughput_per_s"] = _eval_rates(report["rounds"])[2]
        m["decided_pct"] = _decided_pct(report["counters"])
        m["diff_correct_pct"] = report["diff_correct_pct"]
        m["geomean_speedup"] = report["geomean_speedup"]
    return m


PER_LAYER_NAMES = (
    "data.build_ms", "data.kept_ratio",
    "model.generate_ms",
    "ir.parse_ms",
    "verify.make_key_ms", "verify.unattributed_ms", "verify.candidate_ms",
    "verify.falsify_ms", "verify.encode_ms", "verify.source_encoding_ms",
    "verify.against_encoding_ms", "verify.batch_ms",
    "verify.batch.dedupe_ratio", "verify.cache.hit_rate", "verify.queries",
    "verify.inconclusive", "verify.verdict_p50_ms", "verify.verdict_tail_ms",
    "verify.verdict_tail_pct", "verify.verdict_samples",
    "smt.sat_ms", "smt.conflicts", "smt.decisions", "smt.propagations",
    "smt.conflicts_per_s", "smt.propagations_per_s", "encode.cse_hit_rate",
    "rl.step_ms", "rl.score_ms", "rl.step.unattributed_ms",
    "rl.rollouts_per_s",
    "cost.estimate_ms",
    "store.open_ms", "store.hits", "store.flush_ms", "store.writes",
    "eval.cold_samples_per_s", "eval.warm_samples_per_s",
    "pipeline.stage_ms.stage1", "pipeline.stage_ms.stage2",
    "pipeline.stage_ms.stage3", "pipeline.eval_ms",
    "trace.overhead_pct",
)

SPAN_NAMES = ("grpo.step", "grpo.generate", "grpo.score", "batch.verify",
              "verify.candidate", "verify.falsify", "verify.encode",
              "verify.sat", "eval.run", "pipeline.stage:stage1",
              "pipeline.stage:stage2", "pipeline.stage:stage3")


def per_layer(report):
    """The per-layer metrics of a traced run, as {name: value}. A layer
    the workload does not exercise reads 0."""
    w = report["workload"]
    spans = span_breakdown(report["spans"], SPAN_NAMES)

    def total_ms(name):
        return spans[name]["total_ns"] / 1e6

    def self_ms(name):
        return spans[name]["self_ns"] / 1e6

    if w == "train":
        counters = report["iterations"][-1]["counters"]
    else:
        counters = report["counters"]

    def c(name):
        return counters.get(name, 0)

    m = dict.fromkeys(PER_LAYER_NAMES, 0.0)
    m["data.build_ms"] = 1e3 * statistics.median(report["setup_s"])
    m["data.kept_ratio"] = _ratio(report["data.kept"],
                                  report["data.generated"])
    for name in ("ir.parse_ms", "verify.make_key_ms", "cost.estimate_ms",
                 "verify.source_encoding_ms", "verify.against_encoding_ms",
                 "model.generate_ms"):
        if name in report:
            m[name] = report[name]
    if w == "train":
        m["model.generate_ms"] = total_ms("grpo.generate")
    m["verify.unattributed_ms"] = self_ms("verify.candidate")
    m["verify.candidate_ms"] = total_ms("verify.candidate")
    m["verify.falsify_ms"] = self_ms("verify.falsify")
    m["verify.encode_ms"] = self_ms("verify.encode")
    m["verify.batch_ms"] = total_ms("batch.verify")
    m["verify.batch.dedupe_ratio"] = _ratio(c("batch.unique"),
                                            c("batch.candidates"))
    m["verify.cache.hit_rate"] = _ratio(
        c("verify.cache.hit"), c("verify.cache.hit") + c("verify.cache.miss"))
    m["verify.queries"] = c("verify.queries")
    m["verify.inconclusive"] = c("verify.verdict.inconclusive")

    if w == "verify_hard":
        verdict_ms = report["query_ms"]  # the untraced pass, timed outside
    else:
        verdict_ms = [row[3] / 1e6 for row in report["spans"]
                      if row[0] == "verify.candidate"]
    if verdict_ms:
        m["verify.verdict_p50_ms"] = statistics.median(verdict_ms)
        m["verify.verdict_samples"] = len(verdict_ms)
    tail = tail_percentile(verdict_ms)
    if tail:
        m["verify.verdict_tail_ms"], m["verify.verdict_tail_pct"] = tail[:2]

    m["smt.sat_ms"] = self_ms("verify.sat")
    for name in ("smt.conflicts", "smt.decisions", "smt.propagations"):
        m[name] = c(name)
    sat_s = m["smt.sat_ms"] / 1e3
    m["smt.conflicts_per_s"] = _ratio(m["smt.conflicts"], sat_s)
    m["smt.propagations_per_s"] = _ratio(m["smt.propagations"], sat_s)
    m["encode.cse_hit_rate"] = _ratio(
        c("encode.cse_hits"), c("encode.cse_hits") + c("encode.cse_misses"))

    m["rl.step_ms"] = total_ms("grpo.step")
    m["rl.score_ms"] = total_ms("grpo.score")
    m["rl.step.unattributed_ms"] = self_ms("grpo.step")
    m["store.hits"] = c("store.hits")
    m["store.writes"] = c("store.writes")
    for stage in ("stage1", "stage2", "stage3"):
        m["pipeline.stage_ms." + stage] = total_ms("pipeline.stage:" + stage)
    m["pipeline.eval_ms"] = total_ms("eval.run")

    if w == "train":
        untraced, traced = report["iterations"][0], report["iterations"][-1]
        m["rl.rollouts_per_s"] = untraced["rollouts"] / untraced["pipeline_s"]
        base, with_trace = untraced["pipeline_s"], traced["pipeline_s"]
    elif w == "verify_hard":
        base, with_trace = report["pass_s"][0], report["traced_s"]
    else:
        untraced, traced = report["rounds"][0], report["rounds"][-1]
        cold, warm, _ = _eval_rates([untraced])
        m["eval.cold_samples_per_s"] = cold
        m["eval.warm_samples_per_s"] = warm
        m["store.open_ms"] = statistics.median(traced["warm_open_ms"])
        m["store.flush_ms"] = traced["flush_ms"]

        def round_s(r):
            return r["cold_s"] + sum(r["warm_s"])
        base, with_trace = round_s(untraced), round_s(traced)
    m["trace.overhead_pct"] = 100.0 * (with_trace - base) / base
    return m


def attribution_report(report):
    """Human-readable breakdown of the attributed parents (traced run)."""
    spans = span_breakdown(report["spans"], ATTRIBUTED_PARENTS)
    lines = []
    for name in ATTRIBUTED_PARENTS:
        agg = spans[name]
        if not agg["count"]:
            continue
        lines.append("  %-24s total %12.3f ms  (%d spans)" %
                     (name, agg["total_ns"] / 1e6, agg["count"]))
        rows = attribution_rows(agg)
        for child, ns in rows:
            lines.append("    %-22s %12.3f ms  %5.1f%%" %
                         (child, ns / 1e6,
                          100.0 * _ratio(ns, agg["total_ns"])))
        assert sum(ns for _, ns in rows) == agg["total_ns"]
    return lines


def spread(values):
    """Interquartile range as a share of the median: the run-to-run spread
    that each end-to-end bound must exceed."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else math.inf
