//===- DiffTest.cpp - A/B run diff: plane split + golden rendering ---------===//

#include "report/RunDiff.h"
#include "report/TraceData.h"

#include "Golden.h"

#include <gtest/gtest.h>

#include <sstream>

namespace veriopt {
namespace {

TraceLog parseValid(const std::string &Text) {
  TraceLog Log;
  std::string Err;
  EXPECT_TRUE(parseTraceJsonl(Text, Log, &Err)) << Err;
  EXPECT_TRUE(validateTraceLog(Log, &Err)) << Err;
  return Log;
}

/// What a synthetic run looks like; every knob that moves between "runs"
/// is a parameter so tests can isolate deterministic-plane changes from
/// timing-plane changes.
struct RunSpec {
  double RewardBoost = 0;   ///< added to every mean/EMA reward (args plane)
  uint64_t TimeScale = 1;   ///< multiplies every ts_ns/dur_ns (meta plane)
  int TidBase = 0;          ///< shifts every tid (meta plane)
  bool ExtraStage = false;  ///< adds a stage only this run trained
  bool FlipVerdict = false; ///< one candidate flips equivalent -> timeout
};

/// A fixed schema-valid run shaped like a tiny training+eval session.
std::string syntheticRun(const RunSpec &S) {
  std::ostringstream OS;
  auto Step = [&](const char *Stage, int Step, double Mean, double Ema,
                  double Eq) {
    OS << R"({"name":"grpo.step","ph":"X","ts_ns":)" << Step * 1000 * S.TimeScale
       << R"(,"dur_ns":)" << 900 * S.TimeScale << R"(,"tid":)" << S.TidBase
       << R"(,"seq":)" << Step << R"(,"args":{"stage":")" << Stage
       << R"(","step":)" << Step << R"(,"mean_reward":)"
       << Mean + S.RewardBoost << R"(,"ema_reward":)" << Ema + S.RewardBoost
       << R"(,"equivalent_rate":)" << Eq << "}}\n";
  };
  Step("stage1", 1, 0.50, 0.50, 0.25);
  Step("stage1", 2, 0.80, 0.65, 0.50);
  Step("stage2", 1, 1.00, 1.00, 0.50);
  if (S.ExtraStage)
    Step("stage3", 1, 1.50, 1.50, 1.00);

  auto Cand = [&](int Seq, uint64_t DurNs, const char *Status,
                  const char *Diag) {
    OS << R"({"name":"verify.candidate","ph":"X","ts_ns":0,"dur_ns":)"
       << DurNs * S.TimeScale << R"(,"tid":)" << S.TidBase + 1
       << R"(,"seq":)" << Seq << R"(,"args":{"status":")" << Status
       << R"(","diag":")" << Diag << R"(","conflicts":7,"fuel":100}})"
       << "\n";
  };
  Cand(0, 5000000, "equivalent", "none");
  Cand(1, 9000000, "not-equivalent", "value-mismatch");
  Cand(2, 2000000,
       S.FlipVerdict ? "inconclusive" : "equivalent",
       S.FlipVerdict ? "solver-timeout" : "none");

  OS << R"({"name":"verify.tier","ph":"i","ts_ns":0,"tid":)" << S.TidBase + 2
     << R"(,"seq":0,"args":{"tier":0,"status":"equivalent","diag":"none"}})"
     << "\n";

  auto Metric = [&](int Seq, const char *Key, double V) {
    OS << R"({"name":"metric","ph":"C","ts_ns":0,"tid":)" << S.TidBase + 3
       << R"(,"seq":)" << Seq << R"(,"args":{"key":")" << Key
       << R"(","value":)" << V << "}}\n";
  };
  Metric(0, "verify.cache.hit", S.FlipVerdict ? 20 : 30);
  Metric(1, "verify.cache.miss", 10);
  Metric(2, "verify.cache.singleflight_join", 4);
  Metric(3, "verify.cache.eviction", 2);
  return OS.str();
}

RunSummary summarize(const RunSpec &S) {
  return aggregateRun(parseValid(syntheticRun(S)));
}

TEST(RunDiffTest, SameArgsPlaneIsIdenticalDespiteTimingChanges) {
  // Only meta-plane knobs move: the deterministic plane must not notice.
  RunSpec B;
  B.TimeScale = 7;
  B.TidBase = 40;
  RunDiff D = diffRuns(summarize(RunSpec{}), summarize(B));
  EXPECT_TRUE(D.deterministicPlaneIdentical());
  EXPECT_EQ(D.DeterministicOnlyA, 0u);
  EXPECT_EQ(D.DeterministicOnlyB, 0u);
  std::string R = renderRunDiff(D);
  EXPECT_NE(R.find("IDENTICAL"), std::string::npos) << R;
  EXPECT_NE(R.find("same-seed contract holds"), std::string::npos) << R;
}

TEST(RunDiffTest, IdenticalRunsReportZeroDelta) {
  RunDiff D = diffRuns(summarize(RunSpec{}), summarize(RunSpec{}));
  EXPECT_TRUE(D.deterministicPlaneIdentical());
  std::string R = renderRunDiff(D);
  // Every count row must carry an explicit zero delta.
  EXPECT_NE(R.find("(+0)"), std::string::npos) << R;
  EXPECT_EQ(R.find("DIVERGED"), std::string::npos) << R;
}

TEST(RunDiffTest, ArgsPlaneChangeIsDetected) {
  RunSpec B;
  B.RewardBoost = 0.25; // args-plane change: reward values differ
  RunDiff D = diffRuns(summarize(RunSpec{}), summarize(B));
  EXPECT_FALSE(D.deterministicPlaneIdentical());
  EXPECT_GT(D.DeterministicOnlyA, 0u);
  EXPECT_GT(D.DeterministicOnlyB, 0u);
  std::string R = renderRunDiff(D);
  EXPECT_NE(R.find("DIVERGED"), std::string::npos) << R;
}

TEST(RunDiffTest, DeltasAreSortedByKey) {
  RunSpec B;
  B.RewardBoost = 0.25;
  RunDiff D = diffRuns(summarize(RunSpec{}), summarize(B));
  for (size_t I = 1; I < D.DeterministicDeltas.size(); ++I)
    EXPECT_LT(D.DeterministicDeltas[I - 1].Key, D.DeterministicDeltas[I].Key);
}

TEST(RunDiffTest, StageOnlyInOneRunIsCalledOut) {
  RunSpec B;
  B.ExtraStage = true;
  std::string R = renderRunDiff(diffRuns(summarize(RunSpec{}), summarize(B)));
  EXPECT_NE(R.find("stage3: only in B (1 steps)"), std::string::npos) << R;
}

TEST(RunDiffTest, RenderIsDeterministic) {
  RunSpec B;
  B.FlipVerdict = true;
  B.TimeScale = 3;
  RunDiff D = diffRuns(summarize(RunSpec{}), summarize(B));
  EXPECT_EQ(renderRunDiff(D, 5), renderRunDiff(D, 5));
}

TEST(RunDiffTest, EmptyRunsRenderPlaceholders) {
  RunDiff D = diffRuns(RunSummary{}, RunSummary{});
  std::string R = renderRunDiff(D);
  EXPECT_NE(R.find("no grpo.step events in either trace"), std::string::npos);
  EXPECT_NE(R.find("no verify.candidate events in either trace"),
            std::string::npos);
  EXPECT_NE(R.find("no cache metrics in either trace"), std::string::npos);
  EXPECT_NE(R.find("no spans in either trace"), std::string::npos);
  EXPECT_TRUE(D.deterministicPlaneIdentical());
}

TEST(RunDiffTest, GoldenRendering) {
  // A seeded A/B pair exercising every diff section: verdict flip, reward
  // shift, an extra stage, and scaled timings.
  RunSpec B;
  B.RewardBoost = 0.30;
  B.TimeScale = 2;
  B.ExtraStage = true;
  B.FlipVerdict = true;
  std::string Rendered =
      renderRunDiff(diffRuns(summarize(RunSpec{}), summarize(B)), /*TopN=*/3);

  expectGolden(Rendered,
               std::string(VERIOPT_TEST_DATA_DIR) + "/golden_diff.txt");
}

TEST(RunDiffTest, WallClockMetricsLiveOnTheTimingPlane) {
  // `*_ms` metric exports carry elapsed-time values, so they must not
  // diverge the deterministic plane — unlike any other metric key.
  auto Run = [](double WallMs, double Queries) {
    std::ostringstream OS;
    OS << R"({"name":"metric","ph":"C","ts_ns":0,"tid":0,"seq":0,"args":{"key":"grpo.score_wall_ms","value":)"
       << WallMs << "}}\n";
    OS << R"({"name":"metric","ph":"C","ts_ns":0,"tid":0,"seq":1,"args":{"key":"verify.queries","value":)"
       << Queries << "}}\n";
    return aggregateRun(parseValid(OS.str()));
  };
  EXPECT_TRUE(
      diffRuns(Run(12.5, 40), Run(99.0, 40)).deterministicPlaneIdentical());
  EXPECT_FALSE(
      diffRuns(Run(12.5, 40), Run(12.5, 41)).deterministicPlaneIdentical());
  // The timing-plane event still counts toward event totals, just not
  // toward the deterministic multiset.
  RunSummary S = Run(12.5, 40);
  EXPECT_EQ(S.Events, 2u);
  EXPECT_EQ(S.DeterministicEvents, 1u);
}

TEST(RunDiffTest, DurabilityMetricsLiveOffTheDeterministicPlane) {
  // `io.*` metric exports measure how the *disk* behaved — flush failures,
  // degraded-mode gauges, checkpoint retries. A chaos run and a fault-free
  // same-seed run legitimately differ there, so the deterministic-plane
  // gate must ignore them while still catching any correctness-plane
  // drift.
  auto Run = [](double FlushFailures, double StoreWrites) {
    std::ostringstream OS;
    OS << R"({"name":"metric","ph":"C","ts_ns":0,"tid":0,"seq":0,"args":{"key":"io.store.flush_failures","value":)"
       << FlushFailures << "}}\n";
    OS << R"({"name":"metric","ph":"C","ts_ns":0,"tid":0,"seq":1,"args":{"key":"store.writes","value":)"
       << StoreWrites << "}}\n";
    return aggregateRun(parseValid(OS.str()));
  };
  // Faulty vs fault-free: only the durability plane moved — identical.
  EXPECT_TRUE(
      diffRuns(Run(7, 40), Run(0, 40)).deterministicPlaneIdentical());
  // But a store.writes divergence is a real correctness failure.
  EXPECT_FALSE(
      diffRuns(Run(0, 40), Run(0, 41)).deterministicPlaneIdentical());
  RunSummary S = Run(7, 40);
  EXPECT_EQ(S.Events, 2u);
  EXPECT_EQ(S.DeterministicEvents, 1u);
}

TEST(RunDiffTest, TruncatedJsonlNamesTheLine) {
  // A truncated final line (crash mid-write) must be a clean parse error,
  // not a crash — the CLI maps this to exit code 2.
  std::string Text = syntheticRun(RunSpec{});
  Text += R"({"name":"metric","ph":"C","ts_ns":0,"tid":9,"seq":9,"args":{"key":"x","va)";
  TraceLog Log;
  std::string Err;
  EXPECT_FALSE(parseTraceJsonl(Text, Log, &Err));
  EXPECT_NE(Err.find("line"), std::string::npos) << Err;
}

} // namespace
} // namespace veriopt
