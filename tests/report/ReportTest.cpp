//===- ReportTest.cpp - Trace schema validation + report rendering ---------===//

#include "report/RunReport.h"
#include "report/TraceData.h"

#include "Golden.h"

#include <gtest/gtest.h>

#include <sstream>

namespace veriopt {
namespace {

TraceLog parseOk(const std::string &Text) {
  TraceLog Log;
  std::string Err;
  EXPECT_TRUE(parseTraceJsonl(Text, Log, &Err)) << Err;
  return Log;
}

std::string validateErr(const std::string &Line) {
  TraceLog Log = parseOk(Line);
  std::string Err;
  EXPECT_FALSE(validateTraceLog(Log, &Err)) << "expected a schema violation";
  return Err;
}

// A minimal valid span line for mutation tests.
const char *ValidSpan =
    R"({"name":"verify.encode","ph":"X","ts_ns":10,"dur_ns":5,"tid":0,"seq":0,"args":{}})";

TEST(Report, ParseRejectsMalformedLineWithLineNumber) {
  TraceLog Log;
  std::string Err;
  std::string Text = std::string(ValidSpan) + "\n{broken\n";
  EXPECT_FALSE(parseTraceJsonl(Text, Log, &Err));
  EXPECT_NE(Err.find("line 2"), std::string::npos) << Err;
}

TEST(Report, ParseSkipsBlankLines) {
  TraceLog Log = parseOk(std::string("\n") + ValidSpan + "\n\n");
  EXPECT_EQ(Log.Events.size(), 1u);
}

TEST(Report, ValidAndKnownNamesPass) {
  TraceLog Log = parseOk(ValidSpan);
  std::string Err;
  EXPECT_TRUE(validateTraceLog(Log, &Err)) << Err;
  const auto &Known = knownTraceEventNames();
  for (const char *N : {"grpo.step", "verify.candidate", "metric"})
    EXPECT_NE(std::find(Known.begin(), Known.end(), N), Known.end()) << N;
}

TEST(Report, RejectsUnknownEventName) {
  std::string Err = validateErr(
      R"({"name":"grpo.bogus","ph":"i","ts_ns":0,"tid":0,"seq":0,"args":{}})");
  EXPECT_NE(Err.find("unknown event name"), std::string::npos) << Err;
}

TEST(Report, RejectsSpanWithoutDuration) {
  std::string Err = validateErr(
      R"({"name":"verify.encode","ph":"X","ts_ns":0,"tid":0,"seq":0,"args":{}})");
  EXPECT_NE(Err.find("dur_ns"), std::string::npos) << Err;
}

TEST(Report, RejectsBadPhase) {
  std::string Err = validateErr(
      R"({"name":"verify.encode","ph":"Z","ts_ns":0,"dur_ns":1,"tid":0,"seq":0,"args":{}})");
  EXPECT_NE(Err.find("'ph'"), std::string::npos) << Err;
}

TEST(Report, RejectsNegativeTimestamp) {
  std::string Err = validateErr(
      R"({"name":"verify.encode","ph":"X","ts_ns":-1,"dur_ns":1,"tid":0,"seq":0,"args":{}})");
  EXPECT_NE(Err.find("ts_ns"), std::string::npos) << Err;
}

TEST(Report, RejectsUnknownTopLevelField) {
  std::string Err = validateErr(
      R"({"name":"verify.encode","ph":"X","ts_ns":0,"dur_ns":1,"tid":0,"seq":0,"args":{},"extra":1})");
  EXPECT_NE(Err.find("unknown top-level field"), std::string::npos) << Err;
}

TEST(Report, RejectsMissingRequiredArg) {
  // grpo.step requires step/mean_reward/ema_reward/equivalent_rate.
  std::string Err = validateErr(
      R"({"name":"grpo.step","ph":"X","ts_ns":0,"dur_ns":1,"tid":0,"seq":0,"args":{"step":1}})");
  EXPECT_NE(Err.find("mean_reward"), std::string::npos) << Err;
}

TEST(Report, BatchVerifySpanRequiresReuseCounts) {
  // batch.verify must carry the dedupe/reuse accounting the report reads.
  std::string Err = validateErr(
      R"({"name":"batch.verify","ph":"X","ts_ns":0,"dur_ns":1,"tid":0,"seq":0,"args":{"candidates":8}})");
  EXPECT_NE(Err.find("unique"), std::string::npos) << Err;
}

TEST(Report, RejectsWrongArgType) {
  std::string Err = validateErr(
      R"({"name":"metric","ph":"C","ts_ns":0,"tid":0,"seq":0,"args":{"key":"k","value":"nope"}})");
  EXPECT_NE(Err.find("value"), std::string::npos) << Err;
}

TEST(Report, ValidatorNamesOffendingLine) {
  std::string Text = std::string(ValidSpan) + "\n" +
                     R"({"name":"nope","ph":"i","ts_ns":0,"tid":0,"seq":0,"args":{}})";
  TraceLog Log = parseOk(Text);
  std::string Err;
  EXPECT_FALSE(validateTraceLog(Log, &Err));
  EXPECT_NE(Err.find("line 2"), std::string::npos) << Err;
}

/// A small synthetic but fully schema-valid run, with fixed timings so the
/// rendering is byte-stable: two stages of grpo.step curves, verification
/// verdicts, a retry ladder, cache metrics, and rule fires.
std::string syntheticRun() {
  std::ostringstream OS;
  auto Step = [&](const char *Stage, int Step, double Mean, double Ema,
                  double Eq) {
    OS << R"({"name":"grpo.step","ph":"X","ts_ns":)" << Step * 1000
       << R"(,"dur_ns":900,"tid":0,"seq":)" << Step
       << R"(,"args":{"stage":")" << Stage << R"(","step":)" << Step
       << R"(,"mean_reward":)" << Mean << R"(,"ema_reward":)" << Ema
       << R"(,"equivalent_rate":)" << Eq << "}}\n";
  };
  Step("stage1", 1, 0.50, 0.50, 0.25);
  Step("stage1", 2, 0.80, 0.65, 0.50);
  Step("stage1", 3, 1.10, 0.80, 0.75);
  Step("stage2", 1, 1.00, 1.00, 0.50);
  Step("stage2", 2, 1.40, 1.20, 1.00);

  auto Cand = [&](int Seq, uint64_t DurNs, const char *Status,
                  const char *Diag, int Conflicts, int Fuel) {
    OS << R"({"name":"verify.candidate","ph":"X","ts_ns":0,"dur_ns":)"
       << DurNs << R"(,"tid":1,"seq":)" << Seq << R"(,"args":{"status":")"
       << Status << R"(","diag":")" << Diag << R"(","conflicts":)"
       << Conflicts << R"(,"fuel":)" << Fuel << "}}\n";
  };
  Cand(0, 5000000, "equivalent", "none", 12, 400);
  Cand(1, 9000000, "not-equivalent", "value-mismatch", 55, 900);
  Cand(2, 1000000, "syntax-error", "parse-error", 0, 0);
  Cand(3, 2000000, "equivalent", "none", 3, 120);

  auto Tier = [&](int Seq, int Tier, const char *Status, const char *Diag) {
    OS << R"({"name":"verify.tier","ph":"i","ts_ns":0,"tid":2,"seq":)" << Seq
       << R"(,"args":{"tier":)" << Tier << R"(,"status":")" << Status
       << R"(","diag":")" << Diag << R"("}})" << "\n";
  };
  Tier(0, 0, "inconclusive", "solver-timeout");
  Tier(1, 1, "equivalent", "none");
  Tier(2, 0, "equivalent", "none");

  auto Metric = [&](int Seq, const char *Key, double V) {
    OS << R"({"name":"metric","ph":"C","ts_ns":0,"tid":3,"seq":)" << Seq
       << R"(,"args":{"key":")" << Key << R"(","value":)" << V << "}}\n";
  };
  Metric(0, "verify.cache.hit", 30);
  Metric(1, "verify.cache.miss", 10);
  Metric(2, "verify.cache.singleflight_join", 4);
  Metric(3, "verify.cache.eviction", 2);

  OS << R"({"name":"batch.verify","ph":"X","ts_ns":0,"dur_ns":7000000,"tid":5,"seq":0,"args":{"candidates":8,"unique":6,"cached":2,"computed":9}})"
     << "\n";
  Metric(4, "batch.groups", 1);
  Metric(5, "batch.candidates", 8);
  Metric(6, "batch.unique", 6);
  Metric(7, "batch.cache_hits", 2);
  Metric(8, "batch.computed", 9);
  Metric(9, "smt.assumption_solves", 6);
  Metric(10, "smt.clauses_retained", 5400);
  Metric(11, "encode.cse_hits", 240);

  // A persistent verdict store session: the journal load span plus the
  // counters the "verdict store efficacy" section reads.
  OS << R"({"name":"store.load","ph":"X","ts_ns":0,"dur_ns":2000000,"tid":8,"seq":0,"args":{"records":12,"live":10,"quarantined":2}})"
     << "\n";
  Metric(12, "store.hits", 18);
  Metric(13, "store.misses", 6);
  Metric(14, "store.writes", 6);
  Metric(15, "store.compactions", 1);
  Metric(16, "store.quarantined", 2);

  OS << R"({"name":"opt.rule_fire","ph":"C","ts_ns":0,"tid":4,"seq":0,"args":{"rule":"dce","count":21}})"
     << "\n";
  OS << R"({"name":"opt.rule_fire","ph":"C","ts_ns":0,"tid":4,"seq":1,"args":{"rule":"const-fold","count":34}})"
     << "\n";

  // A sharded evaluation: one eval.run wrapping two eval.shard spans
  // (deliberately emitted out of shard order — the report must sort).
  OS << R"({"name":"eval.shard","ph":"X","ts_ns":100,"dur_ns":4000000,"tid":7,"seq":1,"args":{"shard":1,"begin":10,"end":20,"samples":10,"correct":6,"semantic_error":1,"syntax_error":0,"inconclusive":3}})"
     << "\n";
  OS << R"({"name":"eval.shard","ph":"X","ts_ns":100,"dur_ns":6000000,"tid":6,"seq":0,"args":{"shard":0,"begin":0,"end":10,"samples":10,"correct":8,"semantic_error":1,"syntax_error":1,"inconclusive":0}})"
     << "\n";
  OS << R"({"name":"eval.run","ph":"X","ts_ns":0,"dur_ns":7000000,"tid":6,"seq":1,"args":{"shards":2,"samples":20,"correct":14,"inconclusive":3,"model":"qwen-3b"}})"
     << "\n";
  return OS.str();
}

TEST(Report, GoldenRendering) {
  TraceLog Log = parseOk(syntheticRun());
  std::string Err;
  ASSERT_TRUE(validateTraceLog(Log, &Err)) << Err;
  std::string Rendered = renderRunReport(Log, /*TopN=*/3);

  expectGolden(Rendered,
               std::string(VERIOPT_TEST_DATA_DIR) + "/golden_report.txt");
}

TEST(Report, RenderIsDeterministic) {
  TraceLog Log = parseOk(syntheticRun());
  EXPECT_EQ(renderRunReport(Log, 3), renderRunReport(Log, 3));
}

TEST(Report, EmptyLogRendersPlaceholders) {
  TraceLog Log;
  std::string R = renderRunReport(Log, 5);
  EXPECT_NE(R.find("no grpo.step events"), std::string::npos);
  EXPECT_NE(R.find("no verify.candidate events"), std::string::npos);
  EXPECT_NE(R.find("no cache metrics"), std::string::npos);
  EXPECT_NE(R.find("no batch.* metrics"), std::string::npos);
  EXPECT_NE(R.find("no store metrics"), std::string::npos);
  EXPECT_NE(R.find("no eval.shard events"), std::string::npos);
}

TEST(Report, EvalShardSpanRequiresRangeArgs) {
  // eval.shard must carry the shard identity + range the report renders.
  std::string Err = validateErr(
      R"({"name":"eval.shard","ph":"X","ts_ns":0,"dur_ns":1,"tid":0,"seq":0,"args":{"shard":0}})");
  EXPECT_NE(Err.find("begin"), std::string::npos) << Err;
}

TEST(Report, ShardSectionSortsByShardIndex) {
  TraceLog Log = parseOk(syntheticRun());
  std::string R = renderRunReport(Log, 3);
  size_t S0 = R.find("shard 0");
  size_t S1 = R.find("shard 1");
  ASSERT_NE(S0, std::string::npos);
  ASSERT_NE(S1, std::string::npos);
  EXPECT_LT(S0, S1) << "shards must render in index order, not emit order";
}

} // namespace
} // namespace veriopt
