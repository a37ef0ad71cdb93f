//===- TraceTest.cpp - TraceRecorder + sink tests --------------------------===//
//
// Covers the tentpole contracts: the determinism plane (same seed, any
// thread count => identical multiset of (Name, Phase, Args)), JSONL writer
// escaping and failure atomicity, and the Chrome exporter.
//
//===----------------------------------------------------------------------===//

#include "trace/Trace.h"

#include "rl/Trainer.h"
#include "support/IoEnv.h"
#include "support/ThreadPool.h"
#include "trace/Json.h"
#include "trace/Metrics.h"
#include "report/TraceData.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

namespace veriopt {
namespace {

/// Deterministic-plane key of one event: name, phase, and args — exactly
/// the fields the cross-thread-count contract covers (no ts/dur/tid/seq,
/// no meta).
std::string detKey(const TraceEvent &E) {
  std::string K = E.Name;
  K.push_back('|');
  K.push_back(static_cast<char>(E.Phase));
  for (const TraceArg &A : E.Args) {
    K.push_back('|');
    K += A.Key;
    K.push_back('=');
    switch (A.K) {
    case TraceArg::Kind::Int:
    case TraceArg::Kind::Bool:
      K += std::to_string(A.I);
      break;
    case TraceArg::Kind::Float:
      K += jsonNumber(A.F);
      break;
    case TraceArg::Kind::Str:
      K += A.S;
      break;
    }
  }
  return K;
}

std::multiset<std::string> detMultiset(const std::vector<TraceEvent> &Evs) {
  std::multiset<std::string> Out;
  for (const TraceEvent &E : Evs)
    Out.insert(detKey(E));
  return Out;
}

const Dataset &tinyDataset() {
  static Dataset DS = [] {
    DatasetOptions O;
    O.TrainCount = 8;
    O.ValidCount = 0;
    O.Seed = 33;
    return buildDataset(O);
  }();
  return DS;
}

/// One short traced GRPO run at the given thread count; cache off so the
/// event stream depends only on the (deterministic) verification work.
std::vector<TraceEvent> tracedRun(unsigned Threads) {
  // Build the (static) dataset before enabling the recorder, so its own
  // InstCombine rule fires don't leak into only the first traced run.
  const Dataset &DS = tinyDataset();

  TraceRecorder &R = TraceRecorder::instance();
  R.clear();
  R.enable();

  RewritePolicyModel Model(presetQwen3B());
  ThreadPool Pool(Threads);
  GRPOOptions G;
  G.GroupSize = 4;
  G.PromptsPerStep = 2;
  G.Seed = 17;
  G.Pool = &Pool;
  G.TraceLabel = "stage1";
  G.Verify.Base.FalsifyTrials = 8;
  G.Verify.MaxTiers = 1;
  RewardFn Reward = [](const Sample &S, const Completion &C,
                       const RolloutVerdicts &V) {
    RewardBreakdown B = answerReward(S, C, *V.Answer, V.AnswerVerify);
    RolloutScore Sc;
    Sc.Reward = B.Total;
    Sc.Equivalent = B.Equivalent;
    Sc.IsCopy = B.IsCopy;
    Sc.AnswerVerify = B.Verify;
    return Sc;
  };
  GRPOTrainer Trainer(Model, Reward, G);
  Trainer.train(DS.Train, 3);

  R.disable();
  std::vector<TraceEvent> Out = R.snapshot();
  R.clear();
  return Out;
}

TEST(Trace, DisabledRecordsNothing) {
  TraceRecorder &R = TraceRecorder::instance();
  R.disable();
  R.clear();
  { TRACE_SPAN("verify.encode"); }
  R.instant("verify.tier", {TraceArg::ofInt("tier", 0)});
  EXPECT_EQ(R.eventCount(), 0u);
}

TEST(Trace, SpanRecordsArgsAndDuration) {
  TraceRecorder &R = TraceRecorder::instance();
  R.clear();
  R.enable();
  {
    TraceSpan S("grpo.step");
    ASSERT_TRUE(S.active());
    S.arg(TraceArg::ofInt("step", 3));
    S.meta(TraceArg::ofFloat("score_wall_ms", 1.5));
  }
  R.disable();
  std::vector<TraceEvent> Evs = R.snapshot();
  R.clear();
  ASSERT_EQ(Evs.size(), 1u);
  EXPECT_EQ(Evs[0].Name, "grpo.step");
  EXPECT_EQ(Evs[0].Phase, TracePhase::Complete);
  ASSERT_EQ(Evs[0].Args.size(), 1u);
  EXPECT_EQ(Evs[0].Args[0].Key, "step");
  ASSERT_EQ(Evs[0].Meta.size(), 1u);
  EXPECT_EQ(Evs[0].Meta[0].Key, "score_wall_ms");
}

TEST(Trace, DeterministicEventMultisetAcrossThreadCounts) {
  // The tentpole guarantee: for a fixed seed the multiset of
  // (Name, Phase, Args) is identical at any thread count. Timing fields
  // and Meta may differ arbitrarily; scheduling must not leak into Args.
  std::multiset<std::string> Serial = detMultiset(tracedRun(1));
  std::multiset<std::string> Threaded = detMultiset(tracedRun(4));
  ASSERT_FALSE(Serial.empty());
  EXPECT_EQ(Serial, Threaded);

  // Sanity: the run actually exercised the instrumented layers.
  auto CountPrefix = [&](const std::string &P) {
    return std::count_if(Serial.begin(), Serial.end(),
                         [&](const std::string &K) {
                           return K.compare(0, P.size(), P) == 0;
                         });
  };
  EXPECT_EQ(CountPrefix("grpo.step|"), 3);
  EXPECT_EQ(CountPrefix("grpo.score|"), 3);
  EXPECT_GT(CountPrefix("verify.candidate|"), 0);
}

TEST(Trace, JsonlEscapingRoundTrips) {
  TraceRecorder &R = TraceRecorder::instance();
  R.clear();
  R.enable();
  const std::string Nasty = "quote\" backslash\\ newline\n tab\t ctrl\x01";
  R.instant("verify.tier", {TraceArg::ofStr("status", Nasty),
                            TraceArg::ofInt("tier", 1)});
  R.disable();

  const std::string Path = ::testing::TempDir() + "trace_escape.jsonl";
  ASSERT_TRUE(R.writeJsonl(Path));
  R.clear();

  TraceLog Log;
  std::string Err;
  ASSERT_TRUE(loadTraceJsonl(Path, Log, &Err)) << Err;
  ASSERT_EQ(Log.Events.size(), 1u);
  const JsonValue *Status = Log.Events[0].get("args")->get("status");
  ASSERT_NE(Status, nullptr);
  EXPECT_EQ(Status->str(), Nasty);
  std::remove(Path.c_str());
}

TEST(Trace, JsonlWriteFailureLeavesOldFileIntact) {
  // Atomic write-then-rename: a failed write must not clobber the previous
  // trace, and must not leave a stray .tmp behind.
  const std::string Dir = ::testing::TempDir();
  const std::string Path = Dir + "trace_atomic.jsonl";
  {
    std::ofstream OS(Path);
    OS << "previous contents\n";
  }
  TraceRecorder &R = TraceRecorder::instance();
  R.clear();
  R.enable();
  R.instant("verify.tier", {TraceArg::ofInt("tier", 0)});
  R.disable();

  const std::string Bad = Dir + "no_such_dir_xyz/trace.jsonl";
  EXPECT_FALSE(R.writeJsonl(Bad));

  // Success path replaces atomically and cleans up the temp file.
  ASSERT_TRUE(R.writeJsonl(Path));
  R.clear();
  std::ifstream IS(Path);
  std::string First;
  std::getline(IS, First);
  EXPECT_NE(First, "previous contents");
  EXPECT_FALSE(std::ifstream(Path + ".tmp").good());
  std::remove(Path.c_str());
}

TEST(Trace, MetricsLinesAppendedAndSchemaValid) {
  TraceRecorder &R = TraceRecorder::instance();
  R.clear();
  R.enable();
  R.instant("verify.tier", {TraceArg::ofInt("tier", 0),
                            TraceArg::ofStr("status", "equivalent"),
                            TraceArg::ofStr("diag", "none")});
  R.disable();

  MetricsRegistry M;
  M.counter("verify.cache.hit").inc(7);
  M.histogram("verify.conflicts", {1.0, 4.0}).observe(2.0);

  const std::string Path = ::testing::TempDir() + "trace_metrics.jsonl";
  ASSERT_TRUE(R.writeJsonl(Path, &M));
  R.clear();

  TraceLog Log;
  std::string Err;
  ASSERT_TRUE(loadTraceJsonl(Path, Log, &Err)) << Err;
  ASSERT_TRUE(validateTraceLog(Log, &Err)) << Err;
  ASSERT_EQ(Log.Events.size(), 3u); // tier + metric + metric.hist
  bool SawCounter = false, SawHist = false;
  for (const JsonValue &E : Log.Events) {
    if (E.get("name")->str() == "metric") {
      SawCounter = true;
      EXPECT_EQ(E.get("args")->get("key")->str(), "verify.cache.hit");
      EXPECT_DOUBLE_EQ(E.get("args")->get("value")->number(), 7.0);
    } else if (E.get("name")->str() == "metric.hist") {
      SawHist = true;
      EXPECT_EQ(E.get("args")->get("key")->str(), "verify.conflicts");
      EXPECT_DOUBLE_EQ(E.get("args")->get("count")->number(), 1.0);
    }
  }
  EXPECT_TRUE(SawCounter);
  EXPECT_TRUE(SawHist);
  std::remove(Path.c_str());
}

TEST(Trace, ChromeExportIsLoadableJson) {
  TraceRecorder &R = TraceRecorder::instance();
  R.clear();
  R.enable();
  {
    TraceSpan S("verify.encode");
    S.arg(TraceArg::ofInt("n", 1));
  }
  R.instant("verify.tier", {TraceArg::ofInt("tier", 2)});
  R.disable();

  const std::string Path = ::testing::TempDir() + "trace_chrome.json";
  ASSERT_TRUE(R.writeChromeTrace(Path));
  R.clear();

  std::ifstream IS(Path);
  std::stringstream SS;
  SS << IS.rdbuf();
  JsonValue V;
  std::string Err;
  ASSERT_TRUE(parseJson(SS.str(), V, &Err)) << Err;
  const JsonValue *Evs = V.get("traceEvents");
  ASSERT_NE(Evs, nullptr);
  ASSERT_EQ(Evs->array().size(), 2u);
  const JsonValue &Span = Evs->array()[0];
  EXPECT_EQ(Span.get("ph")->str(), "X");
  EXPECT_NE(Span.get("dur"), nullptr); // microseconds, Chrome field name
  EXPECT_NE(Span.get("pid"), nullptr);
  std::remove(Path.c_str());
}

TEST(Trace, SnapshotOrderedByTidThenSeq) {
  TraceRecorder &R = TraceRecorder::instance();
  R.clear();
  R.enable();
  for (int I = 0; I < 5; ++I)
    R.instant("verify.tier", {TraceArg::ofInt("tier", I)});
  R.disable();
  std::vector<TraceEvent> Evs = R.snapshot();
  R.clear();
  ASSERT_EQ(Evs.size(), 5u);
  for (size_t I = 1; I < Evs.size(); ++I) {
    bool Ordered = Evs[I - 1].Tid < Evs[I].Tid ||
                   (Evs[I - 1].Tid == Evs[I].Tid &&
                    Evs[I - 1].Seq < Evs[I].Seq);
    EXPECT_TRUE(Ordered) << "snapshot not sorted at index " << I;
  }
}

//===--- Streaming sink ------------------------------------------------------===//

std::string slurp(const std::string &Path) {
  std::ifstream IS(Path, std::ios::binary);
  std::stringstream SS;
  SS << IS.rdbuf();
  return SS.str();
}

TEST(Trace, StreamedFileByteIdenticalToBufferedSink) {
  // The same recorded events, written once through the buffered sink and
  // once through the streaming sink, must produce byte-identical files —
  // metric lines included.
  TraceRecorder &R = TraceRecorder::instance();
  R.clear();
  R.enable();
  for (int I = 0; I < 7; ++I)
    R.instant("verify.tier", {TraceArg::ofInt("tier", I),
                              TraceArg::ofStr("status", "equivalent"),
                              TraceArg::ofStr("diag", "none")});
  {
    TraceSpan S("verify.encode");
    S.arg(TraceArg::ofInt("n", 3));
  }
  R.disable();

  MetricsRegistry M;
  M.counter("store.hits").inc(5);

  const std::string Buffered = ::testing::TempDir() + "trace_buf.jsonl";
  ASSERT_TRUE(R.writeJsonl(Buffered, &M)); // does not consume the buffers

  const std::string Streamed = ::testing::TempDir() + "trace_stream.jsonl";
  ASSERT_TRUE(R.streamTo(Streamed, &M));
  ASSERT_TRUE(R.flushStream()); // drains the very same events
  ASSERT_TRUE(R.finishStream());

  EXPECT_EQ(slurp(Buffered), slurp(Streamed));
  EXPECT_FALSE(std::ifstream(Streamed + ".stream").good())
      << "publish must rename the in-progress file away";
  std::remove(Buffered.c_str());
  std::remove(Streamed.c_str());
}

TEST(Trace, StreamingAutoFlushBoundsMemory) {
  TraceRecorder &R = TraceRecorder::instance();
  R.clear();
  const std::string Path = ::testing::TempDir() + "trace_autoflush.jsonl";
  ASSERT_TRUE(R.streamTo(Path));
  R.flushEvery(3);
  R.enable();
  for (int I = 0; I < 8; ++I)
    R.instant("verify.tier", {TraceArg::ofInt("tier", I)});
  R.disable();

  // Every completed batch of 3 was drained to disk as it filled: the
  // resident buffers hold only the tail, and the in-progress file already
  // carries the flushed prefix.
  EXPECT_LT(R.eventCount(), 8u);
  std::string Partial = slurp(Path + ".stream");
  size_t PartialLines = std::count(Partial.begin(), Partial.end(), '\n');
  EXPECT_GE(PartialLines, 6u);

  ASSERT_TRUE(R.finishStream());
  R.flushEvery(4096); // restore the default for later tests
  EXPECT_EQ(R.eventCount(), 0u);
  std::string Final = slurp(Path);
  EXPECT_EQ(std::count(Final.begin(), Final.end(), '\n'), 8);
  std::remove(Path.c_str());
}

TEST(Trace, StreamingKeepsEventMultisetUnderConcurrency) {
  // Concurrent emitters + mid-run drains: interleaving may differ from the
  // buffered sink, but the deterministic multiset must survive intact, and
  // the published file must be schema-valid.
  TraceRecorder &R = TraceRecorder::instance();
  R.clear();
  const std::string Path = ::testing::TempDir() + "trace_mt_stream.jsonl";
  ASSERT_TRUE(R.streamTo(Path));
  R.flushEvery(5);
  R.enable();
  {
    ThreadPool Pool(4);
    Pool.parallelFor(64, [&](size_t I) {
      R.instant("verify.tier",
                {TraceArg::ofInt("tier", static_cast<int64_t>(I)),
                 TraceArg::ofStr("status", "equivalent"),
                 TraceArg::ofStr("diag", "none")});
    });
  }
  R.disable();
  ASSERT_TRUE(R.finishStream());
  R.flushEvery(4096);

  TraceLog Log;
  std::string Err;
  ASSERT_TRUE(loadTraceJsonl(Path, Log, &Err)) << Err;
  ASSERT_TRUE(validateTraceLog(Log, &Err)) << Err;
  ASSERT_EQ(Log.Events.size(), 64u);
  std::multiset<int64_t> Tiers;
  for (const JsonValue &E : Log.Events)
    Tiers.insert(static_cast<int64_t>(E.get("args")->get("tier")->number()));
  std::multiset<int64_t> Want;
  for (int64_t I = 0; I < 64; ++I)
    Want.insert(I);
  EXPECT_EQ(Tiers, Want);
  std::remove(Path.c_str());
}

TEST(Trace, StreamToUnwritablePathFailsCleanly) {
  TraceRecorder &R = TraceRecorder::instance();
  R.clear();
  EXPECT_FALSE(R.streamTo("/no_such_dir_xyz/trace.jsonl"));
  EXPECT_FALSE(R.streaming());
  // finishStream with no active stream is a harmless no-op.
  EXPECT_TRUE(R.finishStream());
}

//===--- Streaming sink under I/O faults --------------------------------------===//

TEST(Trace, StreamPublishFailureIsRetryableWithStreamIntact) {
  // A failed final rename must not lose the run: ".stream" stays on disk,
  // loadable, and a later finishStream() (disk recovered) publishes the
  // identical file — with the metrics appended exactly once, not once per
  // attempt.
  TraceRecorder &R = TraceRecorder::instance();
  R.clear();
  MetricsRegistry M;
  M.counter("test.publish_retry").inc(7);
  const std::string Path = ::testing::TempDir() + "trace_pubfail.jsonl";
  ASSERT_TRUE(R.streamTo(Path, &M));
  R.enable();
  for (int I = 0; I < 5; ++I)
    R.instant("verify.tier", {TraceArg::ofInt("tier", I),
                              TraceArg::ofStr("status", "equivalent"),
                              TraceArg::ofStr("diag", "none")});
  R.disable();

  FaultInjector FI(31);
  FI.enable(FaultSite::IoRename, 1.0);
  FaultyIoEnv Env(FI);
  {
    ScopedIoEnv Install(&Env);
    EXPECT_FALSE(R.finishStream());
  }
  EXPECT_TRUE(std::ifstream(Path + ".stream").good())
      << "failed publish must leave the in-progress file on disk";

  ASSERT_TRUE(R.finishStream()); // disk healthy: the retry succeeds
  EXPECT_FALSE(std::ifstream(Path + ".stream").good());

  TraceLog Log;
  std::string Err;
  ASSERT_TRUE(loadTraceJsonl(Path, Log, &Err)) << Err;
  ASSERT_TRUE(validateTraceLog(Log, &Err)) << Err;
  EXPECT_EQ(Log.Events.size(), 6u); // 5 instants + 1 metric line
  std::string Text = slurp(Path);
  size_t First = Text.find("test.publish_retry");
  ASSERT_NE(First, std::string::npos);
  EXPECT_EQ(Text.find("test.publish_retry", First + 1), std::string::npos)
      << "metrics were appended once per publish attempt";
  std::remove(Path.c_str());
}

TEST(Trace, StreamFailedAppendTailIsRepairedNotDuplicated) {
  // appendFileDurable can fail *after* its bytes hit the file (the fsync
  // fails): without the truncate repair a retried flush would duplicate
  // every record of the failed batch.
  TraceRecorder &R = TraceRecorder::instance();
  R.clear();
  const std::string Path = ::testing::TempDir() + "trace_torntail.jsonl";
  ASSERT_TRUE(R.streamTo(Path));
  R.enable();
  for (int I = 0; I < 6; ++I)
    R.instant("verify.tier", {TraceArg::ofInt("tier", I),
                              TraceArg::ofStr("status", "equivalent"),
                              TraceArg::ofStr("diag", "none")});
  R.disable();

  FaultInjector FI(37);
  FI.enable(FaultSite::IoFsync, 1.0);
  FaultyIoEnv Env(FI);
  {
    ScopedIoEnv Install(&Env);
    EXPECT_FALSE(R.flushStream()); // payload written, fsync failed
  }
  EXPECT_FALSE(R.streamDegraded()); // one failure is not a trip
  EXPECT_TRUE(R.flushStream());     // retry appends the retained payload
  ASSERT_TRUE(R.finishStream());

  TraceLog Log;
  std::string Err;
  ASSERT_TRUE(loadTraceJsonl(Path, Log, &Err)) << Err;
  ASSERT_TRUE(validateTraceLog(Log, &Err)) << Err;
  EXPECT_EQ(Log.Events.size(), 6u) << "torn tail was retried into duplicates";
  std::remove(Path.c_str());
}

TEST(Trace, StreamDegradesToBufferedFallbackAfterPersistentFailures) {
  // Three consecutive failed appends trip the sink to accumulate-only; the
  // final publish then falls back to one atomic buffered write holding
  // every event exactly once plus the metrics. "Persistent I/O failure
  // costs the incremental-durability property, never the artifact."
  TraceRecorder &R = TraceRecorder::instance();
  R.clear();
  MetricsRegistry M;
  M.counter("test.fallback").inc(3);
  const std::string Path = ::testing::TempDir() + "trace_degraded.jsonl";
  ASSERT_TRUE(R.streamTo(Path, &M));
  R.enable();

  Counter &Failures =
      MetricsRegistry::global().counter("io.trace.append_failures");
  const double FailuresBefore = Failures.value();

  FaultInjector FI(39);
  FI.enable(FaultSite::IoWrite, 1.0);
  FaultyIoEnv Env(FI);
  {
    ScopedIoEnv Install(&Env);
    for (int I = 0; I < 12; ++I) {
      R.instant("verify.tier", {TraceArg::ofInt("tier", I),
                                TraceArg::ofStr("status", "equivalent"),
                                TraceArg::ofStr("diag", "none")});
      if (I % 4 == 3) {
        EXPECT_FALSE(R.flushStream());
      }
    }
    EXPECT_TRUE(R.streamDegraded()); // tripped on the third failure
    // Degraded flushes succeed immediately: events accumulate in memory.
    R.instant("verify.tier", {TraceArg::ofInt("tier", 12),
                              TraceArg::ofStr("status", "equivalent"),
                              TraceArg::ofStr("diag", "none")});
    EXPECT_TRUE(R.flushStream());
  }
  R.disable();
  EXPECT_EQ(Failures.value() - FailuresBefore, 3.0);

  // Disk healthy again: the degraded finish publishes everything at once.
  ASSERT_TRUE(R.finishStream());
  EXPECT_FALSE(R.streamDegraded()); // state resets with the stream
  EXPECT_FALSE(std::ifstream(Path + ".stream").good());

  TraceLog Log;
  std::string Err;
  ASSERT_TRUE(loadTraceJsonl(Path, Log, &Err)) << Err;
  ASSERT_TRUE(validateTraceLog(Log, &Err)) << Err;
  ASSERT_EQ(Log.Events.size(), 14u); // 13 instants + 1 metric line
  std::multiset<int64_t> Tiers;
  for (const JsonValue &E : Log.Events)
    if (const JsonValue *Args = E.get("args"))
      if (const JsonValue *T = Args->get("tier"))
        Tiers.insert(static_cast<int64_t>(T->number()));
  std::multiset<int64_t> Want;
  for (int64_t I = 0; I < 13; ++I)
    Want.insert(I);
  EXPECT_EQ(Tiers, Want) << "fallback lost or duplicated events";
  std::remove(Path.c_str());
}

} // namespace
} // namespace veriopt
