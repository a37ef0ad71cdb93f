//===- EvalDriverTest.cpp - Multi-process eval driver tests ------------------//
//
// The driver's contract, tested against the real veriopt-worker binary
// (VERIOPT_WORKER_BIN, injected by CMake):
//  - all-healthy runs are bit-identical to evaluateModelSharded / the
//    serial oracle;
//  - crashed / corrupt-result workers are retried then quarantined with
//    per-attempt diagnostics, and the healthy-subset merge matches the
//    oracle restricted to the healthy shards;
//  - flaky workers (crash on attempt 1 only) are salvaged by retry;
//  - valid pre-existing result files are reused on resume;
//  - the backoff schedule is a pure, capped function of
//    (seed, shard, attempt).
//
//===----------------------------------------------------------------------===//

#include "pipeline/EvalDriver.h"

#include "support/AtomicFile.h"

#include "Golden.h"

#include "gtest/gtest.h"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

namespace veriopt {
namespace {

//===--- Pure-policy tests (no processes) -------------------------------------//

TEST(DriverBackoff, FirstAttemptIsImmediate) {
  for (unsigned Shard = 0; Shard < 8; ++Shard)
    EXPECT_EQ(driverBackoffMs(123, Shard, 1, 50, 2000), 0u);
}

TEST(DriverBackoff, DeterministicAndScheduleIndependent) {
  // A pure function of (seed, shard, attempt): recomputing in any order
  // gives the same schedule — no clock, no RNG state, no cross-shard
  // coupling.
  for (unsigned Attempt = 2; Attempt <= 5; ++Attempt)
    for (unsigned Shard = 0; Shard < 4; ++Shard) {
      uint64_t A = driverBackoffMs(7, Shard, Attempt, 50, 2000);
      uint64_t B = driverBackoffMs(7, Shard, Attempt, 50, 2000);
      EXPECT_EQ(A, B);
    }
  // And it actually depends on the seed/shard (jitter decorrelates shards
  // so a thundering herd of retries spreads out).
  bool AnyDiffer = false;
  for (unsigned Shard = 0; Shard < 16 && !AnyDiffer; ++Shard)
    AnyDiffer = driverBackoffMs(1, Shard, 3, 50, 2000) !=
                driverBackoffMs(2, Shard, 3, 50, 2000);
  EXPECT_TRUE(AnyDiffer);
}

TEST(DriverBackoff, GrowsExponentiallyUpToCap) {
  // Base delay doubles per attempt; jitter adds at most half the base. The
  // cap bounds everything.
  const uint64_t Base = 50, Cap = 300;
  uint64_t PrevFloor = 0;
  for (unsigned Attempt = 2; Attempt <= 10; ++Attempt) {
    uint64_t D = driverBackoffMs(99, 3, Attempt, Base, Cap);
    uint64_t Floor = Base << (Attempt - 2); // un-jittered exponential
    EXPECT_GE(D, std::min(Floor, Cap));
    EXPECT_LE(D, Cap);
    EXPECT_GE(Floor, PrevFloor);
    PrevFloor = Floor;
  }
  EXPECT_EQ(driverBackoffMs(99, 3, 20, Base, Cap), Cap); // saturated
}

//===--- Fixture: scratch dir + worker invocations ----------------------------//

struct DriverTest : ::testing::Test {
  /// Snapshot taken before SetUp, so a golden also pins the corpus build.
  MetricsDelta Delta;
  std::string Dir;
  std::vector<Sample> Valid;
  RewritePolicyModel Model{presetQwen3B()};
  static constexpr unsigned ValidCount = 8;
  static constexpr uint64_t DatasetSeed = 77;
  static constexpr unsigned NumShards = 4;

  void SetUp() override {
    char Tmpl[] = "/tmp/veriopt-driver-test-XXXXXX";
    ASSERT_NE(::mkdtemp(Tmpl), nullptr);
    Dir = Tmpl;
    DatasetOptions DO;
    DO.TrainCount = 0;
    DO.ValidCount = ValidCount;
    DO.Seed = DatasetSeed;
    Valid = buildDataset(DO).Valid;
  }
  void TearDown() override {
    std::string Cmd = "rm -rf '" + Dir + "'";
    (void)std::system(Cmd.c_str());
  }

  std::vector<EvalShard> plan() const {
    return planEvalShards(Valid.size(), NumShards);
  }

  /// Write the manifest and build driver options with the given extra
  /// worker flags (fault injections).
  EvalDriverOptions opts(std::vector<std::string> Extra = {}) {
    EXPECT_TRUE(writeFileAtomic(Dir + "/manifest.json",
                                shardManifestToJson(plan(), Valid.size())));
    EvalDriverOptions O;
    O.ManifestPath = Dir + "/manifest.json";
    O.ResultDir = Dir;
    O.WorkerArgv = {VERIOPT_WORKER_BIN,
                    "--valid-count", std::to_string(ValidCount),
                    "--dataset-seed", std::to_string(DatasetSeed)};
    O.WorkerArgv.insert(O.WorkerArgv.end(), Extra.begin(), Extra.end());
    O.MaxWorkers = 2;
    O.MaxAttempts = 2;
    O.BackoffBaseMs = 10;
    O.BackoffCapMs = 50;
    O.WorkerDeadlineMs = 60000;
    return O;
  }

  EvalResult oracleSubset(const std::vector<unsigned> &Indices) {
    auto P = plan();
    std::vector<ShardEvalResult> Shards;
    for (unsigned I : Indices)
      Shards.push_back(evaluateEvalShard(Model, Valid, PromptMode::Generic,
                                         VerifyOptions(), P[I]));
    return mergeShardResults(Model.config().Name, std::move(Shards));
  }
};

//===--- Differential: all healthy --------------------------------------------//

TEST_F(DriverTest, AllHealthyIsBitIdenticalToInProcess) {
  EvalDriverReport R;
  std::string Err;
  ASSERT_TRUE(runEvalDriver(opts(), Model.config().Name, R, &Err)) << Err;
  EXPECT_TRUE(R.allHealthy());
  EXPECT_EQ(R.Salvaged, NumShards);
  EXPECT_EQ(R.Spawned, NumShards);
  EXPECT_EQ(R.Retried, 0u);

  EvalResult Serial = evaluateModel(Model, Valid, PromptMode::Generic);
  EXPECT_EQ(countResultDivergence(Serial, R.Merged), 0u);

  EvalOptions EO;
  EO.Shards = NumShards;
  EvalResult InProc = evaluateModelSharded(Model, Valid, PromptMode::Generic,
                                           VerifyOptions(), EO);
  EXPECT_EQ(countResultDivergence(InProc, R.Merged), 0u);
  Delta.expectGolden();
}

//===--- Crash -> retry -> quarantine -----------------------------------------//

TEST_F(DriverTest, CrashingShardIsQuarantinedWithDiagnostics) {
  EvalDriverReport R;
  std::string Err;
  ASSERT_TRUE(runEvalDriver(opts({"--inject-crash-shard", "1"}),
                            Model.config().Name, R, &Err))
      << Err;
  ASSERT_EQ(R.Quarantined.size(), 1u);
  const QuarantinedShard &Q = R.Quarantined[0];
  EXPECT_EQ(Q.Shard.Index, 1u);
  // Every attempt was made and recorded, each with a typed reason and the
  // worker's captured stderr.
  ASSERT_EQ(Q.Failures.size(), 2u); // MaxAttempts
  for (const ShardAttemptFailure &F : Q.Failures) {
    EXPECT_NE(F.Reason.find("signal"), std::string::npos) << F.Reason;
    EXPECT_NE(F.StderrTail.find("injected crash"), std::string::npos);
  }
  EXPECT_EQ(R.Retried, 1u);

  // Healthy-subset merge == oracle over the surviving shards.
  EXPECT_EQ(R.HealthyShardIndices, (std::vector<unsigned>{0, 2, 3}));
  EXPECT_EQ(countResultDivergence(oracleSubset(R.HealthyShardIndices),
                                  R.Merged),
            0u);
  Delta.expectGolden();
}

TEST_F(DriverTest, CorruptResultFileIsDetectedNotMerged) {
  EvalDriverReport R;
  std::string Err;
  ASSERT_TRUE(runEvalDriver(opts({"--inject-corrupt-result", "2"}),
                            Model.config().Name, R, &Err))
      << Err;
  // The worker exits 0 but its file is truncated garbage: exit status is a
  // claim, the parse+identity check is the proof.
  ASSERT_EQ(R.Quarantined.size(), 1u);
  EXPECT_EQ(R.Quarantined[0].Shard.Index, 2u);
  EXPECT_NE(R.Quarantined[0].Failures.back().Reason.find("invalid result"),
            std::string::npos);
  EXPECT_EQ(countResultDivergence(oracleSubset(R.HealthyShardIndices),
                                  R.Merged),
            0u);
}

//===--- Flaky -> salvage ------------------------------------------------------//

TEST_F(DriverTest, FlakyShardIsSalvagedByRetry) {
  // Crashes on attempt 1 only (the worker sees --attempt from the driver);
  // the retry succeeds, so nothing is quarantined.
  EvalDriverReport R;
  std::string Err;
  ASSERT_TRUE(runEvalDriver(opts({"--inject-flaky-shard", "0"}),
                            Model.config().Name, R, &Err))
      << Err;
  EXPECT_TRUE(R.allHealthy());
  EXPECT_EQ(R.Retried, 1u);
  EXPECT_EQ(R.Salvaged, NumShards);
  EXPECT_EQ(countResultDivergence(
                evaluateModel(Model, Valid, PromptMode::Generic), R.Merged),
            0u);
  Delta.expectGolden();
}

//===--- Resume ----------------------------------------------------------------//

TEST_F(DriverTest, ResumeReusesValidResultFiles) {
  EvalDriverReport First;
  std::string Err;
  ASSERT_TRUE(runEvalDriver(opts(), Model.config().Name, First, &Err)) << Err;
  ASSERT_TRUE(First.allHealthy());

  // Second run over the same directory: every shard satisfied from disk,
  // zero processes spawned, merge still bit-identical.
  EvalDriverReport Second;
  ASSERT_TRUE(runEvalDriver(opts(), Model.config().Name, Second, &Err))
      << Err;
  EXPECT_EQ(Second.Reused, NumShards);
  EXPECT_EQ(Second.Spawned, 0u);
  EXPECT_EQ(countResultDivergence(First.Merged, Second.Merged), 0u);
}

TEST_F(DriverTest, ResumeRejectsTamperedResultFile) {
  EvalDriverReport First;
  std::string Err;
  ASSERT_TRUE(runEvalDriver(opts(), Model.config().Name, First, &Err)) << Err;

  // Truncate shard 1's file: resume must detect it and re-run that shard.
  std::string Path = Dir + "/shard_1.json";
  std::string Cmd = "head -c 30 '" + Path + "' > '" + Path + ".t' && mv '" +
                    Path + ".t' '" + Path + "'";
  ASSERT_EQ(std::system(Cmd.c_str()), 0);

  EvalDriverReport Second;
  ASSERT_TRUE(runEvalDriver(opts(), Model.config().Name, Second, &Err))
      << Err;
  EXPECT_EQ(Second.Reused, NumShards - 1);
  EXPECT_EQ(Second.Spawned, 1u);
  EXPECT_TRUE(Second.allHealthy());
  EXPECT_EQ(countResultDivergence(First.Merged, Second.Merged), 0u);
}

//===--- Failure classification ------------------------------------------------//

std::string slurp(const std::string &Path) {
  std::ifstream IS(Path, std::ios::binary);
  std::ostringstream SS;
  SS << IS.rdbuf();
  return SS.str();
}

TEST_F(DriverTest, SignalDeathClassifiesAsRuntime) {
  EvalDriverReport R;
  std::string Err;
  ASSERT_TRUE(runEvalDriver(opts({"--inject-crash-shard", "1"}),
                            Model.config().Name, R, &Err))
      << Err;
  ASSERT_EQ(R.Quarantined.size(), 1u);
  for (const ShardAttemptFailure &F : R.Quarantined[0].Failures)
    EXPECT_EQ(F.Class, FailureClass::Runtime) << failureClassName(F.Class);
  EXPECT_NE(slurp(Dir + "/quarantine.json").find("\"class\":\"runtime\""),
            std::string::npos);
  EXPECT_NE(renderDriverReport(R).find("[runtime]"), std::string::npos);
}

TEST_F(DriverTest, InvalidResultFromCleanExitClassifiesAsIo) {
  // Exit 0 with a corrupt result file: the worker's logic ran to
  // completion and its *artifact* is bad — an I/O-side failure, the class
  // an operator triages against disks, not against the model.
  EvalDriverReport R;
  std::string Err;
  ASSERT_TRUE(runEvalDriver(opts({"--inject-corrupt-result", "2"}),
                            Model.config().Name, R, &Err))
      << Err;
  ASSERT_EQ(R.Quarantined.size(), 1u);
  EXPECT_EQ(R.Quarantined[0].Failures.back().Class, FailureClass::Io);
  EXPECT_NE(slurp(Dir + "/quarantine.json").find("\"class\":\"io\""),
            std::string::npos);
  EXPECT_NE(renderDriverReport(R).find("[io]"), std::string::npos);
}

TEST_F(DriverTest, WorkerIoExitClassifiesAsIo) {
  // --chaos-io 100 makes every durable write in the worker fail, so it
  // exits with its typed I/O code (5) on every shard and attempt — the
  // driver must label the quarantine [io], not [logic].
  EvalDriverOptions O = opts({"--chaos-io", "100"});
  O.MaxAttempts = 1; // no salvage possible at rate 100
  EvalDriverReport R;
  std::string Err;
  ASSERT_TRUE(runEvalDriver(O, Model.config().Name, R, &Err)) << Err;
  ASSERT_EQ(R.Quarantined.size(), NumShards);
  for (const QuarantinedShard &Q : R.Quarantined)
    for (const ShardAttemptFailure &F : Q.Failures)
      EXPECT_EQ(F.Class, FailureClass::Io) << failureClassName(F.Class);
}

TEST_F(DriverTest, UsageErrorClassifiesAsLogic) {
  EvalDriverOptions O = opts({"--definitely-not-a-flag"});
  O.MaxAttempts = 1;
  EvalDriverReport R;
  std::string Err;
  ASSERT_TRUE(runEvalDriver(O, Model.config().Name, R, &Err)) << Err;
  ASSERT_EQ(R.Quarantined.size(), NumShards);
  for (const QuarantinedShard &Q : R.Quarantined)
    EXPECT_EQ(Q.Failures.back().Class, FailureClass::Logic)
        << failureClassName(Q.Failures.back().Class);
  EXPECT_NE(slurp(Dir + "/quarantine.json").find("\"class\":\"logic\""),
            std::string::npos);
}

//===--- loadValidShardResult --------------------------------------------------//

TEST_F(DriverTest, LoadValidShardResultChecksIdentity) {
  auto P = plan();
  ShardEvalResult R0 = evaluateEvalShard(Model, Valid, PromptMode::Generic,
                                         VerifyOptions(), P[0]);
  std::string Path = Dir + "/shard_0.json";
  ASSERT_TRUE(writeFileAtomic(Path, shardResultToJson(R0)));

  ShardEvalResult Out;
  std::string Why;
  EXPECT_TRUE(loadValidShardResult(Path, P[0], Out, &Why)) << Why;

  // The right file for the wrong shard is rejected — a renamed result must
  // never be merged into another shard's slot.
  EXPECT_FALSE(loadValidShardResult(Path, P[1], Out, &Why));
  EXPECT_FALSE(Why.empty());

  // Missing file.
  EXPECT_FALSE(loadValidShardResult(Dir + "/nope.json", P[0], Out, &Why));

  // Sample-count mismatch: same identity, PerSample truncated.
  ShardEvalResult Short = R0;
  ASSERT_FALSE(Short.PerSample.empty());
  Short.PerSample.pop_back();
  Short.Taxonomy = VerifyTaxonomy(); // keep the serializer's invariants
  for (const SampleEval &S : Short.PerSample) {
    ++Short.Taxonomy.Total;
    if (S.Status == VerifyStatus::Equivalent)
      ++Short.Taxonomy.Correct;
    else if (S.Status == VerifyStatus::NotEquivalent)
      ++Short.Taxonomy.SemanticError;
    else if (S.Status == VerifyStatus::SyntaxError)
      ++Short.Taxonomy.SyntaxError;
    else
      ++Short.Taxonomy.Inconclusive;
    if (S.IsCopy)
      ++Short.Taxonomy.CorrectCopies;
  }
  ASSERT_TRUE(writeFileAtomic(Path, shardResultToJson(Short)));
  EXPECT_FALSE(loadValidShardResult(Path, P[0], Out, &Why));
  EXPECT_NE(Why.find("sample"), std::string::npos) << Why;
}

} // namespace
} // namespace veriopt
