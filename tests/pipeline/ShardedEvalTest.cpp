//===- ShardedEvalTest.cpp - Sharded-vs-serial differential guarantees -----===//
//
// The contract under test: evaluateModelSharded() is bit-identical to the
// serial oracle evaluateModel() at any shard/thread count, with a private
// or a shared warm cache; shards serialize losslessly; and the merge tolerates
// fault-injected, Inconclusive-heavy shards.
//
//===----------------------------------------------------------------------===//

#include "pipeline/Evaluation.h"

#include "support/FaultInjector.h"
#include "support/ThreadPool.h"
#include "trace/Metrics.h"

#include "Golden.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

namespace veriopt {
namespace {

const Dataset &ds() {
  static Dataset DS = [] {
    DatasetOptions O;
    O.TrainCount = 0;
    O.ValidCount = 24;
    O.Seed = 77;
    return buildDataset(O);
  }();
  return DS;
}

/// Bitwise double equality: the differential tests require bit-identity,
/// not epsilon-closeness, and must treat -0.0 != 0.0 and NaN == NaN the
/// way memcmp does.
bool bitEq(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

void expectAggEq(const MetricAgg &A, const MetricAgg &B, const char *What) {
  EXPECT_EQ(A.Better, B.Better) << What;
  EXPECT_EQ(A.Worse, B.Worse) << What;
  EXPECT_EQ(A.Tie, B.Tie) << What;
  EXPECT_TRUE(bitEq(A.MeanRelChange, B.MeanRelChange)) << What;
  EXPECT_TRUE(bitEq(A.GeoRatio, B.GeoRatio)) << What;
}

void expectSampleEq(const SampleEval &A, const SampleEval &B, size_t I) {
  EXPECT_EQ(A.Status, B.Status) << "sample " << I;
  EXPECT_EQ(A.IsCopy, B.IsCopy) << "sample " << I;
  EXPECT_EQ(A.UsedFallback, B.UsedFallback) << "sample " << I;
  EXPECT_TRUE(bitEq(A.LatO0, B.LatO0)) << "sample " << I;
  EXPECT_TRUE(bitEq(A.LatOut, B.LatOut)) << "sample " << I;
  EXPECT_TRUE(bitEq(A.LatRef, B.LatRef)) << "sample " << I;
  EXPECT_EQ(A.ICountOut, B.ICountOut) << "sample " << I;
  EXPECT_EQ(A.SizeOut, B.SizeOut) << "sample " << I;
}

void expectResultEq(const EvalResult &A, const EvalResult &B) {
  EXPECT_EQ(A.ModelName, B.ModelName);
  EXPECT_EQ(A.Taxonomy.Total, B.Taxonomy.Total);
  EXPECT_EQ(A.Taxonomy.Correct, B.Taxonomy.Correct);
  EXPECT_EQ(A.Taxonomy.CorrectCopies, B.Taxonomy.CorrectCopies);
  EXPECT_EQ(A.Taxonomy.SemanticError, B.Taxonomy.SemanticError);
  EXPECT_EQ(A.Taxonomy.SyntaxError, B.Taxonomy.SyntaxError);
  EXPECT_EQ(A.Taxonomy.Inconclusive, B.Taxonomy.Inconclusive);
  expectAggEq(A.Latency, B.Latency, "latency");
  expectAggEq(A.Size, B.Size, "size");
  expectAggEq(A.ICount, B.ICount, "icount");
  EXPECT_TRUE(bitEq(A.GeoSpeedupVsO0, B.GeoSpeedupVsO0));
  EXPECT_EQ(A.VsRefBetter, B.VsRefBetter);
  EXPECT_EQ(A.VsRefWorse, B.VsRefWorse);
  EXPECT_EQ(A.VsRefTie, B.VsRefTie);
  EXPECT_TRUE(bitEq(A.FallbackGainOverRef, B.FallbackGainOverRef));
  ASSERT_EQ(A.PerSample.size(), B.PerSample.size());
  for (size_t I = 0; I < A.PerSample.size(); ++I)
    expectSampleEq(A.PerSample[I], B.PerSample[I], I);
}

//===--- Shard planning -----------------------------------------------------===//

TEST(ShardedEval, PlanCoversCorpusWithContiguousDisjointShards) {
  for (unsigned Shards : {1u, 3u, 7u, 24u, 30u}) {
    auto Plan = planEvalShards(24, Shards);
    ASSERT_EQ(Plan.size(), Shards);
    size_t Next = 0;
    for (unsigned I = 0; I < Shards; ++I) {
      EXPECT_EQ(Plan[I].Index, I);
      EXPECT_EQ(Plan[I].Begin, Next);
      EXPECT_LE(Plan[I].Begin, Plan[I].End);
      Next = Plan[I].End;
    }
    EXPECT_EQ(Next, 24u) << "shards must cover the corpus exactly";
  }
}

TEST(ShardedEval, ShardSizesDifferByAtMostOne) {
  auto Plan = planEvalShards(25, 4);
  size_t Min = 25, Max = 0;
  for (const EvalShard &S : Plan) {
    Min = std::min(Min, S.End - S.Begin);
    Max = std::max(Max, S.End - S.Begin);
  }
  EXPECT_LE(Max - Min, 1u);
}

//===--- The differential guarantee -----------------------------------------===//

TEST(ShardedEval, BitIdenticalToSerialAcrossShardAndThreadCounts) {
  const std::vector<Sample> &Valid = ds().Valid; // built before the snapshot
  MetricsDelta Delta;
  RewritePolicyModel Base(presetQwen3B());
  EvalResult Oracle = evaluateModel(Base, Valid, PromptMode::Generic);

  ThreadPool Pool(4);
  // A private cache per run, then one cache shared (and warmed) across
  // runs: cold and replayed verdicts must both match the oracle.
  VerifyCache Warm(0);
  for (VerifyCache *Shared : {static_cast<VerifyCache *>(nullptr), &Warm}) {
    for (unsigned Shards : {1u, 3u, 4u, 11u}) {
      EvalOptions EO;
      EO.Shards = Shards;
      EO.Pool = &Pool;
      EO.SharedCache = Shared;
      EvalResult Sharded = evaluateModelSharded(
          Base, Valid, PromptMode::Generic, VerifyOptions(), EO);
      SCOPED_TRACE(testing::Message() << "shards=" << Shards << " shared="
                                      << (Shared != nullptr));
      expectResultEq(Oracle, Sharded);
    }
  }
  EXPECT_GT(Warm.counters().Hits, 0u);

  // The plain-verifier shard arm: shards evaluated concurrently with the
  // per-sample verifier (no group verification, no cache), then merged.
  auto Plan = planEvalShards(Valid.size(), 8);
  std::vector<ShardEvalResult> Plain(Plan.size());
  Pool.parallelFor(Plan.size(), [&](size_t I) {
    Plain[I] = evaluateEvalShard(Base, Valid, PromptMode::Generic,
                                 VerifyOptions(), Plan[I]);
  });
  expectResultEq(Oracle, mergeShardResults(Base.config().Name,
                                           std::move(Plain)));
  Delta.expectGolden();
}

TEST(ShardedEval, SerialPoolAndNullPoolAgree) {
  RewritePolicyModel Base(presetQwen3B());
  EvalOptions NoPool;
  NoPool.Shards = 3;
  EvalResult A = evaluateModelSharded(Base, ds().Valid, PromptMode::Generic,
                                      VerifyOptions(), NoPool);
  ThreadPool One(1);
  EvalOptions WithPool = NoPool;
  WithPool.Pool = &One;
  EvalResult B = evaluateModelSharded(Base, ds().Valid, PromptMode::Generic,
                                      VerifyOptions(), WithPool);
  expectResultEq(A, B);
}

TEST(ShardedEval, ZeroShardsMeansOnePerPoolThread) {
  RewritePolicyModel Base(presetQwen3B());
  ThreadPool Pool(3);
  EvalOptions EO;
  EO.Shards = 0;
  EO.Pool = &Pool;
  Counter &ShardsRun = MetricsRegistry::global().counter("eval.shards");
  const uint64_t Before = ShardsRun.value();
  EvalResult R = evaluateModelSharded(Base, ds().Valid, PromptMode::Generic,
                                      VerifyOptions(), EO);
  EXPECT_EQ(R.Taxonomy.Total, ds().Valid.size());
  EXPECT_EQ(ShardsRun.value() - Before, Pool.numThreads());
}

//===--- Fault tolerance of the merge ----------------------------------------===//

TEST(ShardedEval, MergeToleratesInconclusiveHeavyShard) {
  RewritePolicyModel Base(presetQwen3B());
  // Arm the oracle-budget fault site hard: many samples collapse to
  // Inconclusive, concentrated wherever their shard lands. The merge must
  // keep counts consistent and every aggregate finite.
  FaultInjector FI(0xFA11);
  FI.enable(FaultSite::OracleBudget, 0.8);

  ThreadPool Pool(3);
  EvalOptions EO;
  EO.Shards = 3;
  EO.Pool = &Pool;
  EO.Faults = &FI;
  EvalResult R = evaluateModelSharded(Base, ds().Valid, PromptMode::Generic,
                                      VerifyOptions(), EO);
  EXPECT_EQ(R.Taxonomy.Total, ds().Valid.size());
  EXPECT_EQ(R.Taxonomy.Correct + R.Taxonomy.SemanticError +
                R.Taxonomy.SyntaxError + R.Taxonomy.Inconclusive,
            R.Taxonomy.Total);
  EXPECT_TRUE(std::isfinite(R.GeoSpeedupVsO0));
  EXPECT_TRUE(std::isfinite(R.FallbackGainOverRef));
  EXPECT_TRUE(std::isfinite(R.Latency.GeoRatio));
  // Every inconclusive sample must have kept the -O0 fallback.
  for (const SampleEval &E : R.PerSample)
    if (E.Status != VerifyStatus::Equivalent)
      EXPECT_TRUE(E.UsedFallback);

  // Fault decisions are pure (seed, site, key) hashes, so the faulted run
  // is itself deterministic across shard counts.
  EvalOptions EO1 = EO;
  EO1.Shards = 1;
  EvalResult R1 = evaluateModelSharded(Base, ds().Valid, PromptMode::Generic,
                                       VerifyOptions(), EO1);
  expectResultEq(R, R1);
}

//===--- Serialization -------------------------------------------------------===//

TEST(ShardedEval, ManifestRoundTrips) {
  auto Plan = planEvalShards(101, 7);
  std::string Json = shardManifestToJson(Plan, 101);
  std::vector<EvalShard> Back;
  std::string Err;
  ASSERT_TRUE(shardManifestFromJson(Json, Back, &Err)) << Err;
  ASSERT_EQ(Back.size(), Plan.size());
  for (size_t I = 0; I < Plan.size(); ++I) {
    EXPECT_EQ(Back[I].Index, Plan[I].Index);
    EXPECT_EQ(Back[I].Begin, Plan[I].Begin);
    EXPECT_EQ(Back[I].End, Plan[I].End);
  }
}

TEST(ShardedEval, ManifestRejectsMalformedInput) {
  std::vector<EvalShard> Plan;
  std::string Err;
  EXPECT_FALSE(shardManifestFromJson("{broken", Plan, &Err));
  EXPECT_FALSE(shardManifestFromJson("{\"samples\":1}", Plan, &Err));
  EXPECT_NE(Err.find("shards"), std::string::npos) << Err;
  EXPECT_FALSE(shardManifestFromJson(
      "{\"shards\":[{\"index\":0,\"begin\":0}]}", Plan, &Err));
}

TEST(ShardedEval, ShardResultRoundTripsBitExactly) {
  RewritePolicyModel Base(presetQwen3B());
  auto Plan = planEvalShards(ds().Valid.size(), 3);
  for (const EvalShard &S : Plan) {
    ShardEvalResult R = evaluateEvalShard(Base, ds().Valid,
                                          PromptMode::Generic,
                                          VerifyOptions(), S);
    std::string Json = shardResultToJson(R);
    ShardEvalResult Back;
    std::string Err;
    ASSERT_TRUE(shardResultFromJson(Json, Back, &Err)) << Err;
    EXPECT_EQ(Back.Shard.Index, R.Shard.Index);
    EXPECT_EQ(Back.Taxonomy.Total, R.Taxonomy.Total);
    ASSERT_EQ(Back.PerSample.size(), R.PerSample.size());
    for (size_t I = 0; I < R.PerSample.size(); ++I)
      expectSampleEq(Back.PerSample[I], R.PerSample[I], I);
  }
}

TEST(ShardedEval, MergingDeserializedShardsEqualsSerialOracle) {
  // The multi-process story end to end: evaluate shards independently,
  // round-trip each through JSON (shuffled order), merge — and the result
  // must still equal the serial oracle bit for bit.
  RewritePolicyModel Base(presetQwen3B());
  EvalResult Oracle = evaluateModel(Base, ds().Valid, PromptMode::Generic);

  auto Plan = planEvalShards(ds().Valid.size(), 4);
  std::vector<ShardEvalResult> Shards;
  // Deliberately out of order: results may arrive in any order from
  // independent processes.
  for (size_t I = Plan.size(); I-- > 0;) {
    ShardEvalResult R = evaluateEvalShard(Base, ds().Valid,
                                          PromptMode::Generic,
                                          VerifyOptions(), Plan[I]);
    ShardEvalResult Back;
    std::string Err;
    ASSERT_TRUE(shardResultFromJson(shardResultToJson(R), Back, &Err)) << Err;
    Shards.push_back(std::move(Back));
  }
  EvalResult Merged =
      mergeShardResults(Base.config().Name, std::move(Shards));
  expectResultEq(Oracle, Merged);
}

//===--- Corruption hardening -------------------------------------------------//
//
// Result files come from worker processes that may be killed mid-write or
// write garbage; every corruption class must be a *typed* parse error so
// the driver treats the file as a failed attempt, never merges it.

namespace {

/// A small hand-built result whose serialization the corruption tests
/// mutate. Internally consistent: 2 samples, 1 correct (a copy), 1
/// semantic error.
ShardEvalResult tinyResult() {
  ShardEvalResult R;
  R.Shard = {/*Index=*/0, /*Begin=*/0, /*End=*/2};
  R.Taxonomy.Total = 2;
  R.Taxonomy.Correct = 1;
  R.Taxonomy.CorrectCopies = 1;
  R.Taxonomy.SemanticError = 1;
  SampleEval A;
  A.Status = VerifyStatus::Equivalent;
  A.IsCopy = true;
  A.LatO0 = 10.5;
  A.LatOut = 10.5;
  A.LatRef = 9.25;
  SampleEval B;
  B.Status = VerifyStatus::NotEquivalent;
  B.UsedFallback = true;
  B.LatO0 = 4.0;
  B.LatOut = 4.0;
  B.LatRef = 3.0;
  R.PerSample = {A, B};
  return R;
}

/// Expect parse failure and that the typed error mentions \p ErrNeedle.
void expectRejects(const std::string &Json, const char *ErrNeedle,
                   const char *What) {
  ShardEvalResult Out;
  std::string Err;
  EXPECT_FALSE(shardResultFromJson(Json, Out, &Err)) << What;
  EXPECT_NE(Err.find(ErrNeedle), std::string::npos)
      << What << ": error was '" << Err << "'";
}

std::string replaced(std::string S, const std::string &From,
                     const std::string &To) {
  size_t P = S.find(From);
  EXPECT_NE(P, std::string::npos) << "fixture drift: '" << From << "'";
  if (P != std::string::npos)
    S.replace(P, From.size(), To);
  return S;
}

} // namespace

TEST(ShardResultCorruption, FixtureParses) {
  ShardEvalResult Out;
  std::string Err;
  ASSERT_TRUE(shardResultFromJson(shardResultToJson(tinyResult()), Out,
                                  &Err))
      << Err;
}

TEST(ShardResultCorruption, TruncationAtEveryPrefixIsTyped) {
  // A worker killed mid-write leaves an arbitrary prefix. Every prefix
  // must fail cleanly (the JSON parser or a consistency check), never
  // crash or silently succeed.
  std::string Json = shardResultToJson(tinyResult());
  for (size_t Cut = 0; Cut + 1 < Json.size(); ++Cut) {
    ShardEvalResult Out;
    std::string Err;
    EXPECT_FALSE(shardResultFromJson(Json.substr(0, Cut), Out, &Err))
        << "prefix of length " << Cut << " parsed";
  }
}

TEST(ShardResultCorruption, TrailingJunkRejected) {
  std::string Json = shardResultToJson(tinyResult());
  ShardEvalResult Out;
  std::string Err;
  EXPECT_FALSE(shardResultFromJson(Json + "{}", Out, &Err));
  EXPECT_FALSE(shardResultFromJson(Json + "garbage", Out, &Err));
}

TEST(ShardResultCorruption, MalformedBitHexRejected) {
  std::string Json = shardResultToJson(tinyResult());
  // 10.5 == 0x4025000000000000.
  expectRejects(replaced(Json, "\"4025000000000000\"", "\"4025\""),
                "latency bit-hex", "short bit-hex");
  expectRejects(replaced(Json, "\"4025000000000000\"",
                         "\"402500000000000g\""),
                "latency bit-hex", "non-hex character");
  expectRejects(replaced(Json, "\"4025000000000000\"",
                         "\"40250000000000000\""),
                "latency bit-hex", "overlong bit-hex");
  expectRejects(replaced(Json, "\"4025000000000000\"", "16.25"),
                "latency bit-hex", "numeric instead of bit-hex");
}

TEST(ShardResultCorruption, MissingFieldsRejected) {
  std::string Json = shardResultToJson(tinyResult());
  expectRejects(replaced(Json, "\"taxonomy\"", "\"texonomy\""),
                "taxonomy", "missing taxonomy");
  expectRejects(replaced(Json, "\"per_sample\"", "\"par_sample\""),
                "per_sample", "missing per_sample");
  expectRejects(replaced(Json, "\"status\"", "\"sfatus\""), "status",
                "missing sample status");
  expectRejects(replaced(Json, "\"shard\"", "\"shart\""), "shard",
                "missing shard");
}

TEST(ShardResultCorruption, NonIntegerAndNegativeCountsRejected) {
  std::string Json = shardResultToJson(tinyResult());
  // Bit rot / hand edits: counts must be nonnegative integers, not
  // silently truncated doubles.
  expectRejects(replaced(Json, "\"total\":2", "\"total\":2.5"), "taxonomy",
                "fractional count");
  expectRejects(replaced(Json, "\"total\":2", "\"total\":-2"), "taxonomy",
                "negative count");
  expectRejects(replaced(Json, "\"icount_o0\":0", "\"icount_o0\":1.5"),
                "count fields", "fractional sample count");
}

TEST(ShardResultCorruption, InconsistentTaxonomyRejected) {
  std::string Json = shardResultToJson(tinyResult());
  // Valid JSON whose numbers lie: per_sample shorter than total claims...
  expectRejects(replaced(Json, "\"total\":2", "\"total\":3"),
                "does not match per_sample", "total vs per_sample");
  // ...counts that do not sum...
  expectRejects(replaced(Json, "\"semantic_error\":1",
                         "\"semantic_error\":0"),
                "sum", "counts do not sum");
  // ...more copies than correct samples...
  expectRejects(replaced(replaced(Json, "\"correct\":1", "\"correct\":0"),
                         "\"semantic_error\":1", "\"semantic_error\":2"),
                "correct_copies", "copies exceed correct");
  // ...and an inverted shard range.
  expectRejects(replaced(Json, "\"begin\":0,\"end\":2",
                         "\"begin\":2,\"end\":0"),
                "inverted", "inverted range");
}

TEST(ShardResultCorruption, UnknownStatusRejected) {
  std::string Json = shardResultToJson(tinyResult());
  expectRejects(replaced(Json, "\"status\":\"equivalent\"",
                         "\"status\":\"excellent\""),
                "status", "unknown status string");
}

} // namespace
} // namespace veriopt
