//===- VerifyCacheTest.cpp - Verification memo unit tests ------------------===//

#include "verify/VerifyCache.h"

#include "ir/Parser.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

namespace veriopt {
namespace {

const char *SrcIR = "define i32 @f(i32 %x) {\n  %y = mul i32 %x, 2\n"
                    "  ret i32 %y\n}\n";
const char *GoodTgt = "define i32 @f(i32 %x) {\n  %y = shl i32 %x, 1\n"
                      "  ret i32 %y\n}\n";
const char *BadTgt = "define i32 @f(i32 %x) {\n  %y = mul i32 %x, 3\n"
                     "  ret i32 %y\n}\n";

struct Fixture {
  std::unique_ptr<Module> M;
  Function *Src;
  Fixture() {
    auto P = parseModule(SrcIR);
    EXPECT_TRUE(P.hasValue());
    M = P.takeValue();
    Src = M->getMainFunction();
  }
};

/// The ladder's per-rung lookup: the text's key, computed by the plain
/// verifier on a miss.
VerifyResult cachedVerify(VerifyCache &Cache, const Function &Src,
                          const std::string &Tgt, const VerifyOptions &Opts,
                          bool *Computed = nullptr) {
  return Cache.lookupOrCompute(
      VerifyCache::makeKey(SrcIR, Tgt, Opts),
      [&] { return verifyCandidateText(Src, Tgt, Opts); }, Computed);
}

void expectSameResult(const VerifyResult &A, const VerifyResult &B) {
  EXPECT_EQ(A.Status, B.Status);
  EXPECT_EQ(A.Kind, B.Kind);
  EXPECT_EQ(A.Diagnostic, B.Diagnostic);
  EXPECT_EQ(A.BoundedOnly, B.BoundedOnly);
  EXPECT_EQ(A.FoundByFalsification, B.FoundByFalsification);
  EXPECT_EQ(A.SolverConflicts, B.SolverConflicts);
  ASSERT_EQ(A.Counterexample.size(), B.Counterexample.size());
  for (size_t I = 0; I < A.Counterexample.size(); ++I) {
    EXPECT_EQ(A.Counterexample[I].Name, B.Counterexample[I].Name);
    EXPECT_EQ(A.Counterexample[I].Value, B.Counterexample[I].Value);
  }
}

TEST(VerifyCache, HitMissSemantics) {
  Fixture F;
  VerifyCache Cache;
  VerifyOptions Opts;

  auto R1 = cachedVerify(Cache, *F.Src, GoodTgt, Opts);
  EXPECT_EQ(Cache.counters().Misses, 1u);
  EXPECT_EQ(Cache.counters().Hits, 0u);

  auto R2 = cachedVerify(Cache, *F.Src, GoodTgt, Opts);
  EXPECT_EQ(Cache.counters().Misses, 1u);
  EXPECT_EQ(Cache.counters().Hits, 1u);
  expectSameResult(R1, R2);

  // A different candidate is a fresh miss.
  cachedVerify(Cache, *F.Src, BadTgt, Opts);
  EXPECT_EQ(Cache.counters().Misses, 2u);
  EXPECT_EQ(Cache.size(), 2u);
}

TEST(VerifyCache, MatchesUncachedResults) {
  Fixture F;
  VerifyCache Cache;
  VerifyOptions Opts;
  for (const char *Tgt : {GoodTgt, BadTgt, "syntactically broken"}) {
    VerifyResult Plain = verifyCandidateText(*F.Src, Tgt, Opts);
    VerifyResult Miss = cachedVerify(Cache, *F.Src, Tgt, Opts);
    VerifyResult Hit = cachedVerify(Cache, *F.Src, Tgt, Opts);
    expectSameResult(Plain, Miss);
    expectSameResult(Plain, Hit);
  }
}

TEST(VerifyCache, CanonicalKeyCollapsesCosmeticVariants) {
  Fixture F;
  VerifyCache Cache;
  VerifyOptions Opts;
  cachedVerify(Cache, *F.Src, GoodTgt, Opts);
  // Same IR with different whitespace and value names: one entry.
  std::string Renamed = "define i32 @f(i32 %x)  {\n\n  %zz = shl i32 %x, 1\n"
                        "  ret i32   %zz\n}\n";
  auto R = cachedVerify(Cache, *F.Src, Renamed, Opts);
  EXPECT_EQ(Cache.counters().Hits, 1u);
  EXPECT_EQ(Cache.counters().Misses, 1u);
  EXPECT_EQ(R.Status, VerifyStatus::Equivalent);
}

TEST(VerifyCache, OptionsArePartOfTheKey) {
  Fixture F;
  VerifyCache Cache;
  VerifyOptions A, B;
  B.FalsifyTrials = A.FalsifyTrials + 1;
  cachedVerify(Cache, *F.Src, BadTgt, A);
  cachedVerify(Cache, *F.Src, BadTgt, B);
  EXPECT_EQ(Cache.counters().Misses, 2u);
}

TEST(VerifyCache, EvictsLeastRecentlyUsed) {
  Fixture F;
  VerifyCache Cache(/*Capacity=*/2);
  VerifyOptions Opts;
  const char *Tgt3 = "define i32 @f(i32 %x) {\n  %y = add i32 %x, %x\n"
                     "  ret i32 %y\n}\n";
  cachedVerify(Cache, *F.Src, GoodTgt, Opts); // miss
  cachedVerify(Cache, *F.Src, BadTgt, Opts);  // miss
  cachedVerify(Cache, *F.Src, GoodTgt, Opts); // hit: GoodTgt now MRU
  cachedVerify(Cache, *F.Src, Tgt3, Opts);    // miss: evicts BadTgt
  EXPECT_EQ(Cache.counters().Evictions, 1u);
  EXPECT_EQ(Cache.size(), 2u);
  cachedVerify(Cache, *F.Src, GoodTgt, Opts); // still resident
  EXPECT_EQ(Cache.counters().Hits, 2u);
  cachedVerify(Cache, *F.Src, BadTgt, Opts); // evicted: a miss again
  EXPECT_EQ(Cache.counters().Misses, 4u);
}

TEST(VerifyCache, ConcurrentLookupsAgree) {
  Fixture F;
  VerifyCache Cache;
  VerifyOptions Opts;
  VerifyResult Expected[2] = {verifyCandidateText(*F.Src, GoodTgt, Opts),
                              verifyCandidateText(*F.Src, BadTgt, Opts)};

  constexpr size_t N = 64;
  std::vector<VerifyResult> Results(N);
  ThreadPool Pool(4);
  Pool.parallelFor(N, [&](size_t I) {
    const char *Tgt = (I % 2) ? BadTgt : GoodTgt;
    Results[I] = cachedVerify(Cache, *F.Src, Tgt, Opts);
  });

  for (size_t I = 0; I < N; ++I)
    expectSameResult(Results[I], Expected[I % 2]);
  auto C = Cache.counters();
  EXPECT_EQ(C.lookups(), N);
  // Each distinct candidate is computed at most... exactly twice total:
  // single-flight joins every concurrent duplicate onto one computation.
  EXPECT_EQ(C.Misses, 2u);
  EXPECT_EQ(C.Hits, N - 2);
  EXPECT_DOUBLE_EQ(C.hitRate(), static_cast<double>(N - 2) / N);
}

TEST(VerifyCache, LookupOrComputeRunsComputeOnlyOnMisses) {
  Fixture F;
  VerifyCache Cache;
  VerifyOptions Opts;
  bool Computed = false;
  cachedVerify(Cache, *F.Src, GoodTgt, Opts, &Computed);
  EXPECT_TRUE(Computed);
  cachedVerify(Cache, *F.Src, GoodTgt, Opts, &Computed);
  EXPECT_FALSE(Computed);
}

TEST(VerifyCache, CandidateKeyMatchesTextKey) {
  // A Candidate keys on its name-free print; the text entry parses once
  // and must produce the same bytes, parseable or not.
  VerifyOptions Opts;
  for (const char *Tgt : {GoodTgt, BadTgt, "syntactically broken"}) {
    Candidate C(Tgt);
    EXPECT_EQ(VerifyCache::makeKey(SrcIR, C, Opts),
              VerifyCache::makeKey(SrcIR, Tgt, Opts));
  }
  EXPECT_EQ(Candidate("syntactically broken").Canon, "syntactically broken");
}

} // namespace
} // namespace veriopt
