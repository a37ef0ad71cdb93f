//===- BatchVerifierTest.cpp - Group vs sequential differential -----------===//
//
// The group verifier's contract is bit-identity with the sequential oracle:
// for every candidate, verdict, diagnostic kind and text, counterexample,
// summed solver conflicts, fuel spent, and retry tier must equal what the
// fresh-encoding front door (verifyWithLadder) produces — at any thread
// count, under fault injection, and with arbitrary cache-hit interleavings.
//
//===----------------------------------------------------------------------===//

#include "verify/Ladder.h"

#include "ir/Parser.h"
#include "support/ThreadPool.h"
#include "trace/Metrics.h"

#include "Golden.h"

#include <gtest/gtest.h>

namespace veriopt {
namespace {

struct Parsed {
  std::unique_ptr<Module> M;
  const Function *F;
  std::string Text;
  explicit Parsed(const std::string &Src) : Text(Src) {
    auto R = parseModule(Src);
    EXPECT_TRUE(R.hasValue()) << R.error().render();
    M = R.takeValue();
    F = M->getMainFunction();
  }
};

const char *AddSrc = "define i32 @f(i32 %x) {\n  %y = add i32 %x, 1\n"
                     "  ret i32 %y\n}\n";
const char *MulSrc = "define i32 @f(i32 %x, i32 %y) {\n"
                     "  %m = mul i32 %x, %y\n  ret i32 %m\n}\n";

/// A representative GRPO group: correct rewrites, a renamed duplicate, a
/// wrong candidate, a byte-identical repeat, unparseable text, and a
/// candidate whose verdict needs real SMT search.
std::vector<std::string> addGroup() {
  return {
      // equivalent: x+1 via different instruction name (renaming dup)
      "define i32 @f(i32 %x) {\n  %y = add i32 %x, 1\n  ret i32 %y\n}\n",
      "define i32 @f(i32 %x) {\n  %z = add i32 %x, 1\n  ret i32 %z\n}\n",
      // equivalent: 1+x (commuted, needs the solver or falsification)
      "define i32 @f(i32 %x) {\n  %y = add i32 1, %x\n  ret i32 %y\n}\n",
      // wrong: x+2, counterexample expected
      "define i32 @f(i32 %x) {\n  %y = add i32 %x, 2\n  ret i32 %y\n}\n",
      // byte-identical repeat of the first candidate
      "define i32 @f(i32 %x) {\n  %y = add i32 %x, 1\n  ret i32 %y\n}\n",
      // unparseable
      "define i32 @f(i32 %x) {\n  %y = frobnicate i32 %x\n  ret i32 %y\n}\n",
      // sub of negative constant (equivalent, different opcode)
      "define i32 @f(i32 %x) {\n  %y = sub i32 %x, -1\n  ret i32 %y\n}\n",
      // wrong: returns the input
      "define i32 @f(i32 %x) {\n  ret i32 %x\n}\n",
  };
}

std::vector<std::string> mulGroup() {
  return {
      "define i32 @f(i32 %x, i32 %y) {\n  %m = mul i32 %x, %y\n"
      "  ret i32 %m\n}\n",
      // commuted: UNSAT proof needs real conflicts under a small budget
      "define i32 @f(i32 %x, i32 %y) {\n  %m = mul i32 %y, %x\n"
      "  ret i32 %m\n}\n",
      // wrong: add instead of mul
      "define i32 @f(i32 %x, i32 %y) {\n  %m = add i32 %x, %y\n"
      "  ret i32 %m\n}\n",
  };
}

/// The oracle: the cacheless fresh-encoding ladder per candidate.
std::vector<VerifyResult> sequentialOracle(const Parsed &Src,
                                           const std::vector<std::string> &Ts,
                                           LadderOptions O,
                                           FaultInjector *FI = nullptr) {
  O.Cache = nullptr;
  O.Faults = FI;
  std::vector<VerifyResult> Out;
  for (const std::string &T : Ts)
    Out.push_back(verifyWithLadder(O, Src.Text, *Src.F, T).Result);
  return Out;
}

/// Parse a group's texts once, as the trainer does.
struct Group {
  std::vector<std::unique_ptr<Candidate>> Owned;
  std::vector<const Candidate *> Ptrs;
  explicit Group(const std::vector<std::string> &Texts) {
    for (const std::string &T : Texts) {
      Owned.push_back(std::make_unique<Candidate>(T));
      Ptrs.push_back(Owned.back().get());
    }
  }
};

/// The group verifier's reuse accounting: batch.* counter deltas.
struct BatchCounts {
  uint64_t Candidates = 0, Unique = 0, CacheHits = 0, Computed = 0;

  static BatchCounts now() {
    MetricsRegistry &M = MetricsRegistry::global();
    return {M.counter("batch.candidates").value(),
            M.counter("batch.unique").value(),
            M.counter("batch.cache_hits").value(),
            M.counter("batch.computed").value()};
  }
  BatchCounts since(const BatchCounts &Before) const {
    return {Candidates - Before.Candidates, Unique - Before.Unique,
            CacheHits - Before.CacheHits, Computed - Before.Computed};
  }
};

/// Run the group verifier and keep the final verdicts; \p Counts, when
/// set, receives the group's batch.* counter deltas.
std::vector<VerifyResult> groupVerdicts(const LadderOptions &O,
                                        const Parsed &Src,
                                        const std::vector<std::string> &Texts,
                                        ThreadPool *Pool = nullptr,
                                        BatchCounts *Counts = nullptr) {
  Group G(Texts);
  const BatchCounts Before = BatchCounts::now();
  std::vector<VerifyResult> Out;
  for (LadderOutcome &R : verifyGroup(O, Src.Text, *Src.F, G.Ptrs, Pool))
    Out.push_back(std::move(R.Result));
  if (Counts)
    *Counts = BatchCounts::now().since(Before);
  return Out;
}

void expectIdentical(const std::vector<VerifyResult> &Got,
                     const std::vector<VerifyResult> &Want) {
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Got.size(); ++I) {
    EXPECT_EQ(Got[I].Status, Want[I].Status) << "candidate " << I;
    EXPECT_EQ(Got[I].Kind, Want[I].Kind) << "candidate " << I;
    EXPECT_EQ(Got[I].Diagnostic, Want[I].Diagnostic) << "candidate " << I;
    EXPECT_EQ(Got[I].BoundedOnly, Want[I].BoundedOnly) << "candidate " << I;
    EXPECT_EQ(Got[I].FoundByFalsification, Want[I].FoundByFalsification)
        << "candidate " << I;
    EXPECT_EQ(Got[I].SolverConflicts, Want[I].SolverConflicts)
        << "candidate " << I;
    EXPECT_EQ(Got[I].FuelSpent, Want[I].FuelSpent) << "candidate " << I;
    EXPECT_EQ(Got[I].RetryTier, Want[I].RetryTier) << "candidate " << I;
    ASSERT_EQ(Got[I].Counterexample.size(), Want[I].Counterexample.size())
        << "candidate " << I;
    for (size_t J = 0; J < Got[I].Counterexample.size(); ++J) {
      EXPECT_EQ(Got[I].Counterexample[J].Name, Want[I].Counterexample[J].Name);
      EXPECT_EQ(Got[I].Counterexample[J].Value,
                Want[I].Counterexample[J].Value);
    }
  }
}

LadderOptions defaultLadder() {
  LadderOptions O;
  O.MaxTiers = 3;
  O.BudgetGrowth = 4;
  return O;
}

TEST(BatchVerifier, MatchesSequentialOracleBitForBit) {
  MetricsDelta Delta;
  Parsed Src(AddSrc);
  LadderOptions O = defaultLadder();
  auto Want = sequentialOracle(Src, addGroup(), O);

  VerifyCache Cache(256);
  O.Cache = &Cache;
  BatchCounts Counts;
  auto Got = groupVerdicts(O, Src, addGroup(), nullptr, &Counts);

  expectIdentical(Got, Want);
  EXPECT_EQ(Counts.Candidates, 8u);
  // The byte-identical repeat and the renamed duplicate both collapse.
  EXPECT_EQ(Counts.Unique, 6u);
  EXPECT_EQ(Counts.CacheHits, 0u); // cold cache
  EXPECT_GT(Counts.Computed, 0u);
  Delta.expectGolden();
}

TEST(BatchVerifier, EscalatingLadderMatchesSequential) {
  // Starved tier 0 forces escalations; RetryTier and the summed conflict /
  // fuel accounting must match the sequential ladder exactly.
  MetricsDelta Delta;
  Parsed Src(MulSrc);
  LadderOptions O;
  O.Base.FalsifyTrials = 0;
  O.Base.SolverConflictBudget = 60;
  O.MaxTiers = 3;
  O.BudgetGrowth = 16;
  auto Want = sequentialOracle(Src, mulGroup(), O);
  bool SawEscalation = false;
  for (const auto &R : Want)
    SawEscalation |= (R.RetryTier > 0);
  EXPECT_TRUE(SawEscalation) << "corpus no longer exercises the ladder";

  VerifyCache Cache(256);
  O.Cache = &Cache;
  auto Got = groupVerdicts(O, Src, mulGroup());
  expectIdentical(Got, Want);
  Delta.expectGolden();
}

TEST(BatchVerifier, ThreadCountInvariance) {
  Parsed Src(AddSrc);
  LadderOptions O = defaultLadder();

  VerifyCache C1(256);
  O.Cache = &C1;
  auto Sequential = groupVerdicts(O, Src, addGroup());

  ThreadPool Pool(4);
  VerifyCache C4(256);
  O.Cache = &C4;
  auto Threaded = groupVerdicts(O, Src, addGroup(), &Pool);

  expectIdentical(Threaded, Sequential);
}

TEST(BatchVerifier, GroupFillsCacheSoReplayComputesNothing) {
  Parsed Src(AddSrc);
  LadderOptions O = defaultLadder();
  VerifyCache Cache(256);
  O.Cache = &Cache;
  auto Batch = groupVerdicts(O, Src, addGroup());

  // Re-verifying the group's candidates through the same cache replays
  // every rung: nothing is computed, and each replayed outcome equals the
  // group result.
  uint64_t MissesBefore = Cache.counters().Misses;
  std::vector<std::string> Group = addGroup();
  for (size_t I = 0; I < Group.size(); ++I) {
    auto Out = verifyWithLadder(O, Src.Text, *Src.F, Group[I]);
    EXPECT_EQ(Out.Computed, 0u) << "candidate " << I;
    EXPECT_EQ(Out.Result.Status, Batch[I].Status) << "candidate " << I;
    EXPECT_EQ(Out.Result.Diagnostic, Batch[I].Diagnostic) << "candidate " << I;
    EXPECT_EQ(Out.Result.SolverConflicts, Batch[I].SolverConflicts);
    EXPECT_EQ(Out.Result.FuelSpent, Batch[I].FuelSpent);
    EXPECT_EQ(Out.Result.RetryTier, Batch[I].RetryTier);
  }
  EXPECT_EQ(Cache.counters().Misses, MissesBefore)
      << "a replay recomputed a rung the group should have cached";
  EXPECT_GT(Cache.counters().Hits, 0u);
}

TEST(BatchVerifier, CacheHitInterleavingsStayIdentical) {
  // Pre-warm the cache with a *subset* of the group through the normal
  // sequential path, then batch the full group: served-from-cache and
  // computed-in-batch members must both match the oracle.
  Parsed Src(AddSrc);
  LadderOptions O = defaultLadder();
  auto Want = sequentialOracle(Src, addGroup(), O);

  VerifyCache Cache(256);
  O.Cache = &Cache;
  std::vector<std::string> Group = addGroup();
  verifyWithLadder(O, Src.Text, *Src.F, Group[2]);
  verifyWithLadder(O, Src.Text, *Src.F, Group[3]);

  BatchCounts Counts;
  auto Got = groupVerdicts(O, Src, Group, nullptr, &Counts);
  expectIdentical(Got, Want);
  EXPECT_GT(Counts.CacheHits, 0u);

  // A second pass over the same group is served entirely from the cache.
  BatchCounts AgainCounts;
  auto Again = groupVerdicts(O, Src, Group, nullptr, &AgainCounts);
  expectIdentical(Again, Want);
  EXPECT_EQ(AgainCounts.Computed, 0u);
}

TEST(BatchVerifier, OracleBudgetFaultMirrorsSequential) {
  Parsed Src(AddSrc);
  LadderOptions O = defaultLadder();
  FaultInjector FIa(5), FIb(5);
  FIa.enable(FaultSite::OracleBudget, 0.5);
  FIb.enable(FaultSite::OracleBudget, 0.5);
  auto Want = sequentialOracle(Src, addGroup(), O, &FIa);

  VerifyCache Cache(256);
  O.Cache = &Cache;
  O.Faults = &FIb;
  auto Got = groupVerdicts(O, Src, addGroup());
  expectIdentical(Got, Want);
  // At 50% some queries must actually have been injected (seed-dependent
  // but deterministic; guards against the fault site silently not firing).
  EXPECT_GT(FIb.counters().injected(FaultSite::OracleBudget), 0u);
}

TEST(BatchVerifier, VerdictFlipFaultMirrorsSequential) {
  Parsed Src(AddSrc);
  LadderOptions O = defaultLadder();
  FaultInjector FIa(7), FIb(7);
  FIa.enable(FaultSite::VerdictFlip, 1.0);
  FIb.enable(FaultSite::VerdictFlip, 1.0);
  auto Want = sequentialOracle(Src, addGroup(), O, &FIa);

  VerifyCache Cache(256);
  O.Cache = &Cache;
  O.Faults = &FIb;
  auto Got = groupVerdicts(O, Src, addGroup());
  expectIdentical(Got, Want);
  EXPECT_GT(FIb.counters().injected(FaultSite::VerdictFlip), 0u);
}

TEST(BatchVerifier, InjectedCacheMissesDoNotChangeVerdicts) {
  Parsed Src(AddSrc);
  LadderOptions O = defaultLadder();
  auto Want = sequentialOracle(Src, addGroup(), O);

  FaultInjector FI(11);
  FI.enable(FaultSite::CacheMiss, 0.5);
  VerifyCache Cache(256);
  Cache.setFaultInjector(&FI);
  O.Cache = &Cache;
  O.Faults = &FI;
  auto Got = groupVerdicts(O, Src, addGroup());
  expectIdentical(Got, Want);
  EXPECT_GT(FI.counters().injected(FaultSite::CacheMiss), 0u);
  // And the poisoned cache still replays correct verdicts sequentially.
  std::vector<std::string> Group = addGroup();
  for (size_t I = 0; I < Group.size(); ++I)
    EXPECT_EQ(verifyWithLadder(O, Src.Text, *Src.F, Group[I]).Result.Status,
              Want[I].Status);
}

TEST(BatchVerifier, PointerSourceStaysInconclusive) {
  // Unsupported sources short-circuit before any encoding is shared; the
  // batch must not crash on a group whose source has no QueryPrefix.
  Parsed Src("define i32 @f(ptr %p) {\n  ret i32 0\n}\n");
  LadderOptions O = defaultLadder();
  auto Want = sequentialOracle(Src, {Src.Text, Src.Text}, O);
  VerifyCache Cache(64);
  O.Cache = &Cache;
  auto Got = groupVerdicts(O, Src, {Src.Text, Src.Text});
  expectIdentical(Got, Want);
  EXPECT_EQ(Got[0].Status, VerifyStatus::Inconclusive);
  EXPECT_EQ(Got[0].Kind, DiagKind::Unsupported);
}

TEST(BatchVerifier, FuelStarvedLaddersMatchSequential) {
  // Fuel exhaustion must land on exactly the same charge in the shared
  // encoding's replay as in a fresh sequential run (the fuel-trace
  // mechanism), across tiers that progressively unstarve.
  Parsed Src(AddSrc);
  LadderOptions O;
  O.Base.FuelBudget = 8; // dies during falsification at tier 0
  O.MaxTiers = 3;
  O.BudgetGrowth = 100000;
  auto Want = sequentialOracle(Src, addGroup(), O);
  VerifyCache Cache(256);
  O.Cache = &Cache;
  auto Got = groupVerdicts(O, Src, addGroup());
  expectIdentical(Got, Want);
}

} // namespace
} // namespace veriopt
