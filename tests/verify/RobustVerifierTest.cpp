//===- RobustVerifierTest.cpp - Escalating-budget retry ladder ------------===//
//
// The ladder through its fresh-encoding front door, verifyWithLadder: the
// sequential oracle the group verifier is checked against.
//
//===----------------------------------------------------------------------===//

#include "verify/Ladder.h"

#include "ir/Parser.h"
#include "trace/Metrics.h"

#include "Golden.h"

#include <gtest/gtest.h>

namespace veriopt {
namespace {

const char *SimpleSrc = "define i32 @f(i32 %x) {\n  %y = add i32 %x, 1\n"
                        "  ret i32 %y\n}\n";
const char *WrongTgt = "define i32 @f(i32 %x) {\n  %y = add i32 %x, 2\n"
                       "  ret i32 %y\n}\n";
const char *MulSrc = "define i32 @f(i32 %x, i32 %y) {\n"
                     "  %m = mul i32 %x, %y\n  ret i32 %m\n}\n";
const char *MulTgt = "define i32 @f(i32 %x, i32 %y) {\n"
                     "  %m = mul i32 %y, %x\n  ret i32 %m\n}\n";

struct Parsed {
  std::unique_ptr<Module> M;
  const Function *F;
  std::string Text;
  explicit Parsed(const char *Src) : Text(Src) {
    auto R = parseModule(Src);
    EXPECT_TRUE(R.hasValue()) << R.error().render();
    M = R.takeValue();
    F = M->getMainFunction();
  }
};

/// The verify.retry.* counters the front door records per request.
struct RetryCounters {
  uint64_t Queries, Escalations, Rescued, Terminal;
  static RetryCounters now() {
    MetricsRegistry &M = MetricsRegistry::global();
    return {M.counter("verify.retry.queries").value(),
            M.counter("verify.retry.escalations").value(),
            M.counter("verify.retry.rescued").value(),
            M.counter("verify.retry.terminal_inconclusive").value()};
  }
  RetryCounters since(const RetryCounters &B) const {
    return {Queries - B.Queries, Escalations - B.Escalations,
            Rescued - B.Rescued, Terminal - B.Terminal};
  }
};

TEST(RobustVerifier, TierOptionsScaleGeometrically) {
  LadderOptions O;
  O.Base.SolverConflictBudget = 10;
  O.Base.FuelBudget = 100;
  O.Base.FalsifyTrials = 7;
  O.BudgetGrowth = 4;
  O.MaxTiers = 3;
  EXPECT_EQ(O.tierOptions(0).SolverConflictBudget, 10u);
  EXPECT_EQ(O.tierOptions(1).SolverConflictBudget, 40u);
  EXPECT_EQ(O.tierOptions(2).SolverConflictBudget, 160u);
  EXPECT_EQ(O.tierOptions(0).FuelBudget, 100u);
  EXPECT_EQ(O.tierOptions(2).FuelBudget, 1600u);
  // Only the budget knobs scale; semantics knobs stay fixed.
  EXPECT_EQ(O.tierOptions(2).FalsifyTrials, 7u);
  EXPECT_EQ(O.tierOptions(2).MaxPaths, O.Base.MaxPaths);
}

TEST(RobustVerifier, UnlimitedBudgetsStayUnlimited) {
  LadderOptions O;
  O.Base.SolverConflictBudget = 0;
  O.Base.FuelBudget = 0;
  O.BudgetGrowth = 16;
  EXPECT_EQ(O.tierOptions(2).SolverConflictBudget, 0u);
  EXPECT_EQ(O.tierOptions(2).FuelBudget, 0u);
}

TEST(RobustVerifier, ScalingSaturatesInsteadOfOverflowing) {
  LadderOptions O;
  O.Base.SolverConflictBudget = UINT64_MAX / 2;
  O.BudgetGrowth = 1000;
  EXPECT_EQ(O.tierOptions(3).SolverConflictBudget, UINT64_MAX);
}

TEST(RobustVerifier, DefinitiveVerdictNeverEscalates) {
  Parsed Src(SimpleSrc);
  LadderOptions O;
  RetryCounters Before = RetryCounters::now();

  auto Eq = verifyWithLadder(O, Src.Text, *Src.F, SimpleSrc);
  EXPECT_EQ(Eq.Result.Status, VerifyStatus::Equivalent);
  EXPECT_EQ(Eq.Tiers.size(), 1u);
  EXPECT_EQ(Eq.Result.RetryTier, 0u);
  EXPECT_FALSE(Eq.Escalated);

  auto Ne = verifyWithLadder(O, Src.Text, *Src.F, WrongTgt);
  EXPECT_EQ(Ne.Result.Status, VerifyStatus::NotEquivalent);
  EXPECT_EQ(Ne.Tiers.size(), 1u);

  RetryCounters C = RetryCounters::now().since(Before);
  EXPECT_EQ(C.Queries, 2u);
  EXPECT_EQ(C.Escalations, 0u);
  EXPECT_EQ(C.Terminal, 0u);
}

TEST(RobustVerifier, NonBudgetInconclusiveNeverRetried) {
  // Unsupported: a bigger budget cannot make pointer params verifiable.
  Parsed Src("define i32 @f(ptr %p) {\n  ret i32 0\n}\n");
  LadderOptions O;
  O.MaxTiers = 3;
  auto Out = verifyWithLadder(O, Src.Text, *Src.F, Src.Text);
  EXPECT_EQ(Out.Result.Status, VerifyStatus::Inconclusive);
  EXPECT_EQ(Out.Result.Kind, DiagKind::Unsupported);
  EXPECT_EQ(Out.Tiers.size(), 1u);
  EXPECT_FALSE(Out.Escalated);
}

TEST(RobustVerifier, EscalationRescuesFuelExhaustion) {
  MetricsDelta Delta;
  Parsed Src(SimpleSrc);
  LadderOptions O;
  O.Base.FuelBudget = 8; // too small even for the falsification pre-pass
  O.BudgetGrowth = 100000;
  O.MaxTiers = 3;
  RetryCounters Before = RetryCounters::now();
  auto Out = verifyWithLadder(O, Src.Text, *Src.F, SimpleSrc);
  ASSERT_GE(Out.Tiers.size(), 2u);
  EXPECT_EQ(Out.Tiers[0].Status, VerifyStatus::Inconclusive);
  EXPECT_EQ(Out.Tiers[0].Kind, DiagKind::ResourceExhausted);
  EXPECT_EQ(Out.Result.Status, VerifyStatus::Equivalent)
      << Out.Result.Diagnostic;
  EXPECT_TRUE(Out.Escalated);
  EXPECT_GE(Out.Result.RetryTier, 1u);

  RetryCounters C = RetryCounters::now().since(Before);
  EXPECT_EQ(C.Escalations, 1u);
  EXPECT_EQ(C.Rescued, 1u);
  EXPECT_EQ(C.Terminal, 0u);
  Delta.expectGolden();
}

TEST(RobustVerifier, TerminalInconclusiveWhenTopTierStillTooSmall) {
  Parsed Src(MulSrc);
  LadderOptions O;
  O.Base.FalsifyTrials = 0;
  O.Base.SolverConflictBudget = 2;
  O.BudgetGrowth = 2; // 2, 4, 8 conflicts: all hopeless for a 32x32 mul
  O.MaxTiers = 3;
  RetryCounters Before = RetryCounters::now();
  auto Out = verifyWithLadder(O, Src.Text, *Src.F, MulTgt);
  EXPECT_EQ(Out.Result.Status, VerifyStatus::Inconclusive);
  EXPECT_EQ(Out.Result.Kind, DiagKind::SolverTimeout);
  EXPECT_EQ(Out.Tiers.size(), 3u);
  EXPECT_EQ(Out.Result.RetryTier, 2u);
  EXPECT_TRUE(Out.Escalated);

  // Telemetry is summed over every rung actually run.
  uint64_t Sum = 0;
  for (const auto &T : Out.Tiers)
    Sum += T.SolverConflicts;
  EXPECT_EQ(Out.Result.SolverConflicts, Sum);

  RetryCounters C = RetryCounters::now().since(Before);
  EXPECT_EQ(C.Escalations, 1u);
  EXPECT_EQ(C.Rescued, 0u);
  EXPECT_EQ(C.Terminal, 1u);
}

TEST(RobustVerifier, SingleTierLadderMatchesPlainVerifier) {
  Parsed Src(MulSrc);
  LadderOptions O;
  O.Base.FalsifyTrials = 0;
  O.Base.SolverConflictBudget = 5;
  O.MaxTiers = 1;
  RetryCounters Before = RetryCounters::now();
  auto Out = verifyWithLadder(O, Src.Text, *Src.F, MulTgt);
  auto Plain = verifyCandidateText(*Src.F, MulTgt, O.Base);
  EXPECT_EQ(Out.Result.Status, Plain.Status);
  EXPECT_EQ(Out.Result.Kind, Plain.Kind);
  EXPECT_EQ(Out.Result.SolverConflicts, Plain.SolverConflicts);
  EXPECT_EQ(Out.Tiers.size(), 1u);
  EXPECT_FALSE(Out.Escalated);
  EXPECT_EQ(RetryCounters::now().since(Before).Terminal, 1u);
}

TEST(RobustVerifier, CacheHitReplaysIdenticalTelemetry) {
  // Satellite (f): a cached replay of the ladder must report the same
  // per-tier outcomes and summed conflicts as the fresh run — each tier is
  // its own cache key, so low-tier Inconclusives never mask high-tier work.
  Parsed Src(SimpleSrc);
  VerifyCache Cache(64);
  LadderOptions O;
  O.Base.FuelBudget = 8;
  O.BudgetGrowth = 100000;
  O.MaxTiers = 3;
  O.Cache = &Cache;

  auto Fresh = verifyWithLadder(O, Src.Text, *Src.F, SimpleSrc);
  auto Replay = verifyWithLadder(O, Src.Text, *Src.F, SimpleSrc);
  EXPECT_GT(Cache.counters().Hits, 0u);
  EXPECT_EQ(Replay.Computed, 0u);
  EXPECT_EQ(Replay.CacheHits, Fresh.Computed);

  ASSERT_EQ(Replay.Tiers.size(), Fresh.Tiers.size());
  for (size_t I = 0; I < Fresh.Tiers.size(); ++I) {
    EXPECT_EQ(Replay.Tiers[I].Status, Fresh.Tiers[I].Status);
    EXPECT_EQ(Replay.Tiers[I].Kind, Fresh.Tiers[I].Kind);
    EXPECT_EQ(Replay.Tiers[I].SolverConflicts, Fresh.Tiers[I].SolverConflicts);
    EXPECT_EQ(Replay.Tiers[I].FuelSpent, Fresh.Tiers[I].FuelSpent);
  }
  EXPECT_EQ(Replay.Result.Status, Fresh.Result.Status);
  EXPECT_EQ(Replay.Result.RetryTier, Fresh.Result.RetryTier);
  EXPECT_EQ(Replay.Result.SolverConflicts, Fresh.Result.SolverConflicts);
  EXPECT_EQ(Replay.Result.FuelSpent, Fresh.Result.FuelSpent);
  EXPECT_EQ(Replay.Escalated, Fresh.Escalated);
}

TEST(RobustVerifier, DeterministicAcrossInstancesAndRepeats) {
  Parsed Src(MulSrc);
  LadderOptions O;
  O.Base.FalsifyTrials = 0;
  O.Base.SolverConflictBudget = 2;
  O.BudgetGrowth = 2;
  O.MaxTiers = 3;
  LadderOptions P = O;
  auto OutA = verifyWithLadder(O, Src.Text, *Src.F, MulTgt);
  auto OutB = verifyWithLadder(P, Src.Text, *Src.F, MulTgt);
  auto OutA2 = verifyWithLadder(O, Src.Text, *Src.F, MulTgt);
  ASSERT_EQ(OutA.Tiers.size(), OutB.Tiers.size());
  for (size_t I = 0; I < OutA.Tiers.size(); ++I) {
    EXPECT_EQ(OutA.Tiers[I].SolverConflicts, OutB.Tiers[I].SolverConflicts);
    EXPECT_EQ(OutA.Tiers[I].SolverConflicts, OutA2.Tiers[I].SolverConflicts);
  }
  EXPECT_EQ(OutA.Result.Status, OutB.Result.Status);
  EXPECT_EQ(OutA.Result.SolverConflicts, OutA2.Result.SolverConflicts);
}

} // namespace
} // namespace veriopt
