//===- SatTest.cpp - CDCL solver unit + property tests --------------------===//

#include "smt/Sat.h"

#include "support/RNG.h"

#include <gtest/gtest.h>

#include <string>

namespace veriopt {
namespace {

/// PHP(N, N-1) over fresh variables; with \p Guard, every clause is
/// guarded by ~Guard.
void addPigeonHole(SatSolver &S, int N, const std::vector<Lit> &Guard = {}) {
  const int H = N - 1;
  std::vector<std::vector<unsigned>> P(N, std::vector<unsigned>(H));
  for (auto &Row : P)
    for (unsigned &V : Row)
      V = S.newVar();
  for (int I = 0; I < N; ++I) {
    std::vector<Lit> Cl = Guard;
    for (int K = 0; K < H; ++K)
      Cl.push_back(Lit(P[I][K], false));
    S.addClause(Cl);
  }
  for (int K = 0; K < H; ++K)
    for (int I = 0; I < N; ++I)
      for (int J = I + 1; J < N; ++J) {
        std::vector<Lit> Cl = Guard;
        Cl.push_back(Lit(P[I][K], true));
        Cl.push_back(Lit(P[J][K], true));
        S.addClause(Cl);
      }
}

TEST(Sat, TrivialSat) {
  SatSolver S;
  unsigned A = S.newVar(), B = S.newVar();
  S.addClause(Lit(A, false), Lit(B, false));
  EXPECT_EQ(S.solve(), SatSolver::Result::Sat);
  EXPECT_TRUE(S.modelValue(Lit(A, false)) || S.modelValue(Lit(B, false)));
}

TEST(Sat, TrivialUnsat) {
  SatSolver S;
  unsigned A = S.newVar();
  S.addClause(Lit(A, false));
  S.addClause(Lit(A, true));
  EXPECT_EQ(S.solve(), SatSolver::Result::Unsat);
}

TEST(Sat, EmptyClauseUnsat) {
  SatSolver S;
  EXPECT_FALSE(S.addClause(std::vector<Lit>{}));
  EXPECT_EQ(S.solve(), SatSolver::Result::Unsat);
}

TEST(Sat, TautologyIgnored) {
  SatSolver S;
  unsigned A = S.newVar();
  EXPECT_TRUE(S.addClause(Lit(A, false), Lit(A, true)));
  EXPECT_EQ(S.solve(), SatSolver::Result::Sat);
}

TEST(Sat, UnitPropagationChain) {
  SatSolver S;
  // a; a->b; b->c; c->~a is unsat.
  unsigned A = S.newVar(), B = S.newVar(), C = S.newVar();
  S.addClause(Lit(A, false));
  S.addClause(Lit(A, true), Lit(B, false));
  S.addClause(Lit(B, true), Lit(C, false));
  S.addClause(Lit(C, true), Lit(A, true));
  EXPECT_EQ(S.solve(), SatSolver::Result::Unsat);
}

TEST(Sat, XorChainSat) {
  // x1 ^ x2 = 1, x2 ^ x3 = 1, ..., satisfiable for any chain length.
  SatSolver S;
  std::vector<unsigned> Vars;
  for (int I = 0; I < 20; ++I)
    Vars.push_back(S.newVar());
  for (int I = 0; I + 1 < 20; ++I) {
    Lit A(Vars[I], false), B(Vars[I + 1], false);
    S.addClause(A, B);
    S.addClause(~A, ~B);
  }
  ASSERT_EQ(S.solve(), SatSolver::Result::Sat);
  for (int I = 0; I + 1 < 20; ++I)
    EXPECT_NE(S.modelValue(Vars[I]), S.modelValue(Vars[I + 1]));
}

TEST(Sat, PigeonHole3Into2) {
  // PHP(3,2): 3 pigeons, 2 holes — classic small UNSAT instance that
  // requires real conflict analysis.
  SatSolver S;
  addPigeonHole(S, 3);
  EXPECT_EQ(S.solve(), SatSolver::Result::Unsat);
}

TEST(Sat, ConflictBudgetReportsUnknown) {
  // PHP(7,6) is hard enough that a budget of 1 conflict cannot finish.
  SatSolver S;
  addPigeonHole(S, 7);
  EXPECT_EQ(S.solve(1), SatSolver::Result::Unknown);
  // And with no budget it proves unsatisfiability.
  EXPECT_EQ(S.solve(0), SatSolver::Result::Unsat);
}

/// Brute-force reference: try all assignments over <= 16 vars.
bool bruteForceSat(unsigned NumVars,
                   const std::vector<std::vector<Lit>> &Clauses) {
  for (uint64_t Mask = 0; Mask < (1ULL << NumVars); ++Mask) {
    bool All = true;
    for (const auto &C : Clauses) {
      bool Any = false;
      for (Lit L : C) {
        bool V = (Mask >> (L.var() - 1)) & 1;
        if (V != L.negated()) {
          Any = true;
          break;
        }
      }
      if (!Any) {
        All = false;
        break;
      }
    }
    if (All)
      return true;
  }
  return false;
}

/// Random 3-SAT instances cross-checked against brute force, over a sweep of
/// clause/variable ratios spanning the SAT/UNSAT phase transition.
class RandomSat : public ::testing::TestWithParam<int> {};

TEST_P(RandomSat, AgreesWithBruteForce) {
  int ClauseCount = GetParam();
  RNG R(1000 + ClauseCount);
  const unsigned NumVars = 10;
  for (int Trial = 0; Trial < 30; ++Trial) {
    std::vector<std::vector<Lit>> Clauses;
    SatSolver S;
    for (unsigned V = 0; V < NumVars; ++V)
      S.newVar();
    bool AddedOk = true;
    for (int C = 0; C < ClauseCount; ++C) {
      std::vector<Lit> Cl;
      for (int K = 0; K < 3; ++K)
        Cl.push_back(Lit(1 + static_cast<unsigned>(R.below(NumVars)),
                         R.chance(0.5)));
      Clauses.push_back(Cl);
      AddedOk = S.addClause(Cl) && AddedOk;
    }
    bool Ref = bruteForceSat(NumVars, Clauses);
    auto Got = AddedOk ? S.solve() : SatSolver::Result::Unsat;
    EXPECT_EQ(Got == SatSolver::Result::Sat, Ref) << "trial " << Trial;
    // On SAT, the model must actually satisfy every clause.
    if (Got == SatSolver::Result::Sat) {
      for (const auto &C : Clauses) {
        bool Any = false;
        for (Lit L : C)
          Any |= S.modelValue(L);
        EXPECT_TRUE(Any);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ratios, RandomSat,
                         ::testing::Values(20, 35, 42, 50, 70));

//===--- Assumptions and incrementality --------------------------------------//

TEST(SatAssume, UnsatUnderAssumptionsDoesNotLatch) {
  // a -> b, assume {a, ~b}: Unsat together with the assumptions, but the
  // clauses alone are satisfiable — the next call must still say Sat.
  SatSolver S;
  unsigned A = S.newVar(), B = S.newVar();
  S.addClause(Lit(A, true), Lit(B, false));
  EXPECT_EQ(S.solve({Lit(A, false), Lit(B, true)}), SatSolver::Result::Unsat);
  EXPECT_FALSE(S.conflictCore().empty());
  EXPECT_EQ(S.solve(), SatSolver::Result::Sat);
  // And retrying with compatible assumptions succeeds on the same solver.
  EXPECT_EQ(S.solve({Lit(A, false), Lit(B, false)}), SatSolver::Result::Sat);
  EXPECT_TRUE(S.modelValue(A));
  EXPECT_TRUE(S.modelValue(B));
}

TEST(SatAssume, GloballyUnsatHasEmptyCore) {
  SatSolver S;
  unsigned A = S.newVar(), B = S.newVar();
  S.addClause(Lit(A, false));
  S.addClause(Lit(A, true));
  EXPECT_EQ(S.solve({Lit(B, false)}), SatSolver::Result::Unsat);
  // The refutation owes nothing to the assumption.
  EXPECT_TRUE(S.conflictCore().empty());
  // Globally unsat does latch: no assumptions can revive the instance.
  EXPECT_EQ(S.solve(), SatSolver::Result::Unsat);
  EXPECT_EQ(S.solve({Lit(B, true)}), SatSolver::Result::Unsat);
}

TEST(SatAssume, ConflictCoreIsRefutedSubsetOfAssumptions) {
  // x1..x4 free; clause (~x2 | ~x3). Assume all four true: the core must
  // name only assumptions, and must itself be refutable.
  SatSolver S;
  std::vector<Lit> Assumps;
  for (int I = 0; I < 4; ++I)
    Assumps.push_back(Lit(S.newVar(), false));
  S.addClause(~Assumps[1], ~Assumps[2]);
  ASSERT_EQ(S.solve(Assumps), SatSolver::Result::Unsat);
  // Copy: conflictCore() aliases solver state the next solve() overwrites.
  const std::vector<Lit> Core = S.conflictCore();
  ASSERT_FALSE(Core.empty());
  for (Lit L : Core) {
    bool IsAssumption = false;
    for (Lit A : Assumps)
      IsAssumption |= (L == A);
    EXPECT_TRUE(IsAssumption);
  }
  // The named subset alone is already inconsistent with the clauses.
  EXPECT_EQ(S.solve(Core), SatSolver::Result::Unsat);
  // Dropping one core member restores satisfiability (the clause is binary,
  // so the core is minimal here).
  std::vector<Lit> AllButOne(Core.begin(), Core.end() - 1);
  EXPECT_EQ(S.solve(AllButOne), SatSolver::Result::Sat);
}

TEST(SatAssume, AssumptionAlreadyImpliedIsSat) {
  // Unit clause forces a; assuming a (and a again) must not confuse the
  // placement loop that handles already-true assumptions.
  SatSolver S;
  unsigned A = S.newVar(), B = S.newVar();
  S.addClause(Lit(A, false));
  S.addClause(Lit(A, true), Lit(B, false)); // a -> b
  EXPECT_EQ(S.solve({Lit(A, false), Lit(A, false), Lit(B, false)}),
            SatSolver::Result::Sat);
  EXPECT_TRUE(S.modelValue(A));
  EXPECT_TRUE(S.modelValue(B));
  // Assuming against the forced unit is Unsat with that assumption cored.
  ASSERT_EQ(S.solve({Lit(A, true)}), SatSolver::Result::Unsat);
  ASSERT_EQ(S.conflictCore().size(), 1u);
  EXPECT_EQ(S.conflictCore()[0], Lit(A, true));
}

TEST(SatAssume, FrozenSelectorsActivateGroups) {
  // Two "groups" guarded by frozen selectors: sel_i -> (x == i's phase).
  // Activating either one alone is Sat; activating both is Unsat, and only
  // selector assumptions appear in the core.
  SatSolver S;
  unsigned X = S.newVar();
  unsigned S1 = S.newVar(), S2 = S.newVar();
  S.setFrozen(S1, true);
  S.setFrozen(S2, true);
  S.addClause(Lit(S1, true), Lit(X, false)); // s1 -> x
  S.addClause(Lit(S2, true), Lit(X, true));  // s2 -> ~x
  EXPECT_EQ(S.solve({Lit(S1, false)}), SatSolver::Result::Sat);
  EXPECT_TRUE(S.modelValue(X));
  EXPECT_EQ(S.solve({Lit(S2, false)}), SatSolver::Result::Sat);
  EXPECT_FALSE(S.modelValue(X));
  ASSERT_EQ(S.solve({Lit(S1, false), Lit(S2, false)}),
            SatSolver::Result::Unsat);
  for (Lit L : S.conflictCore())
    EXPECT_TRUE(L == Lit(S1, false) || L == Lit(S2, false));
  // The solver is still reusable afterwards.
  EXPECT_EQ(S.solve({Lit(S1, false)}), SatSolver::Result::Sat);
}

TEST(SatAssume, FuelExhaustionMidAssumptionSolveIsUnknown) {
  // Assumption placement charges decision fuel; a tank too small to place
  // the prefix must stop with Unknown and latch the token, not crash or
  // mis-report Unsat.
  SatSolver S;
  std::vector<Lit> Assumps;
  for (int I = 0; I < 8; ++I)
    Assumps.push_back(Lit(S.newVar(), false));
  S.addClause(~Assumps[0], Assumps[1]); // give propagation something to do
  Fuel F(2);
  EXPECT_EQ(S.solve(Assumps, /*ConflictBudget=*/0, &F),
            SatSolver::Result::Unknown);
  EXPECT_TRUE(F.exhausted());
  // Refueled, the same solver finishes the same query.
  Fuel Full(1 << 20);
  EXPECT_EQ(S.solve(Assumps, 0, &Full), SatSolver::Result::Sat);
}

//===--- Back-to-back solves vs fresh solvers --------------------------------//

/// Regression net for incremental-state bugs: a solver carried across
/// solve() calls (learned clauses, saved phases, activities and all) must
/// return the same verdict a fresh solver does on every query of a sequence.
TEST(SatIncremental, BackToBackSolvesMatchFreshSolvers) {
  RNG R(777);
  const unsigned NumVars = 10;
  for (int Round = 0; Round < 20; ++Round) {
    // One clause set, queried under several assumption sets in sequence.
    std::vector<std::vector<Lit>> Clauses;
    SatSolver Inc;
    for (unsigned V = 0; V < NumVars; ++V)
      Inc.newVar();
    bool AddedOk = true;
    for (int C = 0; C < 38; ++C) {
      std::vector<Lit> Cl;
      for (int K = 0; K < 3; ++K)
        Cl.push_back(Lit(1 + static_cast<unsigned>(R.below(NumVars)),
                         R.chance(0.5)));
      Clauses.push_back(Cl);
      AddedOk = Inc.addClause(Cl) && AddedOk;
    }
    for (int Q = 0; Q < 6; ++Q) {
      std::vector<Lit> Assumps;
      for (int K = 0; K < 3; ++K)
        Assumps.push_back(Lit(1 + static_cast<unsigned>(R.below(NumVars)),
                              R.chance(0.5)));
      SatSolver Fresh;
      for (unsigned V = 0; V < NumVars; ++V)
        Fresh.newVar();
      bool FreshOk = true;
      for (const auto &Cl : Clauses)
        FreshOk = Fresh.addClause(Cl) && FreshOk;
      ASSERT_EQ(AddedOk, FreshOk);
      auto Got = AddedOk ? Inc.solve(Assumps) : SatSolver::Result::Unsat;
      auto Want = FreshOk ? Fresh.solve(Assumps) : SatSolver::Result::Unsat;
      EXPECT_EQ(Got, Want) << "round " << Round << " query " << Q;
      if (Got == SatSolver::Result::Sat) {
        // Models may differ, but the incremental model must satisfy the
        // clauses and the assumptions.
        for (Lit A : Assumps)
          EXPECT_TRUE(Inc.modelValue(A));
        for (const auto &Cl : Clauses) {
          bool Any = false;
          for (Lit L : Cl)
            Any |= Inc.modelValue(L);
          EXPECT_TRUE(Any);
        }
      }
    }
  }
}

TEST(SatIncremental, SolveAfterBudgetUnknownMatchesFresh) {
  // A budget-starved Unknown in between must not perturb later verdicts
  // (the historic stale-state failure mode).
  SatSolver Inc;
  addPigeonHole(Inc, 6);
  EXPECT_EQ(Inc.solve(2), SatSolver::Result::Unknown);
  EXPECT_EQ(Inc.solve(3), SatSolver::Result::Unknown);
  SatSolver Fresh;
  addPigeonHole(Fresh, 6);
  EXPECT_EQ(Inc.solve(0), Fresh.solve(0));
  EXPECT_EQ(Inc.solve(0), SatSolver::Result::Unsat);
}

TEST(SatIncremental, LearnedClausesRetainedAcrossCalls) {
  // numClauses() counts learnt clauses too: after a search that conflicts,
  // the clause database must have grown, and per-call stats must reset.
  SatSolver S;
  addPigeonHole(S, 4);
  uint64_t Before = S.numClauses();
  ASSERT_EQ(S.solve(), SatSolver::Result::Unsat);
  EXPECT_GT(S.lastConflicts(), 0u);
  EXPECT_GT(S.numClauses(), Before);
  // A second solve on the latched instance is immediate: no new conflicts.
  ASSERT_EQ(S.solve(), SatSolver::Result::Unsat);
  EXPECT_EQ(S.lastConflicts(), 0u);
}

//===--- Search-trajectory golden values -------------------------------------//
//
// Speedups to the solver's data structures (decision order, clause storage)
// must not change a single search decision: every smt.* counter and every
// tiny bench baseline depends on it. These tests pin the exact
// (result, conflicts, decisions, propagations) of fixed instances, plus a
// fingerprint of the model on Sat answers. The values were recorded when
// decisions still came from a linear scan over all variables, so they hold
// the decision heap to that scan's choices. A change that alters search
// rebaselines them once, following docs/COMPARISON.md.

/// One solve() call's outcome: result, per-call counters and, on Sat, an
/// FNV-1a fingerprint of the model over variables 1..numVars().
std::string trajectory(const SatSolver &S, SatSolver::Result R) {
  const char *Name = R == SatSolver::Result::Sat     ? "sat"
                     : R == SatSolver::Result::Unsat ? "unsat"
                                                     : "unknown";
  std::string Out = std::string(Name) + " c=" +
                    std::to_string(S.lastConflicts()) +
                    " d=" + std::to_string(S.lastDecisions()) +
                    " p=" + std::to_string(S.lastPropagations());
  if (R == SatSolver::Result::Sat) {
    uint64_t H = 0xcbf29ce484222325ULL;
    for (unsigned V = 1; V <= S.numVars(); ++V)
      H = (H ^ (S.modelValue(V) ? 1u : 0u)) * 0x100000001b3ULL;
    Out += " m=" + std::to_string(H);
  }
  return Out;
}

/// Random 3-SAT clauses over variables [First, First + NumVars).
std::vector<std::vector<Lit>> random3Sat(RNG &R, unsigned First,
                                         unsigned NumVars, unsigned Count) {
  std::vector<std::vector<Lit>> Clauses(Count);
  for (auto &Cl : Clauses)
    for (int K = 0; K < 3; ++K) {
      // Two statements: argument evaluation order is unspecified, and the
      // pinned values depend on the draw order.
      unsigned V = First + static_cast<unsigned>(R.below(NumVars));
      Cl.push_back(Lit(V, R.chance(0.5)));
    }
  return Clauses;
}

TEST(SatGolden, PigeonHoleAcrossActivityRescale) {
  // PHP(8,7): a first call stopped by a 2000-conflict budget, then a call
  // that proves it. At decay 0.95 the activity increment crosses 1e100
  // after ~4.5k conflicts (counted across calls), so the second call runs
  // through a rescale of every activity.
  SatSolver S;
  addPigeonHole(S, 8);
  std::vector<std::string> Got;
  Got.push_back(trajectory(S, S.solve(2000)));
  Got.push_back(trajectory(S, S.solve(20000)));
  EXPECT_EQ(Got, (std::vector<std::string>{
                     "unknown c=2000 d=2490 p=27455",
                     "unsat c=3142 d=3662 p=38988",
                 }));
}

TEST(SatGolden, UnderflowTiesFallToIndex) {
  // A satisfiable random instance bumps its variables, then a guarded
  // PHP(10,9) runs 24k conflicts: four activity rescales, which underflow
  // the first instance's activities to exactly 0. The last call must then
  // order those now-equal variables by index, as if freshly sorted.
  RNG R(3);
  SatSolver S;
  const unsigned NumVars = 150;
  for (unsigned V = 0; V < NumVars; ++V)
    S.newVar();
  for (const auto &Cl : random3Sat(R, 1, NumVars, 600))
    S.addClause(Cl);
  std::vector<std::string> Got;
  Got.push_back(trajectory(S, S.solve()));
  unsigned Sel = S.newVar();
  S.setFrozen(Sel, true);
  addPigeonHole(S, 10, {Lit(Sel, true)});
  Got.push_back(trajectory(S, S.solve({Lit(Sel, false)}, 24000)));
  for (const auto &Cl : random3Sat(R, 1, NumVars, 45))
    S.addClause(Cl);
  Got.push_back(trajectory(S, S.solve({Lit(Sel, true)})));
  EXPECT_EQ(Got, (std::vector<std::string>{
                     "sat c=1112 d=1354 p=37543 m=854478037893308289",
                     "unknown c=24000 d=28022 p=282778",
                     "unsat c=325 d=487 p=9565",
                 }));
}

TEST(SatGolden, Random3SatAtThreshold) {
  // Three seeded instances at the 3-SAT phase transition (ratio 4.26).
  std::vector<std::string> Got;
  for (uint64_t Seed : {1, 2, 3}) {
    RNG R(Seed);
    SatSolver S;
    const unsigned NumVars = 120;
    for (unsigned V = 0; V < NumVars; ++V)
      S.newVar();
    bool Ok = true;
    for (const auto &Cl : random3Sat(R, 1, NumVars, 511))
      Ok = S.addClause(Cl) && Ok;
    ASSERT_TRUE(Ok);
    Got.push_back(trajectory(S, S.solve()));
  }
  EXPECT_EQ(Got, (std::vector<std::string>{
                     "sat c=365 d=493 p=9890 m=10105110012572634144",
                     "unsat c=630 d=768 p=18039",
                     "unsat c=522 d=630 p=14233",
                 }));
}

/// A shared random base plus six groups of clauses, each guarded by a
/// frozen selector (sel -> clause), the layout QueryPrefix gives a solver.
std::vector<unsigned> buildGuardedInstance(SatSolver &S, RNG &R) {
  const unsigned NumVars = 150;
  for (unsigned V = 0; V < NumVars; ++V)
    S.newVar();
  for (const auto &Cl : random3Sat(R, 1, NumVars, 540))
    S.addClause(Cl);
  std::vector<unsigned> Sels;
  for (int G = 0; G < 6; ++G) {
    unsigned Sel = S.newVar();
    S.setFrozen(Sel, true);
    Sels.push_back(Sel);
    for (auto Cl : random3Sat(R, 1, NumVars, 60)) {
      Cl.push_back(Lit(Sel, true));
      S.addClause(Cl);
    }
  }
  return Sels;
}

TEST(SatGolden, IncrementalFrozenSelectorSequence) {
  RNG R(42);
  SatSolver S;
  std::vector<unsigned> Sels = buildGuardedInstance(S, R);
  auto on = [&](unsigned G) { return Lit(Sels[G], false); };
  auto off = [&](unsigned G) { return Lit(Sels[G], true); };
  std::vector<std::string> Got;
  Got.push_back(trajectory(S, S.solve({on(0)})));
  Got.push_back(trajectory(S, S.solve({on(1), on(2)})));
  Got.push_back(trajectory(S, S.solve({on(0), on(3), on(4), on(5)})));
  Got.push_back(trajectory(S, S.solve({on(1), off(2), on(3)}, 50)));
  Got.push_back(trajectory(S, S.solve()));
  // Unfreezing a selector lets it compete in normal branching.
  S.setFrozen(Sels[5], false);
  Got.push_back(trajectory(S, S.solve({on(2), on(4)})));
  S.setFrozen(Sels[5], true);
  Got.push_back(trajectory(S, S.solve({on(0), on(1), on(2), on(3), on(4),
                                       on(5)})));
  EXPECT_EQ(Got, (std::vector<std::string>{
                     "sat c=1967 d=2365 p=67053 m=17287040619713773031",
                     "unsat c=1107 d=1296 p=36763",
                     "unsat c=347 d=419 p=9102",
                     "unknown c=50 d=63 p=1667",
                     "sat c=183 d=238 p=6522 m=2338317990245141744",
                     "unsat c=809 d=964 p=25067",
                     "unsat c=0 d=2 p=3",
                 }));
}

TEST(SatGolden, CopiedSolverRepeatsMasterSearch) {
  // QueryPrefix::activate copies the master solver per query: the copy must
  // be a full value copy (clauses, watches, activities, decision order), so
  // it searches exactly as the master would.
  RNG R(7);
  SatSolver Master;
  std::vector<unsigned> Sels = buildGuardedInstance(Master, R);
  std::vector<std::string> Got;
  Got.push_back(trajectory(Master, Master.solve({Lit(Sels[0], false)})));
  SatSolver Copy = Master;
  const std::vector<Lit> Query = {Lit(Sels[1], false), Lit(Sels[3], false),
                                  Lit(Sels[4], false)};
  std::string CopyRun = trajectory(Copy, Copy.solve(Query));
  std::string MasterRun = trajectory(Master, Master.solve(Query));
  EXPECT_EQ(CopyRun, MasterRun);
  Got.push_back(CopyRun);
  // The copy owns its clause storage: growing it leaves the master intact.
  for (const auto &Cl : random3Sat(R, 1, 150, 90))
    Copy.addClause(Cl);
  const std::vector<Lit> Next = {Lit(Sels[2], false), Lit(Sels[5], false)};
  Got.push_back(trajectory(Copy, Copy.solve(Next)));
  Got.push_back(trajectory(Master, Master.solve(Next)));
  EXPECT_EQ(Got, (std::vector<std::string>{
                     "sat c=132 d=216 p=4539 m=16200180513008360109",
                     "unsat c=563 d=697 p=16840",
                     "unsat c=337 d=430 p=9151",
                     "unsat c=903 d=1083 p=28574",
                 }));
}

} // namespace
} // namespace veriopt
