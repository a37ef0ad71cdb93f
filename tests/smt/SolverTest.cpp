//===- SolverTest.cpp - End-to-end BV solving (blaster + CDCL) ------------===//

#include "smt/Solver.h"

#include "support/RNG.h"

#include <gtest/gtest.h>

namespace veriopt {
namespace {

/// Prove a width-1 term is valid by refuting its negation.
void expectValid(BVContext &C, const BVExpr *Prop, const char *What) {
  auto R = checkSat(C, C.not1(Prop));
  EXPECT_EQ(R.St, SmtCheck::Unsat) << What;
}

class AlgebraicIdentities : public ::testing::TestWithParam<unsigned> {};

TEST_P(AlgebraicIdentities, HoldAtAllWidths) {
  unsigned W = GetParam();
  BVContext C;
  const BVExpr *X = C.var(W, "x");
  const BVExpr *Y = C.var(W, "y");
  expectValid(C, C.eq(C.sub(C.add(X, Y), Y), X), "(x+y)-y == x");
  expectValid(C, C.eq(C.bvxor(C.bvxor(X, Y), Y), X), "(x^y)^y == x");
  expectValid(C, C.eq(C.add(X, X), C.mul(X, C.constant(W, 2))),
              "x+x == 2*x");
  expectValid(C, C.eq(C.bvnot(C.bvand(X, Y)),
                      C.bvor(C.bvnot(X), C.bvnot(Y))),
              "De Morgan");
  expectValid(C, C.eq(C.neg(X), C.add(C.bvnot(X), C.constant(W, 1))),
              "-x == ~x+1");
  if (W > 1)
    expectValid(C, C.eq(C.mul(X, C.constant(W, 2)),
                        C.shl(X, C.constant(W, 1))),
                "2*x == x<<1");
  expectValid(C, C.implies(C.ult(X, Y), C.ne(X, Y)), "x<y -> x!=y");
}

INSTANTIATE_TEST_SUITE_P(Widths, AlgebraicIdentities,
                         ::testing::Values(1u, 8u, 16u, 32u));

TEST(Solver, FindsCounterexampleForWrongIdentity) {
  BVContext C;
  const BVExpr *X = C.var(8, "x");
  // Claim: x + 1 == x - 1, refutable; model must witness it.
  auto R = checkSat(C, C.ne(C.add(X, C.constant(8, 1)),
                            C.sub(X, C.constant(8, 1))),
                    {X});
  ASSERT_EQ(R.St, SmtCheck::Sat);
  ASSERT_TRUE(R.Model.count(X->VarId));
  APInt64 XV = R.Model[X->VarId];
  EXPECT_NE(XV.add(APInt64(8, 1)), XV.sub(APInt64(8, 1)));
}

TEST(Solver, ModelSatisfiesComplexConstraint) {
  BVContext C;
  const BVExpr *X = C.var(16, "x");
  const BVExpr *Y = C.var(16, "y");
  // x * y == 391 (= 17 * 23) with both > 1: factoring, a real search.
  const BVExpr *P = C.and1(
      C.eq(C.mul(X, Y), C.constant(16, 391)),
      C.and1(C.ult(C.constant(16, 1), X), C.ult(C.constant(16, 1), Y)));
  auto R = checkSat(C, P, {X, Y});
  ASSERT_EQ(R.St, SmtCheck::Sat);
  uint64_t XV = R.Model[X->VarId].zext(), YV = R.Model[Y->VarId].zext();
  EXPECT_EQ((XV * YV) & 0xFFFF, 391u);
  EXPECT_GT(XV, 1u);
  EXPECT_GT(YV, 1u);
}

TEST(Solver, DivisionCircuit) {
  BVContext C;
  const BVExpr *X = C.var(8, "x");
  const BVExpr *Y = C.var(8, "y");
  // Division algorithm invariant: y != 0 -> x == (x/y)*y + x%y.
  const BVExpr *Prop = C.implies(
      C.ne(Y, C.constant(8, 0)),
      C.eq(X, C.add(C.mul(C.udiv(X, Y), Y), C.urem(X, Y))));
  expectValid(C, Prop, "division algorithm");
  // Remainder bound: y != 0 -> x%y < y.
  expectValid(C,
              C.implies(C.ne(Y, C.constant(8, 0)),
                        C.ult(C.urem(X, Y), Y)),
              "remainder bound");
}

TEST(Solver, SignedDivisionDerivation) {
  BVContext C;
  const BVExpr *X = C.var(8, "x");
  // sdiv(x, 1) == x  and  srem(x, 1) == 0.
  expectValid(C, C.eq(C.sdiv(X, C.constant(8, 1)), X), "sdiv by one");
  expectValid(C, C.eq(C.srem(X, C.constant(8, 1)), C.constant(8, 0)),
              "srem by one");
  // sdiv(-6, 2) == -3 shape: sdiv(neg x, y) == neg(sdiv(x, y)) when no
  // overflow corner; check concrete instance instead of the general rule.
  const BVExpr *I = C.sdiv(C.constant(8, static_cast<uint64_t>(-6) & 0xFF),
                           C.constant(8, 2));
  EXPECT_TRUE(I->isConst());
  EXPECT_EQ(APInt64(8, I->ConstVal.zext()).sext(), -3);
}

TEST(Solver, ShiftSemanticsOutOfRange) {
  BVContext C;
  const BVExpr *X = C.var(8, "x");
  // Shift by >= width yields zero (dialect/SMT semantics).
  expectValid(C, C.eq(C.shl(X, C.constant(8, 8)), C.constant(8, 0)),
              "shl by width is zero");
  expectValid(C, C.eq(C.lshr(X, C.constant(8, 200)), C.constant(8, 0)),
              "lshr by >width is zero");
  // ashr by >= width is sign fill.
  const BVExpr *Fill = C.ite(C.slt(X, C.constant(8, 0)),
                             C.constant(8, 0xFF), C.constant(8, 0));
  expectValid(C, C.eq(C.ashr(X, C.constant(8, 9)), Fill),
              "ashr by >width is sign fill");
}

TEST(Solver, UnknownOnBudgetExhaustion) {
  BVContext C;
  // Refuting 32-bit multiplication commutativity requires resolution far
  // beyond a 10-conflict budget (the underlying UNSAT proof is huge).
  const BVExpr *X = C.var(32, "x");
  const BVExpr *Y = C.var(32, "y");
  const BVExpr *Hard = C.ne(C.mul(X, Y), C.mul(Y, X));
  auto R = checkSat(C, Hard, {}, /*ConflictBudget=*/10);
  EXPECT_EQ(R.St, SmtCheck::Unknown);
}

/// Differential property: for random terms and random concrete inputs, the
/// solver pinned to those inputs must agree with direct evaluation.
TEST(Solver, DifferentialAgainstEvaluator) {
  RNG R(4242);
  for (int Trial = 0; Trial < 25; ++Trial) {
    BVContext C;
    unsigned W = (Trial % 2) ? 8 : 16;
    const BVExpr *X = C.var(W, "x");
    const BVExpr *Y = C.var(W, "y");
    // Build a random term tree of depth ~4.
    std::vector<const BVExpr *> Leaves = {
        X, Y, C.constant(W, R.next() & 0xFF), C.constant(W, 1)};
    std::vector<const BVExpr *> Work = Leaves;
    for (int Step = 0; Step < 6; ++Step) {
      const BVExpr *A = Work[R.below(Work.size())];
      const BVExpr *B = Work[R.below(Work.size())];
      const BVExpr *N = nullptr;
      switch (R.below(8)) {
      case 0:
        N = C.add(A, B);
        break;
      case 1:
        N = C.sub(A, B);
        break;
      case 2:
        N = C.mul(A, B);
        break;
      case 3:
        N = C.bvand(A, B);
        break;
      case 4:
        N = C.bvor(A, B);
        break;
      case 5:
        N = C.bvxor(A, B);
        break;
      case 6:
        N = C.shl(A, B);
        break;
      default:
        N = C.lshr(A, B);
        break;
      }
      Work.push_back(N);
    }
    const BVExpr *T = Work.back();

    APInt64 XV(W, R.next()), YV(W, R.next());
    std::unordered_map<unsigned, APInt64> M = {{X->VarId, XV},
                                               {Y->VarId, YV}};
    APInt64 Expected = C.evaluate(T, M);

    // Pin inputs and assert the term differs from its evaluation: UNSAT.
    const BVExpr *Pinned = C.and1(
        C.and1(C.eq(X, C.constant(XV)), C.eq(Y, C.constant(YV))),
        C.ne(T, C.constant(Expected)));
    auto Res = checkSat(C, Pinned);
    EXPECT_EQ(Res.St, SmtCheck::Unsat) << "trial " << Trial;
  }
}

//===--- QueryPrefix: retained-prefix activations ----------------------------//

TEST(QueryPrefix, ActivationAgreesWithCheckSat) {
  // The incremental front door must return the same statuses (and valid
  // models) as the one-shot door on the same constraints.
  BVContext C;
  const BVExpr *X = C.var(8, "x");
  const BVExpr *Y = C.var(8, "y");
  QueryPrefix P(C, {X, Y});

  // Valid identity: negation is Unsat both ways.
  const BVExpr *Valid = C.not1(C.eq(C.bvxor(C.bvxor(X, Y), Y), X));
  EXPECT_EQ(P.activate(Valid, {}, 0, nullptr, false).St, SmtCheck::Unsat);
  EXPECT_EQ(checkSat(C, Valid).St, SmtCheck::Unsat);

  // Refutable claim: Sat with a genuine witness.
  const BVExpr *Wrong =
      C.ne(C.add(X, C.constant(8, 1)), C.sub(X, C.constant(8, 1)));
  auto R = P.activate(Wrong, {X}, 0, nullptr, false);
  ASSERT_EQ(R.St, SmtCheck::Sat);
  ASSERT_TRUE(R.Model.count(X->VarId));
  APInt64 XV = R.Model[X->VarId];
  EXPECT_NE(XV.add(APInt64(8, 1)), XV.sub(APInt64(8, 1)));
  EXPECT_EQ(checkSat(C, Wrong).St, SmtCheck::Sat);
}

TEST(QueryPrefix, CloneActivationMatchesInPlaceBitForBit) {
  // activate() (copy of the master) and activateInPlace() (the master
  // itself) must agree on status, model, and the conflict count — this is
  // the foundation of the batch path's bit-identity with the sequential
  // oracle.
  auto build = [](BVContext &C, const BVExpr *&X, const BVExpr *&Y,
                  const BVExpr *&Q) {
    X = C.var(16, "x");
    Y = C.var(16, "y");
    // Factoring query: real CDCL search, so conflict counts are nontrivial.
    Q = C.and1(C.eq(C.mul(X, Y), C.constant(16, 391)),
               C.and1(C.ult(C.constant(16, 1), X),
                      C.ult(C.constant(16, 1), Y)));
  };
  BVContext C1, C2;
  const BVExpr *X1, *Y1, *Q1, *X2, *Y2, *Q2;
  build(C1, X1, Y1, Q1);
  build(C2, X2, Y2, Q2);
  QueryPrefix P1(C1, {X1, Y1});
  QueryPrefix P2(C2, {X2, Y2});
  auto A = P1.activate(Q1, {X1, Y1}, 0, nullptr, false);
  auto B = P2.activateInPlace(Q2, {X2, Y2}, 0, nullptr);
  ASSERT_EQ(A.St, SmtCheck::Sat);
  ASSERT_EQ(B.St, SmtCheck::Sat);
  EXPECT_EQ(A.Conflicts, B.Conflicts);
  EXPECT_EQ(A.Model[X1->VarId], B.Model[X2->VarId]);
  EXPECT_EQ(A.Model[Y1->VarId], B.Model[Y2->VarId]);
}

TEST(QueryPrefix, RepeatedActivationsAreIndependent) {
  // Activations never touch the master, so the same query asked first,
  // in-between, and last must return identical results (status, model,
  // conflicts) regardless of what other candidates were activated.
  BVContext C;
  const BVExpr *X = C.var(8, "x");
  QueryPrefix P(C, {X});
  const BVExpr *Q1 = C.ne(C.mul(X, C.constant(8, 3)),
                          C.add(C.add(X, X), X)); // valid -> Unsat
  const BVExpr *Q2 = C.ne(C.shl(X, C.constant(8, 1)),
                          C.add(X, C.constant(8, 1))); // Sat
  auto First = P.activate(Q1, {X}, 0, nullptr, false);
  auto Other = P.activate(Q2, {X}, 0, nullptr, false);
  auto Again = P.activate(Q1, {X}, 0, nullptr, false);
  EXPECT_EQ(First.St, SmtCheck::Unsat);
  EXPECT_EQ(Other.St, SmtCheck::Sat);
  EXPECT_EQ(Again.St, First.St);
  EXPECT_EQ(Again.Conflicts, First.Conflicts);
}

TEST(QueryPrefix, BudgetExhaustionReportsUnknown) {
  BVContext C;
  const BVExpr *X = C.var(32, "x");
  const BVExpr *Y = C.var(32, "y");
  QueryPrefix P(C, {X, Y});
  const BVExpr *Hard = C.ne(C.mul(X, Y), C.mul(Y, X));
  EXPECT_EQ(P.activate(Hard, {}, /*ConflictBudget=*/10, nullptr, false).St,
            SmtCheck::Unknown);
  // A later activation with an adequate budget still finishes: the Unknown
  // left no residue on the master.
  EXPECT_EQ(P.activate(C.ne(X, X), {}, 0, nullptr, false).St, SmtCheck::Unsat);
}

TEST(QueryPrefix, FuelExhaustionLatchesToken) {
  BVContext C;
  const BVExpr *X = C.var(32, "x");
  const BVExpr *Y = C.var(32, "y");
  QueryPrefix P(C, {X, Y});
  const BVExpr *Hard = C.ne(C.mul(X, Y), C.mul(Y, X));
  Fuel F(50);
  EXPECT_EQ(P.activate(Hard, {}, 0, &F, false).St, SmtCheck::Unknown);
  EXPECT_TRUE(F.exhausted());
}

TEST(QueryPrefix, TriviallyFalseConstraintShortCircuits) {
  BVContext C;
  const BVExpr *X = C.var(8, "x");
  QueryPrefix P(C, {X});
  auto R = P.activate(C.constant(1, 0), {}, 0, nullptr, false);
  EXPECT_EQ(R.St, SmtCheck::Unsat);
  EXPECT_EQ(R.Conflicts, 0u);
}

} // namespace
} // namespace veriopt
