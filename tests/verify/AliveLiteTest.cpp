//===- AliveLiteTest.cpp - Translation validation unit tests --------------===//

#include "verify/AliveLite.h"

#include "ir/Parser.h"
#include "verify/RefinementQuery.h"

#include "HardTail.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

namespace veriopt {
namespace {

std::unique_ptr<Module> parseOk(const std::string &Src) {
  auto M = parseModule(Src);
  EXPECT_TRUE(M.hasValue()) << M.error().render();
  return M.takeValue();
}

VerifyResult check(const std::string &SrcIR, const std::string &TgtIR,
                   VerifyOptions Opts = VerifyOptions()) {
  auto SM = parseOk(SrcIR);
  return verifyCandidateText(*SM->getMainFunction(), TgtIR, Opts);
}

TEST(AliveLite, IdentityIsEquivalent) {
  const char *F = "define i32 @f(i32 %x) {\n  %y = add i32 %x, 1\n"
                  "  ret i32 %y\n}\n";
  auto R = check(F, F);
  EXPECT_EQ(R.Status, VerifyStatus::Equivalent) << R.Diagnostic;
  EXPECT_FALSE(R.BoundedOnly);
}

TEST(AliveLite, AlgebraicRewriteVerifies) {
  // x*2 -> x<<1: the classic instcombine strength reduction.
  auto R = check("define i32 @f(i32 %x) {\n  %y = mul i32 %x, 2\n"
                 "  ret i32 %y\n}\n",
                 "define i32 @f(i32 %x) {\n  %y = shl i32 %x, 1\n"
                 "  ret i32 %y\n}\n");
  EXPECT_EQ(R.Status, VerifyStatus::Equivalent) << R.Diagnostic;
}

TEST(AliveLite, WrongConstantRefuted) {
  auto R = check("define i32 @f(i32 %x) {\n  %y = add i32 %x, 1\n"
                 "  ret i32 %y\n}\n",
                 "define i32 @f(i32 %x) {\n  %y = add i32 %x, 2\n"
                 "  ret i32 %y\n}\n");
  EXPECT_EQ(R.Status, VerifyStatus::NotEquivalent);
  EXPECT_EQ(R.Kind, DiagKind::ValueMismatch);
  EXPECT_FALSE(R.Counterexample.empty());
  EXPECT_NE(R.Diagnostic.find("Value mismatch"), std::string::npos);
}

TEST(AliveLite, FalsificationPrePassCatchesEasyBugs) {
  auto R = check("define i32 @f(i32 %x) {\n  ret i32 %x\n}\n",
                 "define i32 @f(i32 %x) {\n  %y = sub i32 0, %x\n"
                 "  ret i32 %y\n}\n");
  EXPECT_EQ(R.Status, VerifyStatus::NotEquivalent);
  EXPECT_TRUE(R.FoundByFalsification);
}

TEST(AliveLite, SubtleSignednessBugNeedsSolver) {
  // sdiv by 2 is NOT ashr by 1 (rounds toward zero vs. -inf): differ only
  // on odd negative inputs; random trials usually find it, but disable the
  // pre-pass to force the SMT path.
  VerifyOptions Opts;
  Opts.FalsifyTrials = 0;
  auto R = check("define i32 @f(i32 %x) {\n  %y = sdiv i32 %x, 2\n"
                 "  ret i32 %y\n}\n",
                 "define i32 @f(i32 %x) {\n  %y = ashr i32 %x, 1\n"
                 "  ret i32 %y\n}\n",
                 Opts);
  ASSERT_EQ(R.Status, VerifyStatus::NotEquivalent) << R.Diagnostic;
  EXPECT_EQ(R.Kind, DiagKind::ValueMismatch);
  EXPECT_FALSE(R.FoundByFalsification);
  // The counterexample must be an odd negative number.
  ASSERT_EQ(R.Counterexample.size(), 1u);
  int64_t X = R.Counterexample[0].Value.sext();
  EXPECT_LT(X, 0);
  EXPECT_NE(X % 2, 0);
}

TEST(AliveLite, UDivByPowerOfTwoIsLShr) {
  auto R = check("define i32 @f(i32 %x) {\n  %y = udiv i32 %x, 8\n"
                 "  ret i32 %y\n}\n",
                 "define i32 @f(i32 %x) {\n  %y = lshr i32 %x, 3\n"
                 "  ret i32 %y\n}\n");
  EXPECT_EQ(R.Status, VerifyStatus::Equivalent) << R.Diagnostic;
}

TEST(AliveLite, SyntaxErrorTaxonomy) {
  const char *Src = "define i32 @f(i32 %x) {\n  ret i32 %x\n}\n";
  auto R1 = check(Src, "definne i32 @f(i32 %x) { ret i32 %x }");
  EXPECT_EQ(R1.Status, VerifyStatus::SyntaxError);
  EXPECT_EQ(R1.Kind, DiagKind::ParseError);
  // Parses but is ill-formed SSA (use before def across blocks).
  auto R2 = check(Src, R"(
define i32 @f(i32 %x) {
entryblk:
  br label %next
next:
  ret i32 %y
later:
  %y = add i32 %x, 1
  br label %next
}
)");
  EXPECT_EQ(R2.Status, VerifyStatus::SyntaxError);
  EXPECT_EQ(R2.Kind, DiagKind::StructureError);
}

TEST(AliveLite, SignatureMismatch) {
  auto R = check("define i32 @f(i32 %x) {\n  ret i32 %x\n}\n",
                 "define i64 @f(i64 %x) {\n  ret i64 %x\n}\n");
  EXPECT_EQ(R.Status, VerifyStatus::NotEquivalent);
  EXPECT_EQ(R.Kind, DiagKind::SignatureMismatch);
}

TEST(AliveLite, PoisonIntroductionRefuted) {
  // Adding nsw to an add that may overflow introduces poison.
  VerifyOptions Opts;
  Opts.FalsifyTrials = 0; // force the symbolic path
  auto R = check("define i32 @f(i32 %x) {\n  %y = add i32 %x, 1\n"
                 "  ret i32 %y\n}\n",
                 "define i32 @f(i32 %x) {\n  %y = add nsw i32 %x, 1\n"
                 "  ret i32 %y\n}\n",
                 Opts);
  EXPECT_EQ(R.Status, VerifyStatus::NotEquivalent) << R.Diagnostic;
  EXPECT_EQ(R.Kind, DiagKind::PoisonMismatch);
}

TEST(AliveLite, DroppingNSWIsRefinement) {
  // Removing a poison-generating flag is always sound.
  auto R = check("define i32 @f(i32 %x) {\n  %y = add nsw i32 %x, 1\n"
                 "  ret i32 %y\n}\n",
                 "define i32 @f(i32 %x) {\n  %y = add i32 %x, 1\n"
                 "  ret i32 %y\n}\n");
  EXPECT_EQ(R.Status, VerifyStatus::Equivalent) << R.Diagnostic;
}

TEST(AliveLite, NSWEnablesTransform) {
  // (x+1 > x) with nsw folds to true; without nsw it would be wrong.
  auto OK = check(R"(
define i1 @f(i32 %x) {
  %y = add nsw i32 %x, 1
  %c = icmp sgt i32 %y, %x
  ret i1 %c
}
)",
                  "define i1 @f(i32 %x) {\n  ret i1 true\n}\n");
  EXPECT_EQ(OK.Status, VerifyStatus::Equivalent) << OK.Diagnostic;
  auto Bad = check(R"(
define i1 @f(i32 %x) {
  %y = add i32 %x, 1
  %c = icmp sgt i32 %y, %x
  ret i1 %c
}
)",
                   "define i1 @f(i32 %x) {\n  ret i1 true\n}\n");
  EXPECT_EQ(Bad.Status, VerifyStatus::NotEquivalent) << Bad.Diagnostic;
}

TEST(AliveLite, UBIntroductionRefuted) {
  // Introducing a division that can fault is not a refinement.
  VerifyOptions Opts;
  Opts.FalsifyTrials = 0;
  auto R = check("define i32 @f(i32 %x) {\n  ret i32 0\n}\n",
                 "define i32 @f(i32 %x) {\n  %q = udiv i32 4, %x\n"
                 "  %z = sub i32 %q, %q\n  ret i32 %z\n}\n",
                 Opts);
  EXPECT_EQ(R.Status, VerifyStatus::NotEquivalent) << R.Diagnostic;
  EXPECT_EQ(R.Kind, DiagKind::UBIntroduced);
  // The counterexample must be x == 0.
  ASSERT_EQ(R.Counterexample.size(), 1u);
  EXPECT_TRUE(R.Counterexample[0].Value.isZero());
}

TEST(AliveLite, RemovingSourceUBIsAllowed) {
  // Source may divide by zero; target guards it: refinement holds.
  auto R = check("define i32 @f(i32 %x) {\n  %q = udiv i32 4, %x\n"
                 "  ret i32 %q\n}\n",
                 R"(
define i32 @f(i32 %x) {
  %z = icmp eq i32 %x, 0
  br i1 %z, label %zero, label %ok
zero:
  ret i32 7
ok:
  %q = udiv i32 4, %x
  ret i32 %q
}
)");
  EXPECT_EQ(R.Status, VerifyStatus::Equivalent) << R.Diagnostic;
}

TEST(AliveLite, MemoryStoreLoadForwarding) {
  // Paper Fig. 8 shape: replace stores+load with a constant.
  auto R = check(R"(
define i64 @get_d() {
  %s = alloca i64
  store i32 0, ptr %s
  %hi = getelementptr i8, ptr %s, i64 4
  store i32 0, ptr %hi
  %v = load i64, ptr %s
  ret i64 %v
}
)",
                 "define i64 @get_d() {\n  ret i64 0\n}\n");
  EXPECT_EQ(R.Status, VerifyStatus::Equivalent) << R.Diagnostic;
}

TEST(AliveLite, MemoryWrongForwardingRefuted) {
  auto R = check(R"(
define i32 @f(i32 %x) {
  %s = alloca i32
  store i32 %x, ptr %s
  %v = load i32, ptr %s
  ret i32 %v
}
)",
                 "define i32 @f(i32 %x) {\n  ret i32 0\n}\n");
  EXPECT_EQ(R.Status, VerifyStatus::NotEquivalent);
}

TEST(AliveLite, BranchesAndPhisVerify) {
  // select <-> branch+phi equivalence (simplifycfg-style, paper Fig. 10).
  auto R = check(R"(
define i32 @f(i32 %x) {
  %c = icmp ult i32 %x, 10
  br i1 %c, label %small, label %big
small:
  br label %join
big:
  br label %join
join:
  %r = phi i32 [ 0, %small ], [ 1, %big ]
  ret i32 %r
}
)",
                 R"(
define i32 @f(i32 %x) {
  %c = icmp ult i32 %x, 10
  %r = select i1 %c, i32 0, i32 1
  ret i32 %r
}
)");
  EXPECT_EQ(R.Status, VerifyStatus::Equivalent) << R.Diagnostic;
}

TEST(AliveLite, CallPreservationVerifies) {
  // Paper Fig. 9: removing the alloca traffic around a call is fine as
  // long as the call (and its guard) survives.
  const char *Src = R"(
declare void @foo(i32)
define i64 @f28(i64 %a, i64 %b) {
  %s = alloca i64
  %sum = add i64 %a, %b
  store i64 %sum, ptr %s
  %c = icmp ugt i64 %sum, %a
  br i1 %c, label %done, label %callit
callit:
  call void @foo(i32 0)
  br label %done
done:
  %v = load i64, ptr %s
  ret i64 %v
}
)";
  const char *Tgt = R"(
declare void @foo(i32)
define i64 @f28(i64 %a, i64 %b) {
  %sum = add i64 %a, %b
  %c = icmp ugt i64 %sum, %a
  br i1 %c, label %done, label %callit
callit:
  call void @foo(i32 0)
  br label %done
done:
  ret i64 %sum
}
)";
  auto R = check(Src, Tgt);
  EXPECT_EQ(R.Status, VerifyStatus::Equivalent) << R.Diagnostic;
}

TEST(AliveLite, DroppedCallRefuted) {
  const char *Src = R"(
declare void @foo(i32)
define void @f(i32 %x) {
  call void @foo(i32 %x)
  ret void
}
)";
  auto R = check(Src, "define void @f(i32 %x) {\n  ret void\n}\n");
  EXPECT_EQ(R.Status, VerifyStatus::NotEquivalent);
  EXPECT_EQ(R.Kind, DiagKind::CallMismatch);
}

TEST(AliveLite, ChangedCallArgumentRefuted) {
  const char *Src = R"(
declare void @foo(i32)
define void @f(i32 %x) {
  call void @foo(i32 %x)
  ret void
}
)";
  const char *Tgt = R"(
declare void @foo(i32)
define void @f(i32 %x) {
  %y = add i32 %x, 1
  call void @foo(i32 %y)
  ret void
}
)";
  auto R = check(Src, Tgt);
  EXPECT_EQ(R.Status, VerifyStatus::NotEquivalent);
  EXPECT_EQ(R.Kind, DiagKind::CallMismatch);
}

TEST(AliveLite, CallResultThreadsThroughWorld) {
  // Using the call's result differently is detectable: source returns it,
  // target negates it.
  const char *Src = R"(
declare i32 @get()
define i32 @f() {
  %v = call i32 @get()
  ret i32 %v
}
)";
  const char *TgtBad = R"(
declare i32 @get()
define i32 @f() {
  %v = call i32 @get()
  %n = sub i32 0, %v
  ret i32 %n
}
)";
  auto Bad = check(Src, TgtBad);
  EXPECT_EQ(Bad.Status, VerifyStatus::NotEquivalent) << Bad.Diagnostic;
  // And the identity use verifies.
  auto Ok = check(Src, Src);
  EXPECT_EQ(Ok.Status, VerifyStatus::Equivalent) << Ok.Diagnostic;
}

TEST(AliveLite, BoundedLoopEquivalence) {
  // A loop summing 1+2+3 (constant trip count 3, within the unroll bound)
  // against its closed form.
  const char *Src = R"(
define i32 @f() {
entryblk:
  br label %head
head:
  %i = phi i32 [ 0, %entryblk ], [ %ni, %body ]
  %acc = phi i32 [ 0, %entryblk ], [ %nacc, %body ]
  %c = icmp ult i32 %i, 3
  br i1 %c, label %body, label %done
body:
  %ni = add i32 %i, 1
  %nacc = add i32 %acc, %ni
  br label %head
done:
  ret i32 %acc
}
)";
  auto R = check(Src, "define i32 @f() {\n  ret i32 6\n}\n");
  EXPECT_EQ(R.Status, VerifyStatus::Equivalent) << R.Diagnostic;
  EXPECT_FALSE(R.BoundedOnly); // trip count below the bound: full proof
}

TEST(AliveLite, UnboundedLoopIsBoundedOnlyOrInconclusive) {
  const char *Src = R"(
define i32 @f(i32 %n) {
entryblk:
  br label %head
head:
  %i = phi i32 [ 0, %entryblk ], [ %ni, %body ]
  %c = icmp ult i32 %i, %n
  br i1 %c, label %body, label %done
body:
  %ni = add i32 %i, 1
  br label %head
done:
  ret i32 %i
}
)";
  // Identity transform of an input-dependent loop: provable only within
  // the unroll bound.
  auto R = check(Src, Src);
  EXPECT_EQ(R.Status, VerifyStatus::Equivalent) << R.Diagnostic;
  EXPECT_TRUE(R.BoundedOnly);
  // Strict mode refuses.
  VerifyOptions Strict;
  Strict.StrictLoops = true;
  auto R2 = check(Src, Src, Strict);
  EXPECT_EQ(R2.Status, VerifyStatus::Inconclusive);
  EXPECT_EQ(R2.Kind, DiagKind::LoopBound);
}

TEST(AliveLite, SolverBudgetInconclusive) {
  // A 32x32 multiply round-trip with a tiny SAT budget.
  VerifyOptions Opts;
  Opts.SolverConflictBudget = 5;
  Opts.FalsifyTrials = 0;
  auto R = check(R"(
define i32 @f(i32 %x, i32 %y) {
  %m = mul i32 %x, %y
  ret i32 %m
}
)",
                 R"(
define i32 @f(i32 %x, i32 %y) {
  %m = mul i32 %y, %x
  ret i32 %m
}
)",
                 Opts);
  EXPECT_EQ(R.Status, VerifyStatus::Inconclusive) << R.Diagnostic;
  EXPECT_EQ(R.Kind, DiagKind::SolverTimeout);
}

TEST(AliveLite, VoidFunctions) {
  const char *Src = "define void @f(i32 %x) {\n  ret void\n}\n";
  auto R = check(Src, "define void @f(i32 %x) {\n  %y = add i32 %x, 1\n"
                      "  %z = mul i32 %y, %y\n  ret void\n}\n");
  EXPECT_EQ(R.Status, VerifyStatus::Equivalent) << R.Diagnostic;
}

TEST(AliveLite, TruncationMismatch) {
  // Paper Fig. 11 shape: missing a trunc matters.
  VerifyOptions Opts;
  auto R = check(R"(
define i32 @f8(i64 %x) {
  %s = lshr i64 %x, 61
  %t = trunc i64 %s to i32
  %r = add i32 %t, 1
  ret i32 %r
}
)",
                 R"(
define i32 @f8(i64 %x) {
  %s = lshr i64 %x, 32
  %t = trunc i64 %s to i32
  %r = add i32 %t, 1
  ret i32 %r
}
)",
                 Opts);
  EXPECT_EQ(R.Status, VerifyStatus::NotEquivalent);
}

TEST(AliveLite, FalsificationTriesMixedCornerPatterns) {
  // Regression: the corner sweeps used to assign every argument the *same*
  // corner value, so a divergence that needs a mixed pattern — here
  // (a, b) = (0, 1) — slipped past falsification and fell through to the
  // SMT solver. Per-argument corner selection must catch it with corner
  // sweeps alone (no random trials: 6 sweeps exactly).
  VerifyOptions Opts;
  Opts.FalsifyTrials = 6;
  auto R = check(R"(
define i32 @f(i32 %a, i32 %b) {
  ret i32 0
}
)",
                 R"(
define i32 @f(i32 %a, i32 %b) {
  %c0 = icmp eq i32 %a, 0
  %c1 = icmp eq i32 %b, 1
  %c = and i1 %c0, %c1
  %r = zext i1 %c to i32
  ret i32 %r
}
)",
                 Opts);
  ASSERT_EQ(R.Status, VerifyStatus::NotEquivalent) << R.Diagnostic;
  EXPECT_TRUE(R.FoundByFalsification)
      << "mixed corner (0, 1) not tried by the falsification pre-pass";
}

TEST(AliveLite, DiagnosticTextShape) {
  auto R = check("define i32 @f(i32 %x) {\n  %y = add i32 %x, 1\n"
                 "  ret i32 %y\n}\n",
                 "define i32 @f(i32 %x) {\n  %y = add i32 %x, 2\n"
                 "  ret i32 %y\n}\n");
  EXPECT_NE(R.Diagnostic.find("Transformation doesn't verify!"),
            std::string::npos);
  EXPECT_NE(R.Diagnostic.find("ERROR:"), std::string::npos);
  EXPECT_NE(R.Diagnostic.find("Example:"), std::string::npos);
  auto Ok = check("define i32 @f(i32 %x) {\n  ret i32 %x\n}\n",
                  "define i32 @f(i32 %x) {\n  ret i32 %x\n}\n");
  EXPECT_NE(Ok.Diagnostic.find("Transformation seems to be correct!"),
            std::string::npos);
}

TEST(AliveLite, PathSplitRewritePreservesHardTailMiters) {
  // The rewrite behind the path-split escalation, on the miters it exists
  // for. On inputs that take source path p, BVContext::simplifyUnder(T,
  // c_p) must evaluate like T, for the miter and for every select, udiv
  // and urem in it (the miter itself is 0 everywhere on these sound pairs).
  for (uint64_t Seed : {1004u, 1034u}) {
    HardTailPair P(Seed);
    auto TM = parseOk(P.OptText);
    VerifyOptions Opts;
    auto SC = buildSourceEncoding(*P.Src, Opts);
    BVContext &Ctx = SC->Ctx;
    const BVExpr *Cex = refinementCondition(*SC, *TM->getMainFunction(), Opts);
    ASSERT_TRUE(Cex) << "seed " << Seed;

    std::vector<const BVExpr *> Terms{Cex};
    std::set<const BVExpr *> Seen;
    std::vector<const BVExpr *> Stack{Cex};
    while (!Stack.empty()) {
      const BVExpr *E = Stack.back();
      Stack.pop_back();
      if (!Seen.insert(E).second)
        continue;
      if (E->Op == BVOp::ITE || E->Op == BVOp::UDiv || E->Op == BVOp::URem)
        Terms.push_back(E);
      Stack.insert(Stack.end(), E->Ops.begin(), E->Ops.end());
    }

    std::map<std::pair<size_t, const BVExpr *>, const BVExpr *> Rewritten;
    std::set<size_t> PathsTaken;
    unsigned Checked = 0, Changed = 0;
    RNG R(Seed);
    for (int Trial = 0; Trial < 200; ++Trial) {
      // Small values half the time, so equality branches are taken too.
      std::unordered_map<unsigned, APInt64> M;
      for (const BVExpr *V : SC->ArgVars)
        M[V->VarId] = APInt64(V->Width, R.below(2) ? R.below(4) : R.next());
      for (size_t I = 0; I < SC->SE.Paths.size(); ++I) {
        const BVExpr *Cond = SC->SE.Paths[I].Cond;
        if (!Ctx.evaluate(Cond, M).isOne())
          continue;
        PathsTaken.insert(I);
        for (const BVExpr *T : Terms) {
          const BVExpr *&S = Rewritten[{I, T}];
          if (!S) {
            S = Ctx.simplifyUnder(T, Cond);
            Changed += S != T;
          }
          ++Checked;
          ASSERT_EQ(Ctx.evaluate(S, M), Ctx.evaluate(T, M))
              << "seed " << Seed << ", source path " << I;
        }
      }
    }
    EXPECT_GE(PathsTaken.size(), 2u) << "seed " << Seed;
    EXPECT_GT(Changed, 0u) << "seed " << Seed << ": the rewrite did nothing";
    EXPECT_GT(Checked, 1000u) << "seed " << Seed;
  }
}

} // namespace
} // namespace veriopt
