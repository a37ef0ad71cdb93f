//===- RuleSweepTest.cpp - Width-parameterized peephole rule properties ----===//
//
// Property sweeps over every supported integer width: each rewrite family
// must (a) fire on its canonical pattern, (b) produce Alive-verified code,
// and (c) agree with the interpreter on random inputs. TEST_P over widths
// catches width-specific bugs (masks, sign bits, overflow corners) that a
// single-width test would miss.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "opt/Pass.h"
#include "support/RNG.h"
#include "verify/AliveLite.h"

#include <gtest/gtest.h>

namespace veriopt {
namespace {

class RuleSweep : public ::testing::TestWithParam<unsigned> {
protected:
  std::string ty() const { return "i" + std::to_string(GetParam()); }

  /// Optimize, verify formally, differential-test, return printed result.
  std::string check(const std::string &Body) {
    std::string Src = "define " + ty() + " @f(" + ty() + " %x, " + ty() +
                      " %y) {\n" + Body + "}\n";
    auto M = parseModule(Src);
    EXPECT_TRUE(M.hasValue()) << M.error().render() << "\n" << Src;
    if (!M.hasValue())
      return "";
    Function *F = M.value()->getMainFunction();
    auto Opt = F->clone();
    runReferencePipeline(*Opt);
    auto VR = verifyRefinement(*F, *Opt);
    EXPECT_EQ(VR.Status, VerifyStatus::Equivalent)
        << VR.Diagnostic << "\ninput:\n"
        << Src << "result:\n"
        << printFunction(*Opt);
    RNG R(GetParam() * 7919);
    unsigned W = GetParam();
    for (int T = 0; T < 12; ++T) {
      std::vector<APInt64> Args = {APInt64(W, R.next()),
                                   APInt64(W, R.next())};
      auto A = interpret(*F, Args);
      auto B = interpret(*Opt, Args);
      if (A.St != ExecResult::Ok || A.RetPoison)
        continue;
      EXPECT_EQ(B.St, ExecResult::Ok);
      if (B.St == ExecResult::Ok && !B.RetPoison) {
        EXPECT_EQ(A.RetVal, B.RetVal) << printFunction(*Opt);
      }
    }
    return printFunction(*Opt);
  }
};

TEST_P(RuleSweep, AlgebraicIdentities) {
  std::string Out =
      check("  %a = add " + ty() + " %x, 0\n  %b = sub " + ty() +
            " %a, 0\n  %c = mul " + ty() + " %b, 1\n  ret " + ty() +
            " %c\n");
  EXPECT_NE(Out.find("ret " + ty() + " %x"), std::string::npos) << Out;
}

TEST_P(RuleSweep, XorCancelAndNeg) {
  std::string Out =
      check("  %a = xor " + ty() + " %x, %y\n  %b = xor " + ty() +
            " %a, %y\n  %c = sub " + ty() + " 0, %b\n  %d = sub " + ty() +
            " 0, %c\n  ret " + ty() + " %d\n");
  EXPECT_NE(Out.find("ret " + ty() + " %x"), std::string::npos) << Out;
}

TEST_P(RuleSweep, StrengthReduction) {
  if (GetParam() < 8)
    GTEST_SKIP() << "needs headroom for the multiplier";
  std::string Out = check("  %a = mul " + ty() + " %x, 4\n  %b = udiv " +
                          ty() + " %a, 2\n  ret " + ty() + " %b\n");
  EXPECT_EQ(Out.find("mul"), std::string::npos) << Out;
  EXPECT_EQ(Out.find("udiv"), std::string::npos) << Out;
}

TEST_P(RuleSweep, ShiftPairBecomesMask) {
  if (GetParam() < 8)
    GTEST_SKIP();
  std::string Out = check("  %a = shl " + ty() + " %x, 3\n  %b = lshr " +
                          ty() + " %a, 3\n  ret " + ty() + " %b\n");
  EXPECT_NE(Out.find("and"), std::string::npos) << Out;
}

TEST_P(RuleSweep, CompareTautology) {
  std::string Src = "define i1 @g(" + ty() + " %x) {\n  %c = icmp uge " +
                    ty() + " %x, 0\n  ret i1 %c\n}\n";
  auto M = parseModule(Src);
  ASSERT_TRUE(M.hasValue());
  Function *F = M.value()->getMainFunction();
  auto Opt = F->clone();
  runReferencePipeline(*Opt);
  EXPECT_NE(printFunction(*Opt).find("ret i1 true"), std::string::npos);
  EXPECT_EQ(verifyRefinement(*F, *Opt).Status, VerifyStatus::Equivalent);
}

TEST_P(RuleSweep, MemoryRoundTrip) {
  std::string Out = check("  %s = alloca " + ty() + "\n  store " + ty() +
                          " %x, ptr %s\n  %v = load " + ty() +
                          ", ptr %s\n  ret " + ty() + " %v\n");
  EXPECT_EQ(Out.find("load"), std::string::npos) << Out;
}

TEST_P(RuleSweep, ReassociationChainsCollapse) {
  if (GetParam() < 8)
    GTEST_SKIP();
  std::string Out =
      check("  %a = add " + ty() + " %x, 1\n  %b = add " + ty() +
            " %a, 2\n  %c = add " + ty() + " %b, 3\n  %d = add " + ty() +
            " %c, 4\n  ret " + ty() + " %d\n");
  EXPECT_NE(Out.find("add " + ty() + " %x, 10"), std::string::npos) << Out;
}

INSTANTIATE_TEST_SUITE_P(Widths, RuleSweep,
                         ::testing::Values(1u, 8u, 16u, 32u, 64u));

} // namespace
} // namespace veriopt
