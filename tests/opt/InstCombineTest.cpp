//===- InstCombineTest.cpp - Peephole rule tests ---------------------------===//

#include "opt/Pass.h"

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "verify/AliveLite.h"

#include "Golden.h"

#include <gtest/gtest.h>

namespace veriopt {
namespace {

/// Parse, run the reference pipeline, check the result still verifies as IR
/// AND is Alive-lite-equivalent to the input; return printed output.
std::string optimize(const std::string &Src, PassTrace *Trace = nullptr) {
  auto M = parseModule(Src);
  EXPECT_TRUE(M.hasValue()) << M.error().render();
  Function *F = M.value()->getMainFunction();
  auto Original = F->clone();
  runReferencePipeline(*F, Trace);
  std::string Err;
  EXPECT_TRUE(isWellFormed(*F, &Err)) << Err << "\n" << printFunction(*F);
  auto VR = verifyRefinement(*Original, *F);
  EXPECT_EQ(VR.Status, VerifyStatus::Equivalent)
      << VR.Diagnostic << "\nsource:\n"
      << printFunction(*Original) << "\nresult:\n"
      << printFunction(*F);
  return printFunction(*F);
}

/// Shorthand for "the optimized text contains / does not contain".
#define EXPECT_HAS(Text, Needle) \
  EXPECT_NE((Text).find(Needle), std::string::npos) << (Text)
#define EXPECT_NOT_HAS(Text, Needle) \
  EXPECT_EQ((Text).find(Needle), std::string::npos) << (Text)

TEST(InstCombine, AddZero) {
  std::string Out = optimize("define i32 @f(i32 %x) {\n"
                             "  %y = add i32 %x, 0\n  ret i32 %y\n}\n");
  EXPECT_HAS(Out, "ret i32 %x");
  EXPECT_NOT_HAS(Out, "add");
}

TEST(InstCombine, ConstantFolding) {
  std::string Out = optimize(
      "define i32 @f() {\n  %a = add i32 21, 21\n  %b = mul i32 %a, 2\n"
      "  %c = sub i32 %b, 4\n  ret i32 %c\n}\n");
  EXPECT_HAS(Out, "ret i32 80");
  EXPECT_NOT_HAS(Out, "add");
}

TEST(InstCombine, StrengthReduction) {
  std::string Out = optimize("define i32 @f(i32 %x) {\n"
                             "  %a = mul i32 %x, 8\n  %b = udiv i32 %a, 4\n"
                             "  %c = urem i32 %b, 16\n  ret i32 %c\n}\n");
  EXPECT_NOT_HAS(Out, "mul");
  EXPECT_NOT_HAS(Out, "udiv");
  EXPECT_NOT_HAS(Out, "urem");
  EXPECT_HAS(Out, "shl");
}

TEST(InstCombine, AddSelfBecomesShl) {
  std::string Out = optimize("define i32 @f(i32 %x) {\n"
                             "  %y = add i32 %x, %x\n  ret i32 %y\n}\n");
  EXPECT_HAS(Out, "shl i32 %x, 1");
}

TEST(InstCombine, XorCancellation) {
  std::string Out = optimize(
      "define i32 @f(i32 %x, i32 %k) {\n  %e = xor i32 %x, %k\n"
      "  %d = xor i32 %e, %k\n  ret i32 %d\n}\n");
  EXPECT_HAS(Out, "ret i32 %x");
}

TEST(InstCombine, ReassociateConstants) {
  std::string Out = optimize(
      "define i32 @f(i32 %x) {\n  %a = add i32 %x, 3\n"
      "  %b = add i32 %a, 4\n  ret i32 %b\n}\n");
  EXPECT_HAS(Out, "add i32 %x, 7");
}

TEST(InstCombine, SubConstToAdd) {
  std::string Out = optimize("define i32 @f(i32 %x) {\n"
                             "  %y = sub i32 %x, 5\n  ret i32 %y\n}\n");
  EXPECT_HAS(Out, "add i32 %x, -5");
}

TEST(InstCombine, ShlLShrToMask) {
  std::string Out = optimize("define i32 @f(i32 %x) {\n"
                             "  %a = shl i32 %x, 8\n  %b = lshr i32 %a, 8\n"
                             "  ret i32 %b\n}\n");
  EXPECT_HAS(Out, "and i32 %x, 16777215");
}

TEST(InstCombine, NotICmpInverts) {
  std::string Out = optimize(
      "define i1 @f(i32 %x, i32 %y) {\n  %c = icmp ult i32 %x, %y\n"
      "  %n = xor i1 %c, true\n  ret i1 %n\n}\n");
  EXPECT_HAS(Out, "icmp uge i32 %x, %y");
  EXPECT_NOT_HAS(Out, "xor");
}

TEST(InstCombine, ICmpCanonicalization) {
  // uge with constant canonicalizes to ugt; constant moves right; ugt 0 is
  // ne 0. The golden pins which rules fired and the verification work.
  MetricsDelta Delta;
  std::string Out = optimize(
      "define i1 @f(i32 %x) {\n  %c = icmp uge i32 %x, 10\n  ret i1 %c\n}\n");
  EXPECT_HAS(Out, "icmp ugt i32 %x, 9");
  std::string Out2 = optimize(
      "define i1 @f(i32 %x) {\n  %c = icmp slt i32 3, %x\n  ret i1 %c\n}\n");
  EXPECT_HAS(Out2, "icmp sgt i32 %x, 3");
  std::string Out3 = optimize(
      "define i1 @f(i32 %x) {\n  %c = icmp ugt i32 %x, 0\n  ret i1 %c\n}\n");
  EXPECT_HAS(Out3, "icmp ne i32 %x, 0");
  Delta.expectGolden();
}

TEST(InstCombine, ICmpTautologies) {
  std::string Out = optimize(
      "define i1 @f(i32 %x) {\n  %c = icmp ult i32 %x, 0\n  ret i1 %c\n}\n");
  EXPECT_HAS(Out, "ret i1 false");
  std::string Out2 = optimize(
      "define i1 @f(i32 %x) {\n  %c = icmp sle i32 %x, 2147483647\n"
      "  ret i1 %c\n}\n");
  EXPECT_HAS(Out2, "ret i1 true");
}

TEST(InstCombine, ICmpThroughXor) {
  std::string Out = optimize(
      "define i1 @f(i32 %x) {\n  %a = xor i32 %x, 12\n"
      "  %c = icmp eq i32 %a, 0\n  ret i1 %c\n}\n");
  EXPECT_HAS(Out, "icmp eq i32 %x, 12");
}

TEST(InstCombine, SelectFolds) {
  std::string Out = optimize(
      "define i32 @f(i32 %a, i32 %b) {\n"
      "  %r = select i1 true, i32 %a, i32 %b\n  ret i32 %r\n}\n");
  EXPECT_HAS(Out, "ret i32 %a");
  std::string Out2 = optimize(
      "define i1 @f(i1 %c) {\n"
      "  %r = select i1 %c, i1 true, i1 false\n  ret i1 %r\n}\n");
  EXPECT_HAS(Out2, "ret i1 %c");
}

TEST(InstCombine, CastChains) {
  std::string Out = optimize(
      "define i64 @f(i8 %x) {\n  %a = zext i8 %x to i16\n"
      "  %b = zext i16 %a to i64\n  ret i64 %b\n}\n");
  EXPECT_HAS(Out, "zext i8 %x to i64");
  std::string Out2 = optimize(
      "define i8 @f(i8 %x) {\n  %a = zext i8 %x to i32\n"
      "  %b = trunc i32 %a to i8\n  ret i8 %b\n}\n");
  EXPECT_HAS(Out2, "ret i8 %x");
}

TEST(InstCombine, StoreToLoadForwarding) {
  std::string Out = optimize(R"(
define i32 @f(i32 %x) {
  %s = alloca i32
  store i32 %x, ptr %s
  %v = load i32, ptr %s
  %r = add i32 %v, 1
  ret i32 %r
}
)");
  EXPECT_HAS(Out, "add i32 %x, 1");
  EXPECT_NOT_HAS(Out, "load");
}

TEST(InstCombine, LoadLoadCSE) {
  PassTrace Trace;
  std::string Out = optimize(R"(
define i32 @f(i32 %x) {
  %s = alloca i32
  store i32 %x, ptr %s
  %a = load i32, ptr %s
  %b = load i32, ptr %s
  %r = add i32 %a, %b
  ret i32 %r
}
)",
                             &Trace);
  // Both loads forward to the stored value; add of equal values becomes a
  // shift.
  EXPECT_HAS(Out, "shl i32 %x, 1");
  EXPECT_NOT_HAS(Out, "load");
}

TEST(InstCombine, DeadStoreElimination) {
  PassTrace Trace;
  std::string Out = optimize(R"(
define i32 @f(i32 %x, i32 %y) {
  %s = alloca i32
  store i32 %x, ptr %s
  store i32 %y, ptr %s
  %v = load i32, ptr %s
  ret i32 %v
}
)",
                             &Trace);
  EXPECT_HAS(Out, "ret i32 %y");
  bool SawDSE = false;
  for (const auto &R : Trace.Applied)
    SawDSE |= R == "dead-store-elim";
  EXPECT_TRUE(SawDSE);
}

TEST(InstCombine, PartialOverwriteIsKept) {
  // Storing i64 then overwriting only 4 bytes: the load mixes both stores,
  // so nothing may be forwarded naively. Correctness is asserted by the
  // embedded Alive-lite check in optimize().
  optimize(R"(
define i64 @f(i64 %x, i32 %y) {
  %s = alloca i64
  store i64 %x, ptr %s
  %hi = getelementptr i8, ptr %s, i64 4
  store i32 %y, ptr %hi
  %v = load i64, ptr %s
  ret i64 %v
}
)");
}

TEST(InstCombine, CallsBlockNothingForIntArgs) {
  // Calls taking only integers cannot touch locals: forwarding proceeds.
  std::string Out = optimize(R"(
declare void @fence(i32)
define i32 @f(i32 %x) {
  %s = alloca i32
  store i32 %x, ptr %s
  call void @fence(i32 0)
  %v = load i32, ptr %s
  ret i32 %v
}
)");
  EXPECT_NOT_HAS(Out, "load");
  EXPECT_HAS(Out, "ret i32 %x");
}

TEST(InstCombine, GEPFolds) {
  std::string Out = optimize(R"(
define i32 @f(i32 %v) {
  %s = alloca i64
  %a = getelementptr i8, ptr %s, i64 2
  %b = getelementptr i8, ptr %a, i64 2
  store i32 %v, ptr %b
  %r = load i32, ptr %b
  ret i32 %r
}
)");
  EXPECT_HAS(Out, "getelementptr i8, ptr %s, i64 4");
  std::string Out2 = optimize(R"(
define i32 @f(i32 %v) {
  %s = alloca i32
  %a = getelementptr i8, ptr %s, i64 0
  store i32 %v, ptr %a
  ret i32 %v
}
)");
  EXPECT_HAS(Out2, "store i32 %v, ptr %s");
}

TEST(InstCombine, TraceRecordsRules) {
  PassTrace Trace;
  optimize("define i32 @f(i32 %x) {\n  %a = add i32 %x, 0\n"
           "  %b = mul i32 %a, 4\n  ret i32 %b\n}\n",
           &Trace);
  EXPECT_FALSE(Trace.empty());
  bool SawAddZero = false, SawMulPow2 = false;
  for (const auto &R : Trace.Applied) {
    SawAddZero |= R == "add-zero";
    SawMulPow2 |= R == "mul-pow2-to-shl";
  }
  EXPECT_TRUE(SawAddZero);
  EXPECT_TRUE(SawMulPow2);
}

TEST(InstCombine, PreservesObservableCalls) {
  std::string Out = optimize(R"(
declare void @effect(i32)
define void @f(i32 %x) {
  %dead = add i32 %x, 1
  call void @effect(i32 %x)
  ret void
}
)");
  EXPECT_HAS(Out, "call void @effect");
  EXPECT_NOT_HAS(Out, "add"); // dead code removed
}

TEST(InstCombine, DivisionUBNotFolded) {
  // udiv by constant zero must not be folded away (it is UB, and folding
  // would change the function's defined domain in unexpected ways).
  std::string Out = optimize(
      "define i32 @f() {\n  %q = udiv i32 4, 0\n  ret i32 %q\n}\n");
  EXPECT_HAS(Out, "udiv i32 4, 0");
}

TEST(InstCombine, FixpointStability) {
  // Running the pipeline twice must not change anything further.
  auto M = parseModule(R"(
define i32 @f(i32 %x) {
  %a = add i32 %x, 3
  %b = add i32 %a, 4
  %c = mul i32 %b, 2
  %d = sub i32 %c, %c
  %e = or i32 %d, %x
  ret i32 %e
}
)");
  ASSERT_TRUE(M.hasValue());
  Function *F = M.value()->getMainFunction();
  runReferencePipeline(*F);
  std::string Once = printFunction(*F);
  bool ChangedAgain = runReferencePipeline(*F);
  EXPECT_FALSE(ChangedAgain);
  EXPECT_EQ(printFunction(*F), Once);
}

} // namespace
} // namespace veriopt
