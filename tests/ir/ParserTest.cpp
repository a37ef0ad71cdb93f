//===- ParserTest.cpp - Textual IR parsing, incl. paper-style input -------===//

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

namespace veriopt {
namespace {

TEST(Parser, MinimalFunction) {
  auto M = parseModule("define i32 @id(i32 %x) {\n  ret i32 %x\n}\n");
  ASSERT_TRUE(M.hasValue()) << M.error().render();
  Function *F = M.value()->getFunction("id");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->getNumParams(), 1u);
  EXPECT_TRUE(isWellFormed(*F));
}

TEST(Parser, BinaryOpsAndFlags) {
  auto M = parseModule(R"(
define i32 @f(i32 %a, i32 %b) {
  %c = add nsw i32 %a, %b
  %d = mul nuw nsw i32 %c, 3
  %e = sdiv i32 %d, %b
  %g = lshr exact i32 %e, 1
  ret i32 %g
}
)");
  ASSERT_TRUE(M.hasValue()) << M.error().render();
  Function *F = M.value()->getFunction("f");
  auto It = F->getEntryBlock()->begin();
  EXPECT_TRUE((*It)->hasNSW());
  EXPECT_FALSE((*It)->hasNUW());
  ++It;
  EXPECT_TRUE((*It)->hasNUW());
  EXPECT_TRUE((*It)->hasNSW());
  ++It;
  ++It;
  EXPECT_TRUE((*It)->isExact());
}

TEST(Parser, ControlFlowWithNumericLabels) {
  auto M = parseModule(R"(
define i32 @f(i32 %0) {
  %2 = icmp ult i32 %0, 10
  br i1 %2, label %3, label %4
3:
  br label %5
4:
  br label %5
5:
  %6 = phi i32 [ 1, %3 ], [ 2, %4 ]
  ret i32 %6
}
)");
  ASSERT_TRUE(M.hasValue()) << M.error().render();
  Function *F = M.value()->getMainFunction();
  EXPECT_EQ(F->size(), 4u);
  EXPECT_TRUE(isWellFormed(*F)) << printFunction(*F);
}

TEST(Parser, PaperFig8StructAndTypedPointers) {
  // Fig. 8 input (old typed-pointer syntax, struct GEP, bitcasts).
  auto M = parseModule(R"(
%struct.S = type { i32, i32 }
define dso_local i64 @get_d() #0 {
  %1 = alloca i64, align 8
  %tmpcast = bitcast i64* %1 to %struct.S*
  %2 = bitcast i64* %1 to i32*
  store i32 0, i32* %2, align 8
  %3 = getelementptr inbounds %struct.S, %struct.S* %tmpcast, i64 0, i32 1
  store i32 0, i32* %3, align 4
  %4 = load i64, i64* %1, align 8
  ret i64 %4
}
)");
  ASSERT_TRUE(M.hasValue()) << M.error().render();
  Function *F = M.value()->getFunction("get_d");
  ASSERT_NE(F, nullptr);
  EXPECT_TRUE(isWellFormed(*F)) << printFunction(*F);
  // The struct GEP lowered to a byte offset of 4.
  bool FoundGEP = false;
  for (const auto &I : *F->getEntryBlock()) {
    if (auto *G = dyn_cast<GEPInst>(I.get())) {
      FoundGEP = true;
      auto *Off = dyn_cast<ConstantInt>(G->getOffset());
      ASSERT_NE(Off, nullptr);
      EXPECT_EQ(Off->getValue().zext(), 4u);
    }
  }
  EXPECT_TRUE(FoundGEP);
}

TEST(Parser, PaperFig9CallAndBranches) {
  auto M = parseModule(R"(
declare void @foo(i32)
define dso_local i64 @f28(i64 noundef %0, i64 noundef %1) #1 {
  %3 = alloca i64, align 8
  %4 = add i64 %0, %1
  store i64 %4, i64* %3, align 8
  %5 = icmp ugt i64 %4, %0
  br i1 %5, label %match, label %6
6:
  call void @foo(i32 noundef 0) #2
  br label %match
match:
  %7 = load i64, i64* %3, align 8
  ret i64 %7
}
)");
  ASSERT_TRUE(M.hasValue()) << M.error().render();
  Function *F = M.value()->getFunction("f28");
  ASSERT_NE(F, nullptr);
  EXPECT_TRUE(isWellFormed(*F)) << printFunction(*F);
}

TEST(Parser, AutoDeclaresUnknownCallee) {
  auto M = parseModule(R"(
define void @f() {
  call void @ext(i32 1)
  ret void
}
)");
  ASSERT_TRUE(M.hasValue()) << M.error().render();
  Function *Ext = M.value()->getFunction("ext");
  ASSERT_NE(Ext, nullptr);
  EXPECT_TRUE(Ext->isDeclaration());
  EXPECT_EQ(Ext->getNumParams(), 1u);
}

TEST(Parser, ForwardValueReferenceInPhi) {
  auto M = parseModule(R"(
define i32 @loop(i32 %n) {
  br label %head
head:
  %i = phi i32 [ 0, %entryblk ], [ %next, %body ]
  %c = icmp ult i32 %i, %n
  br i1 %c, label %body, label %done
body:
  %next = add i32 %i, 1
  br label %head
done:
  ret i32 %i
}
)");
  // %entryblk is undefined: must fail cleanly.
  EXPECT_FALSE(M.hasValue());
}

TEST(Parser, LoopWithBackEdge) {
  auto M = parseModule(R"(
define i32 @loop(i32 %n) {
entryblk:
  br label %head
head:
  %i = phi i32 [ 0, %entryblk ], [ %next, %body ]
  %c = icmp ult i32 %i, %n
  br i1 %c, label %body, label %done
body:
  %next = add i32 %i, 1
  br label %head
done:
  ret i32 %i
}
)");
  ASSERT_TRUE(M.hasValue()) << M.error().render();
  EXPECT_TRUE(isWellFormed(*M.value()->getMainFunction()));
}

TEST(Parser, RejectsMalformedInput) {
  // Each of these mirrors an LLM "syntax error" failure mode from Table I.
  const char *Cases[] = {
      // Undefined value.
      "define i32 @f() {\n  ret i32 %nope\n}\n",
      // Redefinition.
      "define i32 @f(i32 %x) {\n  %y = add i32 %x, 1\n  %y = add i32 %x, 2\n"
      "  ret i32 %y\n}\n",
      // Type mismatch on ret.
      "define i64 @f(i32 %x) {\n  ret i32 %x\n}\n",
      // Unknown instruction.
      "define i32 @f(i32 %x) {\n  %y = frobnicate i32 %x\n  ret i32 %y\n}\n",
      // Bad cast direction.
      "define i32 @f(i64 %x) {\n  %y = zext i64 %x to i32\n  ret i32 %y\n}\n",
      // Operand type mismatch.
      "define i32 @f(i32 %x, i64 %z) {\n  %y = add i32 %x, %z\n  ret i32 "
      "%y\n}\n",
      // Truncated input (LLM ran out of tokens).
      "define i32 @f(i32 %x) {\n  %y = add i32 %x,",
      // undef unsupported.
      "define i32 @f() {\n  ret i32 undef\n}\n",
      // Unsupported width.
      "define i7 @f() {\n  ret i7 1\n}\n",
      // Branch to undefined label.
      "define void @f() {\n  br label %nowhere\n}\n",
  };
  for (const char *Src : Cases) {
    auto M = parseModule(Src);
    EXPECT_FALSE(M.hasValue()) << "accepted bad input:\n" << Src;
    if (!M.hasValue()) {
      EXPECT_FALSE(M.error().Message.empty());
    }
  }
}

TEST(Parser, SkipsAttributeNoise) {
  auto M = parseModule(R"(
source_filename = "t.c"
define dso_local i32 @f(i32 noundef %x) local_unnamed_addr #0 {
  %y = add i32 %x, 1
  ret i32 %y
}
attributes #0 = { nounwind "frame-pointer"="all" }
)");
  ASSERT_TRUE(M.hasValue()) << M.error().render();
}

TEST(Parser, GEPWithDynamicIndexScales) {
  auto M = parseModule(R"(
define i32 @f(ptr %p, i64 %i) {
  %q = getelementptr i32, ptr %p, i64 %i
  %v = load i32, ptr %q
  ret i32 %v
}
)");
  ASSERT_TRUE(M.hasValue()) << M.error().render();
  // Expect a mul-by-4 to have been materialized.
  std::string Text = printFunction(*M.value()->getMainFunction());
  EXPECT_NE(Text.find("mul i64"), std::string::npos) << Text;
  EXPECT_NE(Text.find("getelementptr i8"), std::string::npos) << Text;
}

TEST(Parser, VoidCallsAndReturns) {
  auto M = parseModule(R"(
declare i32 @g(i64)
define void @f(i64 %x) {
  %r = call i32 @g(i64 %x)
  call i32 @g(i64 0)
  ret void
}
)");
  ASSERT_TRUE(M.hasValue()) << M.error().render();
  // A call result may be ignored, but a void call cannot be named.
  auto Bad = parseModule(R"(
declare void @g()
define void @f() {
  %r = call void @g()
  ret void
}
)");
  EXPECT_FALSE(Bad.hasValue());
}

} // namespace
} // namespace veriopt
