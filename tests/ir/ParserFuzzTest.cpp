//===- ParserFuzzTest.cpp - Robustness of the parser front door ------------===//
//
// The parser is the system's exposure surface to LLM output: it must
// classify arbitrary byte soup as a clean SyntaxError, never crash, never
// accept ill-formed IR. These tests mutate valid programs the way the
// corruption operators (and real LLMs) do, plus pure random noise.
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"

#include "data/MiniC.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

namespace veriopt {
namespace {

/// Any parse result must be coherent: either an error, or a module whose
/// main function passes the IR verifier after the parser's own checks...
/// (the parser may legitimately accept programs the verifier rejects, e.g.
/// dominance violations; those are the SyntaxError/StructureError split).
void expectCoherent(const std::string &Text) {
  auto M = parseModule(Text);
  if (!M.hasValue()) {
    EXPECT_FALSE(M.error().Message.empty());
    return;
  }
  // If it parsed and verifies, it must round-trip.
  Function *F = M.value()->getMainFunction();
  if (F && isWellFormed(*F)) {
    std::string Printed = printFunction(*F);
    auto M2 = parseModule(Printed);
    EXPECT_TRUE(M2.hasValue())
        << "printer emitted unparseable text:\n"
        << Printed;
  }
}

TEST(ParserFuzz, RandomByteMutations) {
  RNG R(0xF022);
  for (uint64_t Seed = 0; Seed < 40; ++Seed) {
    RNG Gen(Seed);
    auto MC = generateMiniC(Gen, "f");
    auto M = lowerToO0(*MC);
    std::string Text = printFunction(*M->getMainFunction());
    for (int Mut = 0; Mut < 20; ++Mut) {
      std::string Broken = Text;
      unsigned Kind = static_cast<unsigned>(R.below(4));
      if (Broken.empty())
        continue;
      size_t Pos = R.below(Broken.size());
      switch (Kind) {
      case 0: // flip a byte
        Broken[Pos] = static_cast<char>(32 + R.below(95));
        break;
      case 1: // delete a span
        Broken.erase(Pos, R.below(8) + 1);
        break;
      case 2: // duplicate a span
        Broken.insert(Pos, Broken.substr(Pos, R.below(12) + 1));
        break;
      default: // truncate
        Broken.resize(Pos);
        break;
      }
      expectCoherent(Broken);
    }
  }
}

TEST(ParserFuzz, PureNoise) {
  RNG R(99);
  for (int Trial = 0; Trial < 50; ++Trial) {
    std::string Noise;
    size_t Len = R.below(300);
    for (size_t I = 0; I < Len; ++I)
      Noise.push_back(static_cast<char>(R.below(256)));
    auto M = parseModule(Noise);
    // Virtually certain to fail; must not crash either way.
    if (!M.hasValue()) {
      EXPECT_FALSE(M.error().Message.empty());
    }
  }
}

TEST(ParserFuzz, TokenLevelCorruptions) {
  // The exact corruption operators the policy model uses.
  const char *Base = R"(
define i32 @f(i32 %x, i32 %y) {
  %a = add i32 %x, %y
  %c = icmp ult i32 %a, 10
  br i1 %c, label %t, label %e
t:
  ret i32 %a
e:
  %b = mul i32 %a, 3
  ret i32 %b
}
)";
  // Undefined name.
  {
    std::string T(Base);
    size_t P = T.find("%a, 10");
    T.replace(P, 2, "%zz");
    auto M = parseModule(T);
    EXPECT_FALSE(M.hasValue());
    EXPECT_NE(M.error().Message.find("undefined"), std::string::npos);
  }
  // Bad type.
  {
    std::string T(Base);
    size_t P = T.find("i32 %x,");
    T.replace(P, 3, "i33");
    EXPECT_FALSE(parseModule(T).hasValue());
  }
  // Truncation at every line boundary.
  {
    std::string T(Base);
    for (size_t Cut = T.find('\n'); Cut != std::string::npos;
         Cut = T.find('\n', Cut + 1)) {
      std::string Prefix = T.substr(0, Cut);
      expectCoherent(Prefix);
    }
  }
}

TEST(ParserFuzz, DeepNestingDoesNotOverflow) {
  // A long chain of instructions (stress for the fixup/worklist paths).
  std::string T = "define i64 @f(i64 %x0) {\n";
  for (int I = 0; I < 2000; ++I)
    T += "  %x" + std::to_string(I + 1) + " = add i64 %x" +
         std::to_string(I) + ", 1\n";
  T += "  ret i64 %x2000\n}\n";
  auto M = parseModule(T);
  ASSERT_TRUE(M.hasValue()) << M.error().render();
  EXPECT_TRUE(isWellFormed(*M.value()->getMainFunction()));
}

} // namespace
} // namespace veriopt
