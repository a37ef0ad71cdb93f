//===- MiniCTest.cpp - Generator + lowering tests --------------------------===//

#include "data/MiniC.h"

#include "interp/Interpreter.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "opt/Pass.h"
#include "verify/AliveLite.h"

#include <gtest/gtest.h>

namespace veriopt {
namespace {

TEST(MiniC, GenerationIsDeterministic) {
  RNG R1(99), R2(99);
  auto F1 = generateMiniC(R1, "f");
  auto F2 = generateMiniC(R2, "f");
  EXPECT_EQ(F1->render(), F2->render());
  RNG R3(100);
  auto F3 = generateMiniC(R3, "f");
  EXPECT_NE(F1->render(), F3->render());
}

TEST(MiniC, RenderLooksLikeC) {
  RNG R(7);
  auto F = generateMiniC(R, "sample");
  std::string Text = F->render();
  EXPECT_NE(Text.find("sample("), std::string::npos) << Text;
  EXPECT_NE(Text.find("return"), std::string::npos) << Text;
  EXPECT_NE(Text.find("uint"), std::string::npos) << Text;
}

TEST(MiniC, LoweringIsWellFormed) {
  for (uint64_t Seed = 0; Seed < 60; ++Seed) {
    RNG R(Seed);
    auto F = generateMiniC(R, "f" + std::to_string(Seed));
    auto M = lowerToO0(*F);
    Function *Fn = M->getMainFunction();
    ASSERT_NE(Fn, nullptr);
    std::string Err;
    EXPECT_TRUE(isWellFormed(*Fn, &Err))
        << Err << "\nsource:\n"
        << F->render() << "\nIR:\n"
        << printFunction(*Fn);
  }
}

TEST(MiniC, LoweringIsO0Shaped) {
  // Every parameter must be spilled to a slot: -O0 style.
  RNG R(11);
  auto F = generateMiniC(R, "f");
  auto M = lowerToO0(*F);
  std::string Text = printFunction(*M->getMainFunction());
  EXPECT_NE(Text.find("alloca"), std::string::npos) << Text;
  EXPECT_NE(Text.find("store"), std::string::npos) << Text;
  EXPECT_NE(Text.find("load"), std::string::npos) << Text;
}

TEST(MiniC, LoweredFunctionsTerminate) {
  // Generated loops are bounded: interpretation must not time out.
  for (uint64_t Seed = 100; Seed < 140; ++Seed) {
    RNG R(Seed);
    auto F = generateMiniC(R, "f");
    auto M = lowerToO0(*F);
    Function *Fn = M->getMainFunction();
    std::vector<APInt64> Args;
    for (unsigned I = 0; I < Fn->getNumParams(); ++I)
      Args.push_back(APInt64(Fn->getParamType(I)->getBitWidth(),
                             0x1234u + I));
    auto Res = interpret(*Fn, Args);
    EXPECT_NE(Res.St, ExecResult::Timeout) << F->render();
    EXPECT_NE(Res.St, ExecResult::Unsupported) << printFunction(*Fn);
  }
}

/// The central cross-module property: for random generated functions, both
/// optimization pipelines must produce Alive-lite-verified refinements AND
/// agree with the interpreter on random concrete inputs.
class PipelineSoundness : public ::testing::TestWithParam<int> {};

TEST_P(PipelineSoundness, OptimizedCodeRefinesSource) {
  uint64_t Seed = 1000 + GetParam();
  RNG R(Seed);
  auto MC = generateMiniC(R, "f");
  auto M = lowerToO0(*MC);
  Function *Src = M->getMainFunction();

  for (bool Extended : {false, true}) {
    auto Opt = Src->clone();
    if (Extended)
      runExtendedPipeline(*Opt);
    else
      runReferencePipeline(*Opt);
    std::string Err;
    ASSERT_TRUE(isWellFormed(*Opt, &Err))
        << Err << "\n"
        << printFunction(*Opt);

    auto VR = verifyRefinement(*Src, *Opt);
    ASSERT_EQ(VR.Status, VerifyStatus::Equivalent)
        << (Extended ? "extended" : "reference") << " pipeline, seed "
        << Seed << "\n"
        << VR.Diagnostic << "\nsource:\n"
        << printFunction(*Src) << "\nopt:\n"
        << printFunction(*Opt);

    // Differential execution on random inputs.
    RNG InputR(Seed ^ 0xDEAD);
    for (int Trial = 0; Trial < 8; ++Trial) {
      std::vector<APInt64> Args;
      for (unsigned I = 0; I < Src->getNumParams(); ++I)
        Args.push_back(APInt64(Src->getParamType(I)->getBitWidth(),
                               InputR.next()));
      auto SR = interpret(*Src, Args);
      if (SR.St != ExecResult::Ok || SR.RetPoison)
        continue;
      auto TR = interpret(*Opt, Args);
      ASSERT_EQ(TR.St, ExecResult::Ok)
          << "optimized code faults where source is defined";
      if (!SR.IsVoid && !TR.RetPoison) {
        EXPECT_EQ(SR.RetVal.zext(), TR.RetVal.zext())
            << "seed " << Seed << " trial " << Trial;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineSoundness, ::testing::Range(0, 40));

} // namespace
} // namespace veriopt
