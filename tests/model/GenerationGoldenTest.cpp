//===- GenerationGoldenTest.cpp - Pin the policy's decoded output ---------===//
//
// The policy's completions and its sequence gradient are a pure function of
// (preset, prompt, mode, RNG seed). This test renders them for a fixed grid
// as text and compares it with golden/Policy.GenerationIsPinned.txt, so any
// change to how the model reads its prompt that alters a single completion
// byte, log-probability bit or gradient bit fails here.
//
//===----------------------------------------------------------------------===//

#include "model/Policy.h"

#include "Golden.h"
#include "data/Dataset.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace veriopt {
namespace {

uint64_t fnv(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (char C : S)
    H = (H ^ static_cast<uint64_t>(static_cast<unsigned char>(C))) *
        0x100000001b3ULL;
  return H;
}

uint64_t bits(double D) {
  uint64_t B;
  std::memcpy(&B, &D, sizeof B);
  return B;
}

std::string hex(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof Buf, "%016" PRIx64, V);
  return Buf;
}

std::string render(const Completion &C) {
  std::string Line = "actions=";
  for (size_t I = 0; I < C.Actions.size(); ++I)
    Line += (I ? "," : "") +
            std::to_string(static_cast<unsigned>(C.Actions[I]));
  Line += " format=" + std::to_string(C.FormatOk);
  Line += " diag=" + std::to_string(C.PredictedDiagClass);
  Line += " fixed=" + std::to_string(C.SelfCorrected);
  Line += " tokens=" + std::to_string(C.TokenCount);
  Line += " logprob=" + hex(bits(C.LogProb));
  Line += " answer=" + hex(fnv(C.AnswerIR));
  Line += " attempt=" + hex(fnv(C.ThinkAttemptIR));
  Line += " text=" + hex(fnv(C.Text));
  return Line;
}

TEST(Policy, GenerationIsPinned) {
  DatasetOptions DOpts;
  DOpts.TrainCount = 5;
  DOpts.ValidCount = 0;
  const Dataset DS = buildDataset(DOpts);
  ASSERT_EQ(DS.Train.size(), 5u);

  const ModelConfig Presets[] = {presetQwen15B(),      presetQwen3B(),
                                 presetQwen7B(),       presetLlama8B(),
                                 presetLLMCompiler7B(), presetQwen32B()};
  std::string Out;
  for (const ModelConfig &Cfg : Presets) {
    const RewritePolicyModel Model(Cfg);
    for (size_t P = 0; P < DS.Train.size(); ++P) {
      const Sample &S = DS.Train[P];
      std::vector<double> Grad(Model.numParams(), 0.0);
      for (PromptMode Mode : {PromptMode::Generic, PromptMode::Augmented}) {
        // Draw 0 is greedy; draws 1..8 sample from RNG seed = draw.
        for (unsigned Draw = 0; Draw <= 8; ++Draw) {
          RNG R(Draw);
          const bool Greedy = Draw == 0;
          const Completion C =
              Model.generate(*S.source(), S.SrcText, Mode, R, Greedy);
          Out += Cfg.Name + " p" + std::to_string(P) + " " +
                 (Mode == PromptMode::Generic ? "generic" : "augmented") +
                 " d" + std::to_string(Draw) + " " + render(C) + "\n";
          Model.accumulateSequenceGrad(*S.source(), S.SrcText, C.Actions,
                                       1.0 / (Draw + 1), Grad);
        }
      }
      std::string GradBits;
      for (double G : Grad)
        GradBits += hex(bits(G));
      Out += Cfg.Name + " p" + std::to_string(P) + " grad=" +
             hex(fnv(GradBits)) + "\n";
    }
  }
  expectGolden(Out, std::string(VERIOPT_TEST_DATA_DIR) +
                        "/golden/Policy.GenerationIsPinned.txt");
}

} // namespace
} // namespace veriopt
