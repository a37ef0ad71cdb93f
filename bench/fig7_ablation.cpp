//===- fig7_ablation.cpp - Fig. 7: four-model ablation ----------------------===//
//
// Paper Fig. 7: geomean improvements vs -O0 (latency / icount / size) and
// correctness for the four progressive models: MODEL-ZERO, WARM-UP,
// MODEL-CORRECTNESS, MODEL-LATENCY. Expected shape: each stage contributes;
// the warm-up unlocks different-correct capability, correctness GRPO
// consolidates it, the latency stage adds speed without losing
// correctness.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace veriopt;

namespace {

void row(const char *Name, const EvalResult &E) {
  std::printf("%-18s %9.2fx %9.3f %9.3f %8.1f%% %10.1f%%\n", Name,
              E.GeoSpeedupVsO0, E.ICount.GeoRatio, E.Size.GeoRatio,
              E.Taxonomy.pct(E.Taxonomy.Correct),
              E.Taxonomy.differentCorrectRate());
}

} // namespace

int main() {
  bench::header("Fig. 7 — ablation over the four progressive models",
                "Fig. 7");

  Dataset DS = buildDataset(bench::benchDataset());
  PipelineArtifacts Art = runTrainingPipeline(DS, bench::benchPipeline());

  std::printf("%-18s %10s %9s %9s %9s %11s\n", "model", "latency",
              "icount", "size", "correct", "diff-corr");
  std::printf("%-18s %10s %9s %9s %9s %11s\n", "", "(vs-O0,hi)",
              "(ratio,lo)", "(ratio,lo)", "", "");
  row("base (qwen-3b)",
      evaluateModel(*Art.Base, DS.Valid, PromptMode::Generic));
  row("MODEL-ZERO",
      evaluateModel(*Art.ModelZero, DS.Valid, PromptMode::Generic));
  row("WARM-UP (SFT)",
      evaluateModel(*Art.WarmUp, DS.Valid, PromptMode::Augmented));
  row("MODEL-CORRECTNESS",
      evaluateModel(*Art.Correctness, DS.Valid, PromptMode::Augmented));
  row("MODEL-LATENCY",
      evaluateModel(*Art.Latency, DS.Valid, PromptMode::Generic));
  row("instcombine (ref)", evaluateReferencePass(DS.Valid));

  std::printf("\nharvested diagnostic-augmented samples: %u corrections + "
              "%u first-time\n",
              Art.correctionSamples(), Art.firstTimeSamples());
  std::printf("paper reference: each stage adds critical improvements; "
              "MODEL-LATENCY also matches/raises correctness relative to "
              "MODEL-CORRECTNESS\n");
  return 0;
}
