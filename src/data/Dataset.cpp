//===- Dataset.cpp - Training/validation corpus construction -------------------//

#include "data/Dataset.h"

#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "textgen/Bleu.h"
#include "verify/AliveLite.h"

namespace veriopt {

std::unique_ptr<Sample> buildSample(uint64_t Seed, const std::string &Name,
                                    const DatasetOptions &Opts,
                                    DatasetStats *Stats) {
  RNG R(Seed);
  auto Stat = [&](unsigned DatasetStats::*Field) {
    if (Stats)
      ++(Stats->*Field);
  };
  Stat(&DatasetStats::Generated);

  auto MC = generateMiniC(R, Name, Opts.Gen);
  auto S = std::make_unique<Sample>();
  S->Name = Name;
  S->CSource = MC->render();
  S->SrcModule = lowerToO0(*MC);
  Function *Src = S->SrcModule->getMainFunction();
  assert(Src && isWellFormed(*Src) && "lowering produced invalid IR");
  S->SrcText = printFunction(*Src);
  S->TokenCount = static_cast<unsigned>(tokenizeIR(S->SrcText).size());
  if (S->TokenCount > Opts.TokenLimit) {
    Stat(&DatasetStats::RejectedTokenLimit);
    return nullptr;
  }

  // Reference optimization (the training label).
  S->Reference = Src->clone();
  runReferencePipeline(*S->Reference, &S->RefTrace);
  S->RefText = printFunction(*S->Reference);
  S->RefTokens = tokenizeIR(S->RefText);

  // §IV-A filter: the pair must be formally equivalent.
  VerifyOptions VOpts;
  auto VR = verifyRefinement(*Src, *S->Reference, VOpts);
  switch (VR.Status) {
  case VerifyStatus::Equivalent:
    break;
  case VerifyStatus::NotEquivalent:
  case VerifyStatus::SyntaxError:
    Stat(&DatasetStats::RejectedNotEquivalent);
    return nullptr;
  case VerifyStatus::Inconclusive:
    Stat(&DatasetStats::RejectedInconclusive);
    return nullptr;
  }
  Stat(&DatasetStats::Kept);
  return S;
}

Dataset buildDataset(const DatasetOptions &Opts) {
  Dataset DS;
  // Disjoint deterministic seed streams for the two splits.
  RNG TrainSeeds(Opts.Seed * 0x9E3779B97F4A7C15ULL + 1);
  RNG ValidSeeds(Opts.Seed * 0xC2B2AE3D27D4EB4FULL + 2);

  unsigned Attempts = 0;
  const unsigned MaxAttempts = (Opts.TrainCount + Opts.ValidCount) * 8 + 64;
  while (DS.Train.size() < Opts.TrainCount && Attempts++ < MaxAttempts) {
    auto S = buildSample(TrainSeeds.next(),
                         "train_" + std::to_string(DS.Train.size()), Opts,
                         &DS.Stats);
    if (S)
      DS.Train.push_back(std::move(*S));
  }
  Attempts = 0;
  while (DS.Valid.size() < Opts.ValidCount && Attempts++ < MaxAttempts) {
    auto S = buildSample(ValidSeeds.next(),
                         "valid_" + std::to_string(DS.Valid.size()), Opts,
                         &DS.Stats);
    if (S)
      DS.Valid.push_back(std::move(*S));
  }
  return DS;
}

} // namespace veriopt
