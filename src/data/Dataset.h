//===- Dataset.h - Training/validation corpus construction -------*- C++ -*-=//
//
// Implements §IV-A: generate C-like functions, lower to -O0 IR, produce the
// `-instcombine` reference output, keep only pairs Alive-lite proves
// equivalent (dropping inequivalent / UB-tainted / inconclusive pairs), cap
// the token length, and split train/validation with strict seed isolation.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_DATA_DATASET_H
#define VERIOPT_DATA_DATASET_H

#include "data/MiniC.h"
#include "opt/Pass.h"

#include <memory>
#include <string>
#include <vector>

namespace veriopt {

/// One training/validation example: the -O0 function and its reference
/// optimization.
struct Sample {
  std::string Name;
  std::string CSource;              ///< C-like rendering (provenance)
  std::unique_ptr<Module> SrcModule; ///< owns the -O0 function + externs
  std::unique_ptr<Function> Reference; ///< instcombine output (same module
                                        ///< callee declarations)
  std::string SrcText; ///< printed -O0 IR
  std::string RefText; ///< printed reference IR
  std::vector<std::string> RefTokens; ///< tokenizeIR(RefText), for BLEU
  PassTrace RefTrace;  ///< rules the reference pass applied (SFT oracle)
  unsigned TokenCount = 0;

  Function *source() const { return SrcModule->getMainFunction(); }
};

struct DatasetOptions {
  unsigned TrainCount = 400; ///< target sizes after filtering
  unsigned ValidCount = 200;
  uint64_t Seed = 2026;
  unsigned TokenLimit = 2048; ///< §IV-A context cap
  MiniCOptions Gen;
};

/// Why candidates were rejected (reported in EXPERIMENTS.md).
struct DatasetStats {
  unsigned Generated = 0;
  unsigned RejectedTokenLimit = 0;
  unsigned RejectedNotEquivalent = 0; ///< instcombine-lite unproven pairs
  unsigned RejectedInconclusive = 0;
  unsigned Kept = 0;
};

struct Dataset {
  std::vector<Sample> Train;
  std::vector<Sample> Valid;
  DatasetStats Stats;
};

/// Build the corpus. Deterministic in \p Opts.Seed; train and validation
/// draw from disjoint generator streams (no leakage).
Dataset buildDataset(const DatasetOptions &Opts = DatasetOptions());

/// Build a single sample from a dedicated seed (nullptr if it fails the
/// §IV-A filters).
std::unique_ptr<Sample> buildSample(uint64_t Seed, const std::string &Name,
                                    const DatasetOptions &Opts,
                                    DatasetStats *Stats = nullptr);

} // namespace veriopt

#endif // VERIOPT_DATA_DATASET_H
