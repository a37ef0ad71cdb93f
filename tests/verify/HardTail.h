//===- HardTail.h - The verifier's hard-tail pairs, for tests ---*- C++ -*-===//
//
// PipelineSoundness pairs (MiniC seed -> -O0 source, extended pipeline ->
// optimized target) whose plain refinement miter exhausts 50k conflicts:
// seeds 1004 and 1034. Their sources divide per path, while the optimized
// targets divide a select of the paths' values, so the plain miter asks
// CDCL to prove two divider circuits equal.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_TESTS_VERIFY_HARDTAIL_H
#define VERIOPT_TESTS_VERIFY_HARDTAIL_H

#include "data/MiniC.h"
#include "ir/Printer.h"
#include "opt/Pass.h"
#include "support/RNG.h"

#include <memory>
#include <string>

namespace veriopt {

struct HardTailPair {
  std::unique_ptr<Module> M; ///< owns the -O0 source
  const Function *Src = nullptr;
  std::string SrcText; ///< printed -O0 source
  std::string OptText; ///< printed extended-pipeline output

  explicit HardTailPair(uint64_t Seed) {
    RNG R(Seed);
    auto MC = generateMiniC(R, "f");
    M = lowerToO0(*MC);
    Src = M->getMainFunction();
    auto Opt = Src->clone();
    runExtendedPipeline(*Opt);
    SrcText = printFunction(*Src);
    OptText = printFunction(*Opt);
  }
};

} // namespace veriopt

#endif // VERIOPT_TESTS_VERIFY_HARDTAIL_H
