//===- BenchUtil.h - Shared configuration for the table/figure benches -----===//
//
// Every bench binary regenerates one table or figure of the paper on the
// synthetic corpus. They share the dataset/pipeline configuration here so
// rows are comparable across binaries.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_BENCH_BENCHUTIL_H
#define VERIOPT_BENCH_BENCHUTIL_H

#include "pipeline/Evaluation.h"
#include "pipeline/Pipeline.h"

#include <cstdio>

namespace veriopt {
namespace bench {

inline DatasetOptions benchDataset() {
  DatasetOptions D;
  D.TrainCount = 60;
  D.ValidCount = 100;
  D.Seed = 2026;
  return D;
}

inline PipelineOptions benchPipeline() {
  PipelineOptions P;
  P.Data = benchDataset();
  P.Stage1Steps = 50;
  P.Stage2Steps = 80;
  P.Stage3Steps = 200;
  return P;
}

inline void header(const char *Title, const char *PaperRef) {
  std::printf("==============================================================="
              "=\n%s\n(reproduces %s; shape comparison, not absolute "
              "numbers)\n"
              "==============================================================="
              "=\n",
              Title, PaperRef);
}

inline void taxonomyRow(const char *Name, const VerifyTaxonomy &T) {
  std::printf("%-34s %5u  %5.1f%%\n", Name, T.Total, 100.0);
  std::printf("  Correct (Alive-lite verified)    %5u  %5.1f%%\n", T.Correct,
              T.pct(T.Correct));
  std::printf("  - Copy of input (no optimization)%5u  %5.1f%%\n",
              T.CorrectCopies, T.pct(T.CorrectCopies));
  std::printf("  Semantic Error (Not Equivalent)  %5u  %5.1f%%\n",
              T.SemanticError, T.pct(T.SemanticError));
  std::printf("  Syntax Error (Invalid IR)        %5u  %5.1f%%\n",
              T.SyntaxError, T.pct(T.SyntaxError));
  std::printf("  Inconclusive                     %5u  %5.1f%%\n",
              T.Inconclusive, T.pct(T.Inconclusive));
  std::printf("  => different-and-correct rate:   %5.1f%%\n",
              T.differentCorrectRate());
}

} // namespace bench
} // namespace veriopt

#endif // VERIOPT_BENCH_BENCHUTIL_H
