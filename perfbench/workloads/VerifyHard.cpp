//===- VerifyHard.cpp - The `verify_hard` workload ------------------------===//
//
// One refinement query per (-O0, optimized) pair, run serially through
// verifyCandidateText under the training budget (12 falsification trials,
// 50k conflicts) with no retry ladder. The pairs come from the
// PipelineSoundness generator seeds 1000-1039: each function is lowered to
// -O0 and paired with both runReferencePipeline and runExtendedPipeline.
// That range holds the known hard tail (seeds 1004 and 1034, extended
// pipeline), which is why it is pinned: --seed only orders the queries and
// draws the concrete inputs of the differential check. Bit-blasting and
// CDCL search do almost all of the work.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "cost/CostModel.h"
#include "data/MiniC.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "opt/Pass.h"
#include "pipeline/Pipeline.h"
#include "support/RNG.h"
#include "trace/Metrics.h"
#include "trace/Trace.h"
#include "verify/RefinementQuery.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

using namespace veriopt;

namespace perfbench {

namespace {

constexpr uint64_t FirstGenSeed = 1000, EndGenSeed = 1040;
constexpr unsigned DiffTrials = 4;

struct Pair {
  uint64_t GenSeed = 0;
  bool Extended = false;
  std::unique_ptr<Module> SrcModule;
  std::unique_ptr<Function> Opt;
  std::string SrcText, OptText;
  Function *src() const { return SrcModule->getMainFunction(); }
  std::string name() const {
    return "seed " + std::to_string(GenSeed) +
           (Extended ? " extended" : " reference");
  }
};

std::vector<Pair> buildPairs() {
  std::vector<Pair> Pairs;
  for (uint64_t S = FirstGenSeed; S < EndGenSeed; ++S) {
    RNG R(S);
    auto MC = generateMiniC(R, "f");
    for (bool Ext : {false, true}) {
      Pair P;
      P.GenSeed = S;
      P.Extended = Ext;
      P.SrcModule = lowerToO0(*MC);
      P.Opt = P.src()->clone();
      if (Ext)
        runExtendedPipeline(*P.Opt);
      else
        runReferencePipeline(*P.Opt);
      P.SrcText = printFunction(*P.src());
      P.OptText = printFunction(*P.Opt);
      Pairs.push_back(std::move(P));
    }
  }
  return Pairs;
}

/// One serial pass over the pairs in \p Order; returns the per-query
/// latencies in ms, in order.
std::vector<double> runPass(const std::vector<Pair> &Pairs,
                            const std::vector<size_t> &Order,
                            const VerifyOptions &VO, uint64_t Seed,
                            bool CheckOutputs, Checks &C,
                            std::vector<VerifyStatus> &Verdicts) {
  std::vector<double> Ms;
  Verdicts.assign(Pairs.size(), VerifyStatus::Inconclusive);
  for (size_t Idx : Order) {
    const Pair &P = Pairs[Idx];
    double T0 = nowS();
    VerifyResult VR = verifyCandidateText(*P.src(), P.OptText, VO);
    Ms.push_back(1e3 * (nowS() - T0));
    Verdicts[Idx] = VR.Status;

    // Every pair is a sound optimization (the PipelineSoundness property),
    // so a refutation is a verifier bug; its counterexample must at least
    // reproduce in the interpreter.
    std::string Why;
    if (VR.Status == VerifyStatus::NotEquivalent) {
      std::vector<uint64_t> Cex;
      for (const CexBinding &B : VR.Counterexample)
        Cex.push_back(B.Value.zext());
      Why = interpreterShowsMismatch(*P.src(), *P.Opt, Cex)
                ? "refuted a sound pair"
                : "refuted a sound pair with a counterexample the "
                  "interpreter does not reproduce";
    } else if (VR.Status == VerifyStatus::SyntaxError) {
      Why = "optimized text did not parse back";
    } else if (CheckOutputs) {
      Why = differentialMismatch(*P.src(), *P.Opt, Seed * 131 + Idx,
                                 DiffTrials);
    }
    C.attempt(Why.empty(), "verify_hard: " + P.name() + ": " + Why);
  }
  return Ms;
}

} // namespace

void runVerifyHard(const RunArgs &A, JsonObject &Out, Checks &C) {
  std::vector<Pair> Pairs;
  std::vector<double> Setup;
  for (int Rep = 0; Rep < 25; ++Rep) {
    double T0 = nowS();
    Pairs = buildPairs();
    Setup.push_back(nowS() - T0);
  }
  Out.nums("setup_s", Setup);
  Out.num("data.generated", static_cast<double>(Pairs.size()));
  Out.num("data.kept", static_cast<double>(Pairs.size()));
  Out.raw("env", envJson({{"verify", 1}}));

  std::vector<size_t> Order(Pairs.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  RNG R(A.Seed);
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[R.next() % I]);

  const VerifyOptions VO = PipelineOptions::trainVerifyDefaults();
  std::vector<VerifyStatus> Verdicts;
  std::vector<double> Ms, PassS;
  if (!A.Trace) {
    // Whole passes only: the hard tail is the point of the workload.
    double Start = nowS();
    do {
      double T0 = nowS();
      std::vector<double> P =
          runPass(Pairs, Order, VO, A.Seed, PassS.empty(), C, Verdicts);
      PassS.push_back(nowS() - T0);
      Ms.insert(Ms.end(), P.begin(), P.end());
    } while (nowS() - Start < A.Seconds);
  } else {
    // Untraced, each query through its halves, timed from outside: the
    // parse, the source encoding (falsification runs, encode, bit-blast
    // into the prefix) and the target half against it. This is the work
    // verifyCandidateText does minus its guard chain, so it doubles as the
    // untraced baseline of trace.overhead_pct and keeps the traced run to
    // two passes.
    double SrcEncS = 0, AgainstS = 0, T0 = nowS();
    std::vector<CandidateText> Texts;
    for (size_t Idx : Order) {
      const Pair &P = Pairs[Idx];
      Texts.push_back({&P.SrcText, P.OptText});
      double T1 = nowS();
      auto M = parseModule(P.OptText);
      double T2 = nowS();
      if (!M || !M.value()->getMainFunction())
        throw std::runtime_error(P.name() + ": optimized text does not parse");
      auto SE = buildSourceEncoding(*P.src(), VO);
      double T3 = nowS();
      verifyAgainstEncoding(*SE, *M.value()->getMainFunction(), VO,
                            /*Shared=*/false);
      double T4 = nowS();
      SrcEncS += T3 - T2;
      AgainstS += T4 - T3;
      Ms.push_back(1e3 * (T4 - T1));
    }
    PassS.push_back(nowS() - T0);
    Out.num("verify.source_encoding_ms", 1e3 * SrcEncS);
    Out.num("verify.against_encoding_ms", 1e3 * AgainstS);

    MetricsRegistry::global().reset();
    TraceRecorder &TR = TraceRecorder::instance();
    TR.clear();
    TR.enable();
    T0 = nowS();
    runPass(Pairs, Order, VO, A.Seed, true, C, Verdicts);
    Out.num("traced_s", nowS() - T0);
    TR.disable();
    Out.raw("spans", spansJson());
    Out.raw("counters", countersJson());
    replayCandidateLayers(Texts, Out);
  }
  Out.nums("pass_s", PassS);
  Out.nums("query_ms", Ms);
  if (!A.Trace)
    Out.raw("counters", countersJson());

  // Deterministic outcome figures of the pair set.
  unsigned Decided = 0, DiffCorrect = 0;
  double LogRatio = 0;
  for (size_t I = 0; I < Pairs.size(); ++I) {
    const Pair &P = Pairs[I];
    if (Verdicts[I] == VerifyStatus::Equivalent ||
        Verdicts[I] == VerifyStatus::NotEquivalent)
      ++Decided;
    if (Verdicts[I] == VerifyStatus::Equivalent && P.OptText != P.SrcText)
      ++DiffCorrect;
    LogRatio += std::log(estimateLatency(*P.src()) / estimateLatency(*P.Opt));
  }
  Out.num("decided_pct", 100.0 * Decided / Pairs.size());
  Out.num("diff_correct_pct", 100.0 * DiffCorrect / Pairs.size());
  Out.num("geomean_speedup", std::exp(LogRatio / Pairs.size()));
}

} // namespace perfbench
