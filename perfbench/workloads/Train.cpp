//===- Train.cpp - The `train` workload -----------------------------------===//
//
// One cold run of the full three-stage runTrainingPipeline on train_mini's
// default (non --tiny) corpus size and step budget, with two scoring
// threads and no verdict store, then greedy evaluation of MODEL-LATENCY.
// Generation, batch verification, cache-replay scoring and the GRPO update
// do most of the work; SAT is light.
//
// The corpus (data seed 2026) and the pipeline seed are pinned: the run's
// deterministic plane must equal the expected set committed beside the
// benchmark, and a seeded corpus moves the work per run by a fifth.
// --seed draws the concrete inputs of the differential output check.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "ir/Parser.h"
#include "pipeline/Pipeline.h"
#include "support/ThreadPool.h"
#include "trace/Metrics.h"
#include "trace/Trace.h"

using namespace veriopt;

namespace perfbench {

namespace {

constexpr unsigned ScoringThreads = 2;
constexpr unsigned EvalThreads = 2;
constexpr unsigned DiffTrials = 8;

DatasetOptions corpusOptions() {
  DatasetOptions D;
  D.TrainCount = 30;
  D.ValidCount = 24;
  D.Seed = 2026;
  return D;
}

PipelineOptions pipelineOptions(const DatasetOptions &D) {
  PipelineOptions P;
  P.Data = D;
  P.Stage1Steps = 20;
  P.Stage2Steps = 40;
  P.Stage3Steps = 80;
  P.GRPO.GroupSize = 6;
  P.Threads = ScoringThreads;
  P.EvalShards = 0; // one shard per evaluation thread
  return P;
}

/// One pipeline run plus the MODEL-LATENCY evaluation, with the
/// differential check of every verified output.
std::string runOnce(const Dataset &DS, PipelineOptions P, uint64_t Seed,
                    std::vector<CandidateText> *Texts, Checks &C) {
  MetricsRegistry::global().reset();
  if (Texts)
    P.GRPO.OnRollout = [Texts](const Sample &S, const Completion &Co,
                               const RolloutScore &) {
      if (Co.FormatOk)
        Texts->push_back({&S.SrcText, Co.AnswerIR});
      if (!Co.ThinkAttemptIR.empty())
        Texts->push_back({&S.SrcText, Co.ThinkAttemptIR});
    };

  double T0 = nowS();
  PipelineArtifacts Art = runTrainingPipeline(DS, P);
  double PipelineS = nowS() - T0;
  const uint64_t Rollouts =
      MetricsRegistry::global().counter("grpo.rollouts").value();

  ThreadPool EvalPool(EvalThreads);
  double T1 = nowS();
  EvalResult E = evaluateModelSharded(*Art.Latency, DS.Valid,
                                      PromptMode::Generic, VerifyOptions(),
                                      P.makeEvalOptions(&EvalPool));
  double EvalS = nowS() - T1;

  // Every output the evaluation counted as verified must also agree with
  // its source under concrete execution.
  RNG Unused(0);
  for (size_t I = 0; I < DS.Valid.size(); ++I) {
    const Sample &S = DS.Valid[I];
    std::string Why;
    if (E.PerSample[I].Status == VerifyStatus::Equivalent) {
      Completion Co = Art.Latency->generate(*S.source(), PromptMode::Generic,
                                            Unused, /*Greedy=*/true);
      auto M = parseModule(Co.AnswerIR);
      if (!M || !M.value()->getMainFunction())
        Why = "verified output does not parse";
      else
        Why = differentialMismatch(*S.source(),
                                   *M.value()->getMainFunction(), Seed + I,
                                   DiffTrials);
    }
    C.attempt(Why.empty(), "train: " + S.Name + ": " + Why);
  }

  JsonObject It;
  It.num("pipeline_s", PipelineS);
  It.num("eval_s", EvalS);
  It.num("rollouts", static_cast<double>(Rollouts));
  It.num("diff_correct_pct", E.Taxonomy.differentCorrectRate());
  It.num("geomean_speedup", E.GeoSpeedupVsO0);
  It.raw("counters", countersJson());
  return It.json();
}

} // namespace

void runTrain(const RunArgs &A, JsonObject &Out, Checks &C) {
  const DatasetOptions D = corpusOptions();
  Dataset DS;
  std::vector<double> Setup;
  for (int Rep = 0; Rep < 3; ++Rep) {
    double T0 = nowS();
    DS = buildDataset(D);
    Setup.push_back(nowS() - T0);
  }
  Out.nums("setup_s", Setup);
  Out.num("data.generated", DS.Stats.Generated);
  Out.num("data.kept", DS.Stats.Kept);
  Out.raw("env", envJson({{"scoring", ScoringThreads},
                          {"eval", EvalThreads}}));

  const PipelineOptions P = pipelineOptions(D);
  std::vector<std::string> Iters;
  if (!A.Trace) {
    // Whole pipeline runs until the window is spent (at least one); a run
    // is started only if the previous one says it will fit.
    double Start = nowS(), Last = 0;
    do {
      double T0 = nowS();
      Iters.push_back(runOnce(DS, P, A.Seed, nullptr, C));
      Last = nowS() - T0;
    } while (nowS() - Start + Last <= A.Seconds);
  } else {
    // Untraced then traced, both with the rollout collector attached, so
    // their difference is the cost of tracing alone.
    std::vector<CandidateText> Untraced, Texts;
    Iters.push_back(runOnce(DS, P, A.Seed, &Untraced, C));
    TraceRecorder &TR = TraceRecorder::instance();
    TR.clear();
    TR.enable();
    Iters.push_back(runOnce(DS, P, A.Seed, &Texts, C));
    TR.disable();
    Out.raw("spans", spansJson());
    replayCandidateLayers(Texts, Out);
  }
  std::string J = "[";
  for (size_t I = 0; I < Iters.size(); ++I)
    J += (I ? "," : "") + Iters[I];
  Out.raw("iterations", J + "]");
}

} // namespace perfbench
