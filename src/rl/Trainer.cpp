//===- Trainer.cpp - GRPO and SFT trainers --------------------------------------//

#include "rl/Trainer.h"

#include "trace/Metrics.h"
#include "trace/Trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string_view>
#include <unordered_map>

namespace veriopt {

/// Boost-style hash mixing for the per-rollout RNG derivation.
static uint64_t mixSeed(uint64_t H, uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  return H;
}

double clipGradient(std::vector<double> &Grad, double MaxNorm) {
  double Norm = 0;
  for (double G : Grad)
    Norm += G * G;
  Norm = std::sqrt(Norm);
  if (Norm > MaxNorm && Norm > 0) {
    double Scale = MaxNorm / Norm;
    for (double &G : Grad)
      G *= Scale;
  }
  return Norm;
}

GRPOTrainer::GRPOTrainer(RewritePolicyModel &Model, RewardFn Reward,
                         const GRPOOptions &Opts)
    : Model(Model), Reward(std::move(Reward)), Opts(Opts), R(Opts.Seed) {}

TrainLogEntry GRPOTrainer::step(const std::vector<const Sample *> &Batch) {
  struct Rollout {
    const Sample *S;
    Completion C;
    RolloutVerdicts Verdicts;
    RolloutScore Score;
    double Advantage = 0;
  };
  const unsigned StepNo = ++StepCount;
  TraceSpan StepSpan("grpo.step");
  std::vector<Rollout> Rollouts;
  Rollouts.reserve(Batch.size() * Opts.GroupSize);

  // Phase 1: sequential generation. Each rollout draws from its own RNG,
  // derived from (Seed, Step, PromptIdx, G) — never from a shared stream —
  // so the sampled completions are a pure function of the options,
  // independent of scoring order and thread count. The model hashes the
  // prompt's stored text (Sample::SrcText) rather than re-printing it.
  // Generation stays serial: every completion clones the prompt, clones
  // share the prompt module's callee declarations (Function::clone), and a
  // batch may hold one prompt several times, so parallel clones would race
  // on those declarations' user lists.
  {
    TraceSpan GenSpan("grpo.generate");
    GenSpan.arg(TraceArg::ofInt("step", StepNo));
    for (unsigned PromptIdx = 0; PromptIdx < Batch.size(); ++PromptIdx) {
      const Sample *S = Batch[PromptIdx];
      for (unsigned G = 0; G < Opts.GroupSize; ++G) {
        Rollout Ro;
        Ro.S = S;
        RNG RoR(mixSeed(mixSeed(mixSeed(Opts.Seed, StepNo), PromptIdx), G));
        Ro.C = Model.generate(*S->source(), S->SrcText, Opts.Mode, RoR,
                              /*Greedy=*/false, Opts.Temperature);
        Rollouts.push_back(std::move(Ro));
      }
    }
  }

  // Phase 2: group verification. Each prompt group's texts are parsed once
  // (byte-identical texts share one Candidate); every answer that passes
  // the format gate and, in augmented mode, every think-attempt is then
  // verified through one shared source encoding. This is the only
  // verification of the step: the reward reads the verdicts.
  VerifyCache::Counters Before;
  if (Opts.Verify.Cache)
    Before = Opts.Verify.Cache->counters();
  std::vector<std::unique_ptr<Candidate>> Parsed;
  for (unsigned PromptIdx = 0; PromptIdx < Batch.size(); ++PromptIdx) {
    const Sample *S = Batch[PromptIdx];
    std::unordered_map<std::string_view, const Candidate *> ByText;
    auto candidateFor = [&](const std::string &Text) {
      auto [It, Inserted] = ByText.emplace(Text, nullptr);
      if (Inserted) {
        Parsed.push_back(std::make_unique<Candidate>(Text));
        It->second = Parsed.back().get();
      }
      return It->second;
    };
    std::vector<const Candidate *> Requests;
    std::vector<VerifyResult *> Into;
    for (unsigned G = 0; G < Opts.GroupSize; ++G) {
      Rollout &Ro = Rollouts[PromptIdx * Opts.GroupSize + G];
      Ro.Verdicts.Answer = candidateFor(Ro.C.AnswerIR);
      if (Ro.C.FormatOk) {
        Requests.push_back(Ro.Verdicts.Answer);
        Into.push_back(&Ro.Verdicts.AnswerVerify);
      }
      if (Opts.Mode == PromptMode::Augmented) {
        Requests.push_back(candidateFor(Ro.C.ThinkAttemptIR));
        Into.push_back(&Ro.Verdicts.AttemptVerify);
      }
    }
    if (Requests.empty())
      continue;
    std::vector<LadderOutcome> Outs = verifyGroup(
        Opts.Verify, S->SrcText, *S->source(), Requests, Opts.Pool);
    // Retry telemetry is per request, deduplicated or cached or not.
    for (size_t K = 0; K < Outs.size(); ++K) {
      recordLadderTelemetry(Outs[K]);
      *Into[K] = std::move(Outs[K].Result);
    }
  }

  // Phase 3: scoring — reward math over the verdicts — fans out over the
  // pool. Each task writes only its own rollout's Score slot, so the result
  // is identical to the serial loop.
  auto ScoreStart = std::chrono::steady_clock::now();
  {
    TraceSpan ScoreSpan("grpo.score");
    ScoreSpan.arg(TraceArg::ofInt("step", StepNo));
    ScoreSpan.arg(
        TraceArg::ofInt("rollouts", static_cast<int64_t>(Rollouts.size())));
    auto ScoreOne = [&](size_t I) {
      Rollout &Ro = Rollouts[I];
      Ro.Score = Reward(*Ro.S, Ro.C, Ro.Verdicts);
    };
    if (Opts.Pool)
      Opts.Pool->parallelFor(Rollouts.size(), ScoreOne);
    else
      for (size_t I = 0; I < Rollouts.size(); ++I)
        ScoreOne(I);
  }
  auto ScoreEnd = std::chrono::steady_clock::now();

  double RewardSum = 0;
  unsigned EquivCount = 0, CopyCount = 0, FalsifyWins = 0;
  unsigned Escalations = 0, TerminalInconclusive = 0, MaxTier = 0;
  uint64_t TotalTokens = 0, Conflicts = 0;
  for (const Rollout &Ro : Rollouts) {
    RewardSum += Ro.Score.Reward;
    EquivCount += Ro.Score.Equivalent;
    CopyCount += Ro.Score.IsCopy;
    TotalTokens += Ro.C.TokenCount;
    FalsifyWins += Ro.Score.AnswerVerify.FoundByFalsification;
    Conflicts += Ro.Score.AnswerVerify.SolverConflicts;
    const VerifyResult &AV = Ro.Score.AnswerVerify;
    if (AV.RetryTier > 0)
      ++Escalations;
    MaxTier = std::max(MaxTier, AV.RetryTier);
    if (LadderOptions::retryable(AV))
      ++TerminalInconclusive;
    if (Opts.OnRollout)
      Opts.OnRollout(*Ro.S, Ro.C, Ro.Score);
  }

  // Group-relative advantages.
  for (size_t GroupStart = 0; GroupStart < Rollouts.size();
       GroupStart += Opts.GroupSize) {
    size_t GroupEnd = GroupStart + Opts.GroupSize;
    double Mean = 0;
    for (size_t I = GroupStart; I < GroupEnd; ++I)
      Mean += Rollouts[I].Score.Reward;
    Mean /= Opts.GroupSize;
    double Var = 0;
    for (size_t I = GroupStart; I < GroupEnd; ++I) {
      double D = Rollouts[I].Score.Reward - Mean;
      Var += D * D;
    }
    double Std = std::sqrt(Var / Opts.GroupSize);
    for (size_t I = GroupStart; I < GroupEnd; ++I)
      Rollouts[I].Advantage =
          (Rollouts[I].Score.Reward - Mean) / (Std + 1e-4);
  }

  // Policy gradient with token-level normalization: every token carries
  // the same weight across the whole batch (DAPO), so long completions do
  // not get under-penalized.
  std::vector<double> Grad(Model.numParams(), 0.0);
  double TokenScale = TotalTokens > 0 ? 1.0 / static_cast<double>(TotalTokens)
                                      : 0.0;
  for (const Rollout &Ro : Rollouts) {
    if (Ro.Advantage == 0)
      continue;
    double Scale = Ro.Advantage * TokenScale *
                   static_cast<double>(Ro.C.TokenCount) /
                   std::max<size_t>(Ro.C.Actions.size(), 1);
    Model.accumulateSequenceGrad(*Ro.S->source(), Ro.S->SrcText, Ro.C.Actions,
                                 Scale, Grad);
    if (Opts.Mode == PromptMode::Augmented) {
      Model.accumulateDiagGrad(Ro.C.Actions, Ro.C.PredictedDiagClass, Scale,
                               Grad);
      if (Ro.C.PredictedDiagClass != 0)
        Model.accumulateFixGrad(Ro.C.SelfCorrected, Scale, Grad);
    }
  }

  TrainLogEntry Log;
  Log.GradNorm = clipGradient(Grad, Opts.ClipNorm);
  for (unsigned I = 0; I < Grad.size(); ++I)
    Model.params()[I] += Opts.LearningRate * Grad[I]; // single update, no KL

  unsigned N = static_cast<unsigned>(Rollouts.size());
  Log.Step = StepNo;
  Log.MeanReward = N ? RewardSum / N : 0;
  Log.EMAReward = Smoother.push(Log.MeanReward);
  Log.EquivalentRate = N ? static_cast<double>(EquivCount) / N : 0;
  Log.CopyRate = N ? static_cast<double>(CopyCount) / N : 0;
  const double ScoreWallMs =
      std::chrono::duration<double, std::milli>(ScoreEnd - ScoreStart)
          .count();

  if (StepSpan.active()) {
    double CacheHitRate = 0;
    if (Opts.Verify.Cache) {
      VerifyCache::Counters After = Opts.Verify.Cache->counters();
      uint64_t Lookups = After.lookups() - Before.lookups();
      CacheHitRate =
          Lookups ? static_cast<double>(After.Hits - Before.Hits) / Lookups
                  : 0.0;
    }
    // Deterministic plane: everything the bit-identical-trajectory guarantee
    // covers. Wall-derived values (score wall time, hit rate) go in meta.
    if (!Opts.TraceLabel.empty())
      StepSpan.arg(TraceArg::ofStr("stage", Opts.TraceLabel));
    StepSpan.arg(TraceArg::ofInt("step", StepNo));
    StepSpan.arg(TraceArg::ofFloat("mean_reward", Log.MeanReward));
    StepSpan.arg(TraceArg::ofFloat("ema_reward", Log.EMAReward));
    StepSpan.arg(TraceArg::ofFloat("equivalent_rate", Log.EquivalentRate));
    StepSpan.arg(TraceArg::ofFloat("copy_rate", Log.CopyRate));
    StepSpan.arg(TraceArg::ofFloat("grad_norm", Log.GradNorm));
    StepSpan.arg(TraceArg::ofInt("falsify_wins", FalsifyWins));
    StepSpan.arg(
        TraceArg::ofInt("solver_conflicts", static_cast<int64_t>(Conflicts)));
    StepSpan.arg(TraceArg::ofInt("retry_escalations", Escalations));
    StepSpan.arg(
        TraceArg::ofInt("terminal_inconclusive", TerminalInconclusive));
    StepSpan.arg(TraceArg::ofInt("max_retry_tier", MaxTier));
    StepSpan.meta(TraceArg::ofFloat("score_wall_ms", ScoreWallMs));
    StepSpan.meta(TraceArg::ofFloat("cache_hit_rate", CacheHitRate));
  }

  MetricsRegistry &Reg = MetricsRegistry::global();
  static Counter &Steps = Reg.counter("grpo.steps");
  static Counter &RolloutsScored = Reg.counter("grpo.rollouts");
  static Histogram &ScoreWall =
      Reg.histogram("grpo.score_wall_ms", latencyMsBounds());
  Steps.inc();
  RolloutsScored.inc(N);
  ScoreWall.observe(ScoreWallMs);
  Reg.gauge("grpo.ema_reward").set(Log.EMAReward);
  return Log;
}

std::vector<TrainLogEntry>
GRPOTrainer::train(const std::vector<Sample> &Prompts, unsigned Steps,
                   const std::function<bool(const TrainLogEntry &)> &OnStep) {
  std::vector<TrainLogEntry> Logs;
  assert(!Prompts.empty() && "training set is empty");
  for (unsigned Step = 0; Step < Steps; ++Step) {
    std::vector<const Sample *> Batch;
    for (unsigned I = 0; I < Opts.PromptsPerStep; ++I)
      Batch.push_back(&Prompts[R.below(Prompts.size())]);
    Logs.push_back(this->step(Batch));
    if (OnStep && !OnStep(Logs.back()))
      break;
  }
  return Logs;
}

GRPOTrainerState GRPOTrainer::state() const {
  GRPOTrainerState St;
  St.StepCount = StepCount;
  St.RNGState = R.state();
  St.EMAValue = Smoother.value();
  St.EMAPrimed = Smoother.primed();
  return St;
}

void GRPOTrainer::restoreState(const GRPOTrainerState &St) {
  StepCount = St.StepCount;
  R.setState(St.RNGState);
  Smoother.restore(St.EMAValue, St.EMAPrimed);
}

//===----------------------------------------------------------------------===//
// SFT
//===----------------------------------------------------------------------===//

double sftLoss(const RewritePolicyModel &Model,
               const std::vector<SFTExample> &Data) {
  if (Data.empty())
    return 0;
  double Loss = 0;
  for (const SFTExample &Ex : Data) {
    Loss -= Model.sequenceLogProb(*Ex.S->source(), Ex.S->SrcText,
                                  Ex.TargetActions);
    Loss -= Model.diagLogProb(Ex.AttemptActions, Ex.DiagClassTarget);
    if (Ex.IsCorrection)
      Loss -= Model.fixLogProb(true);
  }
  return Loss / static_cast<double>(Data.size());
}

void sftTrain(RewritePolicyModel &Model, const std::vector<SFTExample> &Data,
              const SFTOptions &Opts) {
  if (Data.empty())
    return;
  RNG R(Opts.Seed);
  for (unsigned Epoch = 0; Epoch < Opts.Epochs; ++Epoch) {
    // Shuffled single-example steps (small data; SGD is fine).
    std::vector<unsigned> Order(Data.size());
    for (unsigned I = 0; I < Order.size(); ++I)
      Order[I] = I;
    for (unsigned I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[R.below(I)]);

    for (unsigned Idx : Order) {
      const SFTExample &Ex = Data[Idx];
      std::vector<double> Grad(Model.numParams(), 0.0);
      double Scale = 1.0 / std::max<size_t>(Ex.TargetActions.size(), 1);
      Model.accumulateSequenceGrad(*Ex.S->source(), Ex.S->SrcText,
                                   Ex.TargetActions, Scale, Grad);
      Model.accumulateDiagGrad(Ex.AttemptActions, Ex.DiagClassTarget, 1.0,
                               Grad);
      if (Ex.IsCorrection)
        Model.accumulateFixGrad(true, 1.0, Grad);
      clipGradient(Grad, Opts.ClipNorm);
      for (unsigned I = 0; I < Grad.size(); ++I)
        Model.params()[I] += Opts.LearningRate * Grad[I];
    }
  }
}

} // namespace veriopt
