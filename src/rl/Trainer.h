//===- Trainer.h - GRPO and SFT trainers -------------------------*- C++ -*-=//
//
// GRPO (Shao et al.) with the paper's §IV-B modifications: no KL penalty
// (gradient clipping instead), single-update objective, and DAPO-style
// token-level loss normalization (each completion's policy gradient is
// weighted by 1 / total-tokens-in-batch rather than per-sequence means).
//
// SFT teacher-forces oracle action sequences, the diagnosis head, and the
// self-correction gate on diagnostic-augmented samples (§III-C2 warm-up).
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_RL_TRAINER_H
#define VERIOPT_RL_TRAINER_H

#include "rl/Reward.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"
#include "verify/Ladder.h"

#include <functional>

namespace veriopt {

/// What a stage-specific reward evaluation returns for one completion.
struct RolloutScore {
  double Reward = 0;
  bool Equivalent = false;
  bool ExactMatch = false;
  bool IsCopy = false;
  VerifyResult AnswerVerify;
};

/// What the trainer's group verification hands the reward for one rollout.
struct RolloutVerdicts {
  /// The parsed answer (always set; shared by byte-identical answers in the
  /// group, so the reward's copy check and latency model never reparse).
  const Candidate *Answer = nullptr;
  /// Alive's verdict on the answer; default-constructed when the completion
  /// failed the format gate (the answer is then never verified).
  VerifyResult AnswerVerify;
  /// Alive's verdict on the <think> attempt (augmented mode only).
  VerifyResult AttemptVerify;
};

/// Stage-specific reward: pure math over (sample, completion, verdicts).
/// Scoring fans out over GRPOOptions::Pool, so the function must be safe to
/// call concurrently on distinct completions (shared state needs its own
/// synchronization — or better, use GRPOOptions::OnRollout, which runs
/// sequentially).
using RewardFn = std::function<RolloutScore(
    const Sample &, const Completion &, const RolloutVerdicts &)>;

/// Sequential per-rollout observer, invoked after the (possibly parallel)
/// scoring phase in deterministic rollout order. The place for stateful
/// consumers like the stage-1 sample harvester: it sees every rollout
/// exactly once, in the same order at any thread count.
using RolloutHook = std::function<void(const Sample &, const Completion &,
                                       const RolloutScore &)>;

struct GRPOOptions {
  unsigned GroupSize = 8;      ///< candidates per prompt (the "group")
  unsigned PromptsPerStep = 4; ///< prompts per update
  double LearningRate = 0.12;
  double Temperature = 1.0;
  double ClipNorm = 4.0; ///< global L2 gradient clip (replaces KL)
  PromptMode Mode = PromptMode::Generic;
  uint64_t Seed = 11;

  /// Verification and scoring fan out over this pool when it has more than
  /// one thread; null runs them inline. Generation stays sequential (each
  /// rollout draws from an RNG derived from (Seed, Step, PromptIdx, G)), so
  /// the trained model and the log's reward/equivalence values are
  /// bit-identical at any pool width.
  ThreadPool *Pool = nullptr;
  /// The retry ladder each prompt group is verified through (budgets and
  /// optional cache). Every answer that passes the format gate, and every
  /// think-attempt in augmented mode, is verified exactly once per step,
  /// before scoring.
  LadderOptions Verify;
  /// Optional sequential observer of every scored rollout.
  RolloutHook OnRollout;
  /// Stage label stamped onto this trainer's trace events ("stage1"...);
  /// empty means unlabeled. Deterministic, so it lives in event Args.
  std::string TraceLabel;
};

/// One training-step log record: the Fig. 4 curves. Per-step verifier
/// cost (falsification wins, solver conflicts, retry tiers, scoring wall
/// time, cache hit rate) is telemetry: it rides the `grpo.step` trace span
/// and the verify.* / grpo.* metrics, not this record.
struct TrainLogEntry {
  unsigned Step = 0;
  double MeanReward = 0;
  double EMAReward = 0; ///< 0.95-smoothed, as plotted in the paper
  double EquivalentRate = 0;
  double CopyRate = 0;
  double GradNorm = 0;
};

/// Everything needed to restart GRPO training mid-run and produce results
/// bit-identical to an uninterrupted run: the step counter feeds the
/// per-rollout RNG derivation, RNGState drives prompt sampling, and the
/// EMA smoother state continues the logged reward curve. (Model parameters
/// are checkpointed separately by the pipeline.)
struct GRPOTrainerState {
  unsigned StepCount = 0;
  uint64_t RNGState = 0;
  double EMAValue = 0;
  bool EMAPrimed = false;
};

/// Group Relative Policy Optimization over a fixed prompt set.
class GRPOTrainer {
public:
  GRPOTrainer(RewritePolicyModel &Model, RewardFn Reward,
              const GRPOOptions &Opts);

  /// Run \p Steps updates over \p Prompts (cycled, shuffled by seed).
  /// Returns the per-step log. \p OnStep, when set, observes each step's
  /// log entry; returning false halts training after that step (the
  /// pipeline's checkpoint hook), leaving the trainer resumable via
  /// state()/restoreState().
  std::vector<TrainLogEntry>
  train(const std::vector<Sample> &Prompts, unsigned Steps,
        const std::function<bool(const TrainLogEntry &)> &OnStep = nullptr);

  /// Single update from explicit rollouts (exposed for tests).
  TrainLogEntry step(const std::vector<const Sample *> &Batch);

  /// Snapshot / restore the trainer's resumable state (checkpointing).
  GRPOTrainerState state() const;
  void restoreState(const GRPOTrainerState &St);

private:
  RewritePolicyModel &Model;
  RewardFn Reward;
  GRPOOptions Opts;
  RNG R;
  unsigned StepCount = 0;
  EMA Smoother{0.95};
};

//===--- SFT -----------------------------------------------------------------//

/// One diagnostic-augmented training example (Fig. 2). First-time samples
/// have IsCorrection = false and an empty AttemptActions; correction
/// samples carry the corruptions of the failed attempt plus the Alive
/// verdict class observed for it.
struct SFTExample {
  const Sample *S = nullptr;
  std::vector<Action> TargetActions; ///< oracle sequence, ends with Stop
  bool IsCorrection = false;
  std::vector<Action> AttemptActions; ///< actions of the failed attempt
  unsigned DiagClassTarget = 0;       ///< Alive verdict class for attempt
};

struct SFTOptions {
  double LearningRate = 0.08;
  unsigned Epochs = 12;
  double ClipNorm = 4.0;
  uint64_t Seed = 17;
};

/// Average SFT loss (negative log-likelihood) over the set — exposed so
/// tests/benches can confirm the warm-up converges.
double sftLoss(const RewritePolicyModel &Model,
               const std::vector<SFTExample> &Data);

/// Supervised fine-tuning on diagnostic-augmented samples.
void sftTrain(RewritePolicyModel &Model, const std::vector<SFTExample> &Data,
              const SFTOptions &Opts);

/// Utilities shared by trainers.
double clipGradient(std::vector<double> &Grad, double MaxNorm);

} // namespace veriopt

#endif // VERIOPT_RL_TRAINER_H
