//===- Pipeline.h - The four-model training pipeline -------------*- C++ -*-=//
//
// Implements the paper's §III-C training scheme end to end:
//
//  Stage 1  MODEL-ZERO: GRPO with the generic prompt directly on the base
//           policy. Its main product is not the policy but the stream of
//           *diagnostic-augmented samples* harvested from failed rollouts
//           (wrong attempt + Alive verdict + reference answer).
//  Stage 2  WARM-UP: SFT of a fresh base policy on the augmented samples
//           (first-time + correction), then GRPO with augmented prompts and
//           the CoT reward, yielding MODEL-CORRECTNESS.
//  Stage 3  MODEL-LATENCY: incremental GRPO from MODEL-CORRECTNESS with the
//           Eq.(4) latency reward (labels dropped; Alive2 stays in the
//           reward as the equivalence gate; generic prompt again).
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_PIPELINE_PIPELINE_H
#define VERIOPT_PIPELINE_PIPELINE_H

#include "pipeline/Checkpoint.h"
#include "pipeline/Evaluation.h"
#include "rl/Trainer.h"

#include <memory>

namespace veriopt {

struct PipelineOptions {
  DatasetOptions Data;
  ModelConfig BaseModel = presetQwen3B();

  unsigned Stage1Steps = 50;
  unsigned Stage2SFTEpochs = 2; ///< a light warm-up: rudimentary skills only
  double Stage2SFTLearningRate = 0.05;
  unsigned Stage2Steps = 80;
  unsigned Stage3Steps = 200;
  /// Stage-3 explores aggressively: the latency reward must *discover*
  /// rewrites beyond the instcombine labels (mem2reg/simplifycfg), which
  /// start with low probability after imitation.
  double Stage3Temperature = 1.9;
  /// The latency stage needs a larger step size: its reward is sparse
  /// (zero unless strictly faster) and the actions it must discover start
  /// rare, so the clipped token-normalized gradients are small.
  double Stage3LearningRate = 0.5;

  GRPOOptions GRPO; ///< shared defaults; Mode is set per stage
  SFTOptions SFT;
  /// Verification budget during training (cheaper than evaluation).
  VerifyOptions TrainVerify = trainVerifyDefaults();
  uint64_t Seed = 2026;

  /// Verification and scoring worker threads, shared by all three GRPO
  /// stages. Generation stays sequential, so results are bit-identical at
  /// any setting (see GRPOOptions::Threads).
  unsigned Threads = 1;
  /// Verify-memo capacity in entries; 0 disables the cache. The cache is
  /// shared across stages (keys carry the full verification budget).
  size_t VerifyCacheCapacity = 4096;

  //===--- Fault-tolerant runtime ---------------------------------------===//

  /// Escalating verification retry ladder (verify/Ladder.h): budget-bound
  /// Inconclusives are re-asked at geometrically larger budgets. 1 tier
  /// reproduces the plain single-budget behaviour exactly.
  unsigned VerifyRetryTiers = 3;
  uint64_t VerifyRetryGrowth = 4;

  /// Checkpoint file; empty disables checkpointing. Written every
  /// CheckpointEveryNSteps GRPO steps (0 = only at stage boundaries and on
  /// halt) via atomic write-then-rename.
  std::string CheckpointPath;
  unsigned CheckpointEveryNSteps = 0;
  /// Extra save attempts after a failed checkpoint write, each preceded by
  /// the driver's deterministic capped backoff (driverBackoffMs with
  /// CheckpointRetryBaseMs/CapMs, keyed on seed + stage + attempt — no
  /// clock, no randomness). A still-failing write after all retries is
  /// telemetry, never an abort: the previous checkpoint stands and
  /// training continues on the identical trajectory.
  unsigned CheckpointWriteRetries = 2;
  uint64_t CheckpointRetryBaseMs = 10;
  uint64_t CheckpointRetryCapMs = 100;
  /// Resume from CheckpointPath when it holds a checkpoint for this Seed;
  /// the resumed run's deterministic artifacts (parameters, logs, harvested
  /// samples) are identical to an uninterrupted run.
  bool Resume = false;
  /// Test hook: stop this invocation after N GRPO steps (counted across
  /// stages, after writing a checkpoint), returning artifacts with
  /// Halted = true. 0 = run to completion.
  unsigned HaltAfterSteps = 0;

  /// Optional deterministic fault injection (oracle budget exhaustion,
  /// verdict flips, cache misses, checkpoint-write failures). Null = off.
  FaultInjector *Faults = nullptr;

  /// Optional durable verdict tier (the persistent VerdictStore, opened by
  /// the caller from e.g. train_mini's --verdict-store flag) attached under
  /// the run's shared VerifyCache and propagated to evaluation. Warm-store
  /// runs are bit-identical to cold ones — only the verification work is
  /// skipped. Requires VerifyCacheCapacity > 0 (the store sits under the
  /// cache). While Faults is set the cache bypasses the tier entirely, so
  /// chaos runs neither read nor warm the store.
  VerdictBackingTier *VerdictTier = nullptr;

  //===--- Sharded evaluation -------------------------------------------===//

  /// Shard count for evaluateModelSharded(); 0 = one shard per worker
  /// thread. The result is bit-identical to the serial oracle at any
  /// setting (see Evaluation.h).
  unsigned EvalShards = 1;
  /// When non-empty, the evaluation writes its shard plan / per-shard
  /// result JSON here (the multi-process work-unit boundary).
  std::string EvalShardManifestPath;
  std::string EvalShardResultDir;

  /// EvalOptions matching this pipeline configuration (shards, cache
  /// capacity, seed, fault injection). \p Pool may be null for inline
  /// evaluation.
  EvalOptions makeEvalOptions(ThreadPool *Pool = nullptr) const {
    EvalOptions EO;
    EO.Shards = EvalShards;
    EO.Pool = Pool;
    EO.VerifyCacheCapacity = VerifyCacheCapacity;
    EO.Seed = Seed;
    EO.Faults = Faults;
    EO.VerdictTier = VerdictTier;
    EO.ShardManifestPath = EvalShardManifestPath;
    EO.ShardResultDir = EvalShardResultDir;
    return EO;
  }

  static VerifyOptions trainVerifyDefaults() {
    VerifyOptions V;
    V.FalsifyTrials = 12;
    V.SolverConflictBudget = 50000;
    return V;
  }
};

/// Everything the pipeline produces: the four model snapshots, training
/// logs (Fig. 4), the harvested sample set, and U_max.
struct PipelineArtifacts {
  std::unique_ptr<RewritePolicyModel> Base;        ///< untouched base
  std::unique_ptr<RewritePolicyModel> ModelZero;   ///< stage-1 policy
  std::unique_ptr<RewritePolicyModel> WarmUp;      ///< post-SFT snapshot
  std::unique_ptr<RewritePolicyModel> Correctness; ///< stage-2 result
  std::unique_ptr<RewritePolicyModel> Latency;     ///< stage-3 result

  std::vector<TrainLogEntry> Stage1Log;
  std::vector<TrainLogEntry> Stage2Log; ///< Fig. 4(a)
  std::vector<TrainLogEntry> Stage3Log; ///< Fig. 4(b)

  std::vector<SFTExample> Augmented; ///< harvested diagnostic samples
  unsigned CorrectionSamples = 0;
  unsigned FirstTimeSamples = 0;
  double UMax = 3.0;

  // Fault-tolerant-runtime instrumentation. Verifier cost lives in the
  // per-step TrainLogEntry fields and the verify.* / smt.* metrics.
  bool Halted = false;            ///< stopped early via HaltAfterSteps
  unsigned CheckpointsWritten = 0;
  unsigned CheckpointWriteFailures = 0; ///< injected or real; run continued
  uint64_t CheckpointRetries = 0;       ///< extra save attempts consumed
};

/// Run the full pipeline over \p DS (built by the caller so benches can
/// share one dataset across many experiments).
PipelineArtifacts runTrainingPipeline(const Dataset &DS,
                                      const PipelineOptions &Opts);

/// Stage-1 reward: Eq. (1) on the answer. The factories are pure reward
/// math over the trainer's verdicts, safe for parallel scoring.
RewardFn makeAnswerReward();

/// Stage-2 reward: Eq. (1) on the answer plus Eq. (2) on the think section.
RewardFn makeCorrectnessReward();

/// Stage-3 reward: Eq. (4) with the given parameters.
RewardFn makeLatencyReward(const LatencyRewardParams &P);

} // namespace veriopt

#endif // VERIOPT_PIPELINE_PIPELINE_H
