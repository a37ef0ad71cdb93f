//===- Checkpoint.h - Pipeline checkpoint/resume -----------------*- C++ -*-=//
//
// Serializes everything the four-stage training pipeline needs to restart
// mid-stage and produce artifacts identical to an uninterrupted run: the
// per-model parameter vectors, the in-progress GRPO trainer's resumable
// state (step counter + RNG state + EMA smoother), the per-stage logs, and
// the harvested diagnostic-augmented sample set (as indices + action codes,
// so it can be re-bound to the caller's Dataset on load).
//
// The format is line-oriented text with every double stored as its IEEE-754
// bit pattern in hex, so a save/load round trip is bit-exact. Writes are
// atomic: serialize to "<path>.tmp", then rename over the destination — a
// crash mid-write leaves the previous checkpoint intact.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_PIPELINE_CHECKPOINT_H
#define VERIOPT_PIPELINE_CHECKPOINT_H

#include "rl/Trainer.h"

#include <string>
#include <vector>

namespace veriopt {

/// One harvested SFT example, decoupled from Sample pointers: SampleIdx
/// indexes the training split the pipeline was launched with.
struct AugmentedRecord {
  unsigned SampleIdx = 0;
  std::vector<unsigned> TargetActions; ///< Action codes, ends with Stop
  bool IsCorrection = false;
  std::vector<unsigned> AttemptActions;
  unsigned DiagClass = 0;
};

/// Stage encoding: 0 = stage-1 GRPO in progress, 1 = stage-2 GRPO in
/// progress (warm-up SFT already folded into WarmUpParams), 2 = stage-3
/// GRPO in progress, 3 = pipeline complete.
struct PipelineCheckpoint {
  /// Format version; loadCheckpoint accepts only this one (version 1 also
  /// carried per-step verifier telemetry and sample counts).
  unsigned Version = 2;
  uint64_t Seed = 0;     ///< PipelineOptions::Seed, verified on resume
  unsigned StageIdx = 0;
  GRPOTrainerState Trainer; ///< state of the in-progress stage's trainer

  // Parameter vectors; empty = that model does not exist yet.
  std::vector<double> ModelZeroParams;
  std::vector<double> WarmUpParams;
  std::vector<double> CorrectnessParams;
  std::vector<double> LatencyParams;

  std::vector<TrainLogEntry> Stage1Log, Stage2Log, Stage3Log;

  std::vector<AugmentedRecord> Augmented;
};

/// Atomically write \p CP to \p Path (via "<path>.tmp" + rename). Returns
/// false on I/O failure (a full disk, a crash mid-save, or a fault the
/// installed IoEnv injects). Callers must treat false as "previous
/// checkpoint still stands" and keep training.
bool saveCheckpoint(const std::string &Path, const PipelineCheckpoint &CP);

/// Load \p Path into \p CP. Returns false (leaving \p CP untouched) when
/// the file is missing, truncated, or not a compatible checkpoint — another
/// version, or an augmented record whose action code or diagnosis class is
/// out of range.
bool loadCheckpoint(const std::string &Path, PipelineCheckpoint &CP);

} // namespace veriopt

#endif // VERIOPT_PIPELINE_CHECKPOINT_H
