//===- EvalDriver.h - Crash-tolerant multi-process eval driver ---*- C++ -*-=//
//
// Farms the shards of an evaluation manifest (planEvalShards +
// shardManifestToJson) out to `veriopt-worker` processes and supervises
// them: a worker that crashes, is killed, hangs past its wall-clock
// deadline, or emits a truncated/invalid result file is retried on a
// deterministic capped exponential backoff schedule; a shard that fails
// MaxAttempts times is quarantined with every attempt's captured
// diagnostics instead of taking the run down. The final merge salvages all
// healthy shards and is — by the PR6 shard contract — bit-identical to the
// serial oracle restricted to the healthy shard set. When every shard is
// healthy it equals evaluateModelSharded()/evaluateModel() exactly.
//
// Per-shard state machine (docs/FAULT_TOLERANCE.md):
//
//   pending ──spawn──▶ running ──ok──────────────▶ done
//      ▲                  │ crash/kill/timeout/corrupt
//      │                  ▼
//      └──backoff──── retrying ──attempts exhausted──▶ quarantined
//
// Resumability falls out of the result-file discipline: a shard whose
// result file already exists and validates against the manifest is reused
// without spawning a worker (the atomic+durable write in
// support/AtomicFile.h is what makes trusting that file sound).
//
// Every decision is schedule-independent: whether a shard is retried or
// quarantined depends only on its own attempts' outcomes, and the backoff
// delay is a pure function of (Seed, shard, attempt) — the same run makes
// the same retry decisions regardless of worker completion order.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_PIPELINE_EVALDRIVER_H
#define VERIOPT_PIPELINE_EVALDRIVER_H

#include "pipeline/Evaluation.h"

#include <cstdint>
#include <string>
#include <vector>

namespace veriopt {

struct EvalDriverOptions {
  /// Shard-plan manifest (shardManifestToJson output). The driver only
  /// reads it; planning stays with the caller.
  std::string ManifestPath;
  /// Directory for per-shard result files (shard_<index>.json) and the
  /// quarantine list (quarantine.json).
  std::string ResultDir;
  /// Worker argv prefix, e.g. {"./veriopt-worker", "--valid-count", "12"}.
  /// The driver appends --manifest/--shard/--out/--attempt per launch.
  std::vector<std::string> WorkerArgv;
  /// Concurrent worker processes.
  unsigned MaxWorkers = 2;
  /// Attempts per shard before quarantine (>= 1).
  unsigned MaxAttempts = 3;
  /// Backoff schedule: attempt k retries after
  /// driverBackoffMs(Seed, shard, k, BackoffBaseMs, BackoffCapMs).
  uint64_t BackoffBaseMs = 50;
  uint64_t BackoffCapMs = 2000;
  /// Per-worker wall-clock deadline in ms (0 = none). A blown deadline is
  /// SIGKILL escalation + retry, the Alive2-style hung-oracle discipline.
  uint64_t WorkerDeadlineMs = 0;
  /// Seeds the deterministic backoff jitter.
  uint64_t Seed = 0xE7A1;
  /// Reuse pre-existing valid result files instead of re-running their
  /// shards (restart-after-crash resumability).
  bool Resume = true;
  /// Per-attempt stderr capture cap (diagnostics in the quarantine list).
  size_t MaxStderrBytes = 4096;
};

/// Coarse cause taxonomy for a failed attempt — the distinction the
/// quarantine diagnostics surface so an operator can tell "the worker's
/// disk is failing" (Io: typed I/O exit, or an exit-0 claim whose result
/// file is missing/torn) from "the worker rejected its inputs or computed
/// garbage" (Logic: any other nonzero exit) from "the process died or
/// hung" (Runtime: signal, blown deadline, spawn failure).
enum class FailureClass { Logic, Io, Runtime };
const char *failureClassName(FailureClass C);

/// One failed attempt's diagnostics, kept for the quarantine record.
struct ShardAttemptFailure {
  unsigned Attempt = 0;     ///< 1-based
  FailureClass Class = FailureClass::Runtime;
  std::string Reason;       ///< typed outcome + detail (exit code, signal,
                            ///< validation error, ...)
  std::string StderrTail;   ///< captured worker stderr (bounded)
};

struct QuarantinedShard {
  EvalShard Shard;
  std::vector<ShardAttemptFailure> Failures; ///< one per attempt
};

struct EvalDriverReport {
  unsigned Spawned = 0;  ///< worker processes launched
  unsigned Retried = 0;  ///< launches that were retries (attempt > 1)
  unsigned Reused = 0;   ///< shards satisfied by valid existing files
  unsigned Salvaged = 0; ///< healthy shards in the merge (incl. Reused)
  std::vector<QuarantinedShard> Quarantined; ///< sorted by shard index
  std::vector<unsigned> HealthyShardIndices; ///< sorted
  /// Non-empty when writing <ResultDir>/quarantine.json itself failed (the
  /// diagnostics still live in Quarantined — losing the sidecar costs
  /// forensics on disk, never the in-memory report or the merge).
  std::string QuarantineWriteError;
  /// Merge over the healthy shard subset (bit-identical to the serial
  /// oracle restricted to those shards' sample ranges).
  EvalResult Merged;

  bool allHealthy() const { return Quarantined.empty(); }
};

/// The deterministic retry delay before attempt \p Attempt (>= 2) of shard
/// \p ShardIdx: capped exponential in the attempt number plus jitter that
/// is a pure hash of (Seed, ShardIdx, Attempt) — no clock, no randomness,
/// no dependence on other shards. Attempt 1 is always 0.
uint64_t driverBackoffMs(uint64_t Seed, unsigned ShardIdx, unsigned Attempt,
                         uint64_t BaseMs, uint64_t CapMs);

/// Load \p Path and validate it as the result of \p Expect: parseable
/// (shardResultFromJson's hardened typed errors), same shard identity
/// (index and range), and exactly End-Begin samples. Truncated, garbage,
/// or wrong-shard files fail with \p Why set — they are never merged.
bool loadValidShardResult(const std::string &Path, const EvalShard &Expect,
                          ShardEvalResult &Out, std::string *Why);

/// Run the supervisor over the manifest. Returns false only on driver-level
/// errors (unreadable manifest, nothing healthy to merge with every shard
/// quarantined is still true — degraded, not failed). Emits an
/// `eval.driver` span, one `eval.worker` span per launch, and the
/// `driver.{spawned,retried,quarantined,salvaged}` counters.
bool runEvalDriver(const EvalDriverOptions &Opts,
                   const std::string &ModelName, EvalDriverReport &Report,
                   std::string *Err);

/// JSON for the poison list ({"quarantined":[...]}; written by
/// runEvalDriver to <ResultDir>/quarantine.json, bounded diagnostics).
std::string quarantineToJson(const std::vector<QuarantinedShard> &Q);

/// Operator-facing summary: per-state counts, quarantine table with the
/// last failure reason, and the salvaged-merge taxonomy.
std::string renderDriverReport(const EvalDriverReport &R);

} // namespace veriopt

#endif // VERIOPT_PIPELINE_EVALDRIVER_H
