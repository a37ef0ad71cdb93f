//===- Evaluation.h - The paper's evaluation harness -------------*- C++ -*-=//
//
// Computes every statistic the paper's tables and figures report:
//  - the Alive verification taxonomy (Tables I/II): correct (with the
//    trivial-copy sub-row), semantic error, syntax error, inconclusive;
//  - per-sample Better/Worse/Tie and mean relative change vs -O0 for
//    latency / binary size / instruction count, with the -O0 fallback on
//    verification failure (Table III);
//  - geomean improvements and pairwise win/tie/loss against the reference
//    pass, plus the best-of-both fallback composition (Figs. 5-7).
//
// The harness scales with the corpus: evaluateModelSharded() partitions the
// validation set into deterministic contiguous shards, evaluates each shard
// (optionally on the shared ThreadPool) through one EvalVerifier — the
// group verifier over a verify cache and optional verdict store — and
// merges the per-shard results with an order-independent reduction that
// is bit-identical to the serial oracle evaluateModel() at any shard/thread
// count. A shard is a serializable work unit — planEvalShards() plans it,
// shardManifestToJson() writes the plan, and every ShardEvalResult
// round-trips through JSON with bit-exact doubles — so the multi-process
// driver (EvalDriver.h) can run shards in separate worker processes.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_PIPELINE_EVALUATION_H
#define VERIOPT_PIPELINE_EVALUATION_H

#include "model/Policy.h"
#include "data/Dataset.h"
#include "verify/Ladder.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace veriopt {

class ThreadPool;

/// Table I/II row counts.
struct VerifyTaxonomy {
  unsigned Total = 0;
  unsigned Correct = 0;
  unsigned CorrectCopies = 0; ///< sub-row of Correct
  unsigned SemanticError = 0;
  unsigned SyntaxError = 0;
  unsigned Inconclusive = 0;

  /// Percentage of \p N over Total; an empty split renders 0.0 (never
  /// NaN/inf — the degenerate-corpus convention, see EvaluationTest).
  double pct(unsigned N) const {
    return Total ? 100.0 * N / Total : 0.0;
  }
  /// The paper's headline: verified AND different from the input.
  double differentCorrectRate() const {
    return Total ? 100.0 * (Correct - CorrectCopies) / Total : 0.0;
  }
};

/// Better/Worse/Tie counts plus mean relative change for one metric
/// (Table III rows). Negative mean = improvement.
struct MetricAgg {
  unsigned Better = 0, Worse = 0, Tie = 0;
  double MeanRelChange = 0; ///< mean of (out - base) / base
  double GeoRatio = 1.0;    ///< geomean of out/base (lower = better)
};

/// One sample's end-to-end evaluation.
struct SampleEval {
  VerifyStatus Status = VerifyStatus::Inconclusive;
  bool IsCopy = false;
  bool UsedFallback = false; ///< verification failed -> -O0 output kept
  double LatO0 = 0, LatOut = 0, LatRef = 0;
  unsigned ICountO0 = 0, ICountOut = 0, ICountRef = 0;
  unsigned SizeO0 = 0, SizeOut = 0, SizeRef = 0;
};

struct EvalResult {
  std::string ModelName;
  VerifyTaxonomy Taxonomy;
  MetricAgg Latency, Size, ICount; ///< vs -O0, fallback applied
  double GeoSpeedupVsO0 = 1.0;     ///< geomean LatO0/LatOut
  /// Pairwise vs the reference pass on latency (Fig. 6(c)).
  unsigned VsRefBetter = 0, VsRefWorse = 0, VsRefTie = 0;
  /// Fallback composition: min(model, reference) per sample, geomean
  /// improvement over reference alone (the paper's +17% result).
  double FallbackGainOverRef = 0;
  std::vector<SampleEval> PerSample;
};

//===--- Serial oracle ------------------------------------------------------===//

/// Evaluate a policy on \p Valid with greedy decoding, serially. This is
/// the oracle the sharded path must reproduce bit for bit.
EvalResult evaluateModel(const RewritePolicyModel &Model,
                         const std::vector<Sample> &Valid, PromptMode Mode,
                         const VerifyOptions &VOpts = VerifyOptions());

/// The reference pass itself as a "model" row (its outputs are the
/// Sample::Reference functions).
EvalResult evaluateReferencePass(const std::vector<Sample> &Valid);

/// Recompute every aggregate field of \p R (MetricAggs, GeoSpeedupVsO0,
/// VsRef counts, FallbackGainOverRef) from R.PerSample. Pure in PerSample,
/// so merging shards and re-aggregating is bit-identical to the serial
/// pass. Degenerate corpora follow fixed conventions instead of producing
/// NaN: empty relative-change sets mean 0.0, empty ratio sets mean a 1.0
/// geomean, and an empty corpus has FallbackGainOverRef 0.0.
void recomputeAggregates(EvalResult &R);

//===--- Per-sample core ----------------------------------------------------===//

/// How a parsed answer gets verified against its sample (plain
/// verifyCandidate, or an EvalVerifier).
using CandidateVerifier =
    std::function<VerifyResult(const Sample &S, const Candidate &Answer)>;

/// Verify and classify one completion for \p S: the shared per-sample core
/// of the serial and sharded paths (identical logic is what makes the
/// differential guarantee hold). Counts the outcome into \p Tax. The kept
/// output is the answer's own parse; a verdict of Equivalent for an answer
/// that did not parse is recorded as Inconclusive with a distinct
/// diagnostic and keeps the -O0 fallback — never UB.
SampleEval evaluateCandidate(const Sample &S, const Completion &C,
                             const CandidateVerifier &Verify,
                             VerifyTaxonomy &Tax);

//===--- Sharded evaluation -------------------------------------------------===//

/// One shard of the validation set: a deterministic, serializable work
/// unit. Samples [Begin, End) are evaluated in order with greedy decoding,
/// so a shard's result is independent of the thread schedule.
struct EvalShard {
  unsigned Index = 0;
  size_t Begin = 0, End = 0; ///< [Begin, End) into the validation set
};

/// What one shard produced. PerSample holds samples Begin..End in corpus
/// order; Taxonomy is this shard's slice of the counts.
struct ShardEvalResult {
  EvalShard Shard;
  VerifyTaxonomy Taxonomy;
  std::vector<SampleEval> PerSample;
};

struct EvalOptions {
  /// Shard count; 0 = one shard per pool thread (or 1 without a pool).
  unsigned Shards = 1;
  /// Shards run on this pool when it has more than one thread; null or
  /// single-threaded pools evaluate shards inline, in index order.
  ThreadPool *Pool = nullptr;
  /// Optional externally owned verify cache. When set, the run uses it
  /// instead of a private default-capacity one, so successive evaluations (the
  /// checkpoint-cadence and ablation-table workloads, which re-verify
  /// mostly unchanged (source, candidate) pairs) replay verdicts instead
  /// of recomputing them — bit-identical either way.
  VerifyCache *SharedCache = nullptr;
  /// Optional durable verdict tier (the persistent VerdictStore) attached
  /// under the run's verify cache: memo misses read through to it and
  /// fresh verdicts write behind, so a warm store replays verification
  /// across processes and runs. Bit-identical either way (verification is
  /// deterministic and the store admits only deterministic verdicts — see
  /// docs/PERSISTENCE.md). Caller owns; must outlive the evaluation.
  VerdictBackingTier *VerdictTier = nullptr;
};

/// Deterministic contiguous partition of \p N samples into \p Shards
/// shards (sizes differ by at most one; empty shards are kept so the
/// manifest always lists exactly \p Shards entries).
std::vector<EvalShard> planEvalShards(size_t N, unsigned Shards);

/// The verifier evaluation runs: each greedy answer is a group of one for
/// the group verifier (one shared-encoding ladder at a single fixed budget,
/// no retries, no per-request telemetry) through a verify cache with the
/// options' verdict store attached.
/// evaluateModelSharded and the multi-process worker both build it here.
class EvalVerifier {
public:
  EvalVerifier(const VerifyOptions &VOpts, const EvalOptions &EOpts);
  VerifyResult verify(const Sample &S, const Candidate &Answer) const;

private:
  std::unique_ptr<VerifyCache> OwnedCache;
  LadderOptions Ladder;
};

/// Evaluate one shard. \p Verifier may be null (plain verification at
/// \p VOpts, the oracle). This is the unit a multi-process driver invokes.
ShardEvalResult evaluateEvalShard(const RewritePolicyModel &Model,
                                  const std::vector<Sample> &Valid,
                                  PromptMode Mode, const VerifyOptions &VOpts,
                                  const EvalShard &Shard,
                                  const EvalVerifier *Verifier = nullptr);

/// Merge per-shard results: concatenate PerSample in shard-index order,
/// sum the taxonomy, recompute aggregates. Order-independent in the input
/// vector's ordering and bit-identical to the serial oracle.
EvalResult mergeShardResults(const std::string &ModelName,
                             std::vector<ShardEvalResult> Shards);

/// The sharded front door. Bit-identical to evaluateModel() at any
/// Shards/Pool configuration, cache or store state.
EvalResult evaluateModelSharded(const RewritePolicyModel &Model,
                                const std::vector<Sample> &Valid,
                                PromptMode Mode, const VerifyOptions &VOpts,
                                const EvalOptions &EOpts);

/// Count bit-exact differences between two results: taxonomy counts, every
/// aggregate (doubles compared by bit pattern, so -0.0 != 0.0 and NaN ==
/// NaN), and every per-sample field. 0 means bit-identical. The
/// differential tests key off this, the fleet's DriverTest cases among them.
unsigned countResultDivergence(const EvalResult &A, const EvalResult &B);

//===--- Shard serialization ------------------------------------------------===//

/// Manifest JSON for a shard plan: {"samples":..,"shards":[...]}.
std::string shardManifestToJson(const std::vector<EvalShard> &Plan,
                                size_t Samples);
bool shardManifestFromJson(const std::string &Text,
                           std::vector<EvalShard> &Plan, std::string *Err);

/// Per-shard result JSON. Doubles are stored as IEEE-754 bit-hex (the
/// checkpoint discipline) so a parse(serialize(R)) round-trip is
/// bit-identical — merging deserialized shards must equal merging in-memory
/// ones.
std::string shardResultToJson(const ShardEvalResult &R);
bool shardResultFromJson(const std::string &Text, ShardEvalResult &R,
                         std::string *Err);

/// Render a taxonomy as a paper-style table block. An empty split renders
/// all-0.0% rows (never NaN/inf).
std::string renderTaxonomy(const std::string &Title, const VerifyTaxonomy &T);

} // namespace veriopt

#endif // VERIOPT_PIPELINE_EVALUATION_H
