//===- Ladder.h - The escalating-budget verification ladder ------*- C++ -*-=//
//
// The one retry ladder every verification request runs: an Inconclusive
// verdict caused by budget exhaustion (SolverTimeout / ResourceExhausted) is
// re-asked at geometrically larger budget tiers before being accepted as
// terminal. Non-budget Inconclusives (Unsupported, LoopBound) are never
// retried — a bigger budget cannot change them.
//
// runLadder is parameterized by an encoding provider only:
//  - verifyWithLadder passes none, so each rung builds a fresh private
//    source encoding (the sequential oracle);
//  - verifyGroup dedupes a GRPO group's candidates and shares one
//    SourceEncoding across them, running the same ladder per unique
//    candidate on a thread pool.
// Both are bit-identical in every verdict field (RefinementQuery.h).
//
// Every decision is deterministic: tier budgets derive from the base
// options alone and retries are triggered by verdict kinds (never wall
// clock). Each rung is one VerifyCache lookup (the budget knobs are part of
// the key), so a ladder replayed from the cache reports the same per-tier
// outcomes and summed SolverConflicts as the run that computed it.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_VERIFY_LADDER_H
#define VERIOPT_VERIFY_LADDER_H

#include "verify/RefinementQuery.h"
#include "verify/VerifyCache.h"

#include <vector>

namespace veriopt {

class ThreadPool;

/// What one rung of the ladder returned.
struct RetryTierOutcome {
  unsigned Tier = 0;
  VerifyStatus Status = VerifyStatus::Inconclusive;
  DiagKind Kind = DiagKind::None;
  uint64_t SolverConflicts = 0;
  uint64_t FuelSpent = 0;
};

struct LadderOptions {
  /// Tier-0 verification options; higher tiers scale the budget knobs only.
  VerifyOptions Base;
  /// Number of rungs (1 = no retries).
  unsigned MaxTiers = 3;
  /// Geometric budget growth per tier: tier k runs with
  /// SolverConflictBudget and FuelBudget multiplied by BudgetGrowth^k
  /// (0-valued budgets stay 0 = unlimited).
  uint64_t BudgetGrowth = 4;
  /// Optional per-rung memo (and, through it, the durable verdict store).
  VerifyCache *Cache = nullptr;

  /// Options for rung \p Tier.
  VerifyOptions tierOptions(unsigned Tier) const;

  /// A verdict the ladder will retry at a higher budget.
  static bool retryable(const VerifyResult &R) {
    return R.Status == VerifyStatus::Inconclusive &&
           (R.Kind == DiagKind::SolverTimeout ||
            R.Kind == DiagKind::ResourceExhausted);
  }
};

struct LadderOutcome {
  /// Final verdict. RetryTier is set to the rung that produced it, and
  /// SolverConflicts / FuelSpent are summed over every rung actually run,
  /// so per-step telemetry reflects total verification work.
  VerifyResult Result;
  std::vector<RetryTierOutcome> Tiers; ///< one entry per rung run
  bool Escalated = false; ///< more than one rung was needed
  unsigned CacheHits = 0; ///< rungs served by the cache
  unsigned Computed = 0;  ///< rungs verified by this call
};

/// Run the ladder for \p C against \p Src (\p SrcText is its printed form,
/// the stable cache key) over the encodings \p GetSC provides. Emits
/// no verify.tier / verify.retry.* telemetry: that is recorded once per
/// verification request, by the caller (recordLadderTelemetry).
LadderOutcome runLadder(const LadderOptions &L, const std::string &SrcText,
                        const Function &Src, const Candidate &C,
                        const EncodingProvider &GetSC);

/// The per-request telemetry: one verify.tier instant per rung and the
/// verify.retry.* counters.
void recordLadderTelemetry(const LadderOutcome &O);

/// The fresh-encoding front door (the test oracle): parse \p TgtText, run
/// the ladder with a private encoding per rung, and record its telemetry.
LadderOutcome verifyWithLadder(const LadderOptions &L,
                               const std::string &SrcText,
                               const Function &Src,
                               const std::string &TgtText);

/// Verify every candidate in \p Cands against \p Src through one shared
/// SourceEncoding, built on first need. Canonically equal candidates run
/// one ladder; unique ones fan out over \p Pool when it has more than one
/// thread. Returns one outcome per request, aligned with \p Cands. Records
/// no per-request telemetry (see runLadder); the group's reuse accounting
/// (requests, unique candidates, cached and computed rungs) goes to the
/// batch.* counters and the batch.verify span.
std::vector<LadderOutcome>
verifyGroup(const LadderOptions &L, const std::string &SrcText,
            const Function &Src, const std::vector<const Candidate *> &Cands,
            ThreadPool *Pool = nullptr);

} // namespace veriopt

#endif // VERIOPT_VERIFY_LADDER_H
