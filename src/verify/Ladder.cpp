//===- Ladder.cpp - The escalating-budget verification ladder -------------===//

#include "verify/Ladder.h"

#include "support/ThreadPool.h"
#include "trace/Metrics.h"
#include "trace/Trace.h"

#include <mutex>
#include <string_view>
#include <unordered_map>

namespace veriopt {

namespace {

/// Scale a budget by Growth^Tier, saturating instead of overflowing.
/// 0 means "unlimited" and stays 0.
uint64_t scaleBudget(uint64_t Budget, uint64_t Growth, unsigned Tier) {
  if (Budget == 0 || Growth <= 1)
    return Budget;
  for (unsigned I = 0; I < Tier; ++I) {
    if (Budget > UINT64_MAX / Growth)
      return UINT64_MAX;
    Budget *= Growth;
  }
  return Budget;
}

} // namespace

VerifyOptions LadderOptions::tierOptions(unsigned Tier) const {
  VerifyOptions T = Base;
  T.SolverConflictBudget = scaleBudget(T.SolverConflictBudget, BudgetGrowth,
                                       Tier);
  T.FuelBudget = scaleBudget(T.FuelBudget, BudgetGrowth, Tier);
  return T;
}

LadderOutcome runLadder(const LadderOptions &L, const std::string &SrcText,
                        const Function &Src, const Candidate &C,
                        const EncodingProvider &GetSC) {
  LadderOutcome Out;
  const unsigned MaxTiers = L.MaxTiers ? L.MaxTiers : 1;
  uint64_t TotalConflicts = 0, TotalFuel = 0;
  VerifyResult Final;
  for (unsigned Tier = 0; Tier < MaxTiers; ++Tier) {
    const VerifyOptions TierOpts = L.tierOptions(Tier);
    auto Compute = [&] { return verifyCandidateOn(GetSC, Src, C, TierOpts); };
    bool Computed = true;
    VerifyResult R =
        L.Cache ? L.Cache->lookupOrCompute(
                      VerifyCache::makeKey(SrcText, C, TierOpts), Compute,
                      &Computed)
                : Compute();
    ++(Computed ? Out.Computed : Out.CacheHits);

    Out.Tiers.push_back(
        {Tier, R.Status, R.Kind, R.SolverConflicts, R.FuelSpent});
    TotalConflicts += R.SolverConflicts;
    TotalFuel += R.FuelSpent;
    Final = std::move(R);
    Final.RetryTier = Tier;
    if (!LadderOptions::retryable(Final))
      break;
  }
  Out.Escalated = Out.Tiers.size() > 1;

  Final.SolverConflicts = TotalConflicts;
  Final.FuelSpent = TotalFuel;
  Out.Result = std::move(Final);
  return Out;
}

void recordLadderTelemetry(const LadderOutcome &O) {
  TraceRecorder &TR = TraceRecorder::instance();
  for (const RetryTierOutcome &T : O.Tiers)
    TR.instant("verify.tier",
               {TraceArg::ofInt("tier", T.Tier),
                TraceArg::ofStr("status", verifyStatusName(T.Status)),
                TraceArg::ofStr("diag", diagKindName(T.Kind)),
                TraceArg::ofInt("conflicts",
                                static_cast<int64_t>(T.SolverConflicts)),
                TraceArg::ofInt("fuel", static_cast<int64_t>(T.FuelSpent))});

  MetricsRegistry &Reg = MetricsRegistry::global();
  static Counter &MQueries = Reg.counter("verify.retry.queries");
  static Counter &MEscalations = Reg.counter("verify.retry.escalations");
  static Counter &MRescued = Reg.counter("verify.retry.rescued");
  static Counter &MTerminal =
      Reg.counter("verify.retry.terminal_inconclusive");
  MQueries.inc();
  const bool Terminal = LadderOptions::retryable(O.Result);
  if (O.Escalated)
    MEscalations.inc();
  if (Terminal)
    MTerminal.inc();
  else if (O.Escalated)
    MRescued.inc();
}

LadderOutcome verifyWithLadder(const LadderOptions &L,
                               const std::string &SrcText,
                               const Function &Src,
                               const std::string &TgtText) {
  LadderOutcome Out = runLadder(L, SrcText, Src, Candidate(TgtText), nullptr);
  recordLadderTelemetry(Out);
  return Out;
}

std::vector<LadderOutcome>
verifyGroup(const LadderOptions &L, const std::string &SrcText,
            const Function &Src, const std::vector<const Candidate *> &Cands,
            ThreadPool *Pool) {
  TraceSpan Span("batch.verify");

  // Canonical dedupe: GRPO's small action space makes byte- or
  // renaming-identical candidates common within a group; they share every
  // per-tier cache key, so one ladder serves all of them.
  std::vector<size_t> UniqueOf(Cands.size());
  std::vector<const Candidate *> Unique;
  {
    std::unordered_map<std::string_view, size_t> Seen;
    for (size_t I = 0; I < Cands.size(); ++I) {
      auto [It, Inserted] = Seen.emplace(Cands[I]->Canon, Unique.size());
      if (Inserted)
        Unique.push_back(Cands[I]);
      UniqueOf[I] = It->second;
    }
  }

  // The shared source half is built on first need: a group whose every
  // rung is cached, or whose candidates all fail the guard chain, never
  // pays for it.
  std::unique_ptr<SourceEncoding> SC;
  std::once_flag SCOnce;
  EncodingProvider Shared = [&]() -> SourceEncoding * {
    std::call_once(SCOnce,
                   [&] { SC = buildSourceEncoding(Src, L.tierOptions(0)); });
    return SC.get();
  };

  // One task per unique candidate: its full ladder runs on one thread, so
  // per-candidate trace spans stay contiguous.
  std::vector<LadderOutcome> Outs(Unique.size());
  auto RunOne = [&](size_t U) {
    Outs[U] = runLadder(L, SrcText, Src, *Unique[U], Shared);
  };
  if (Pool && Pool->numThreads() > 1)
    Pool->parallelFor(Unique.size(), RunOne);
  else
    for (size_t U = 0; U < Unique.size(); ++U)
      RunOne(U);

  const unsigned NumCands = static_cast<unsigned>(Cands.size());
  const unsigned NumUnique = static_cast<unsigned>(Unique.size());
  unsigned NumCached = 0, NumComputed = 0;
  for (const LadderOutcome &O : Outs) {
    NumCached += O.CacheHits;
    NumComputed += O.Computed;
  }

  MetricsRegistry &M = MetricsRegistry::global();
  static Counter &Groups = M.counter("batch.groups");
  static Counter &Candidates = M.counter("batch.candidates");
  static Counter &Uniq = M.counter("batch.unique");
  static Counter &CacheHits = M.counter("batch.cache_hits");
  static Counter &Computed = M.counter("batch.computed");
  Groups.inc();
  Candidates.inc(NumCands);
  Uniq.inc(NumUnique);
  CacheHits.inc(NumCached);
  Computed.inc(NumComputed);

  if (Span.active()) {
    Span.arg(TraceArg::ofInt("candidates", NumCands));
    Span.arg(TraceArg::ofInt("unique", NumUnique));
    Span.arg(TraceArg::ofInt("cached", NumCached));
    Span.arg(TraceArg::ofInt("computed", NumComputed));
  }

  std::vector<LadderOutcome> Aligned(Cands.size());
  for (size_t I = 0; I < Cands.size(); ++I)
    Aligned[I] = Outs[UniqueOf[I]];
  return Aligned;
}

} // namespace veriopt
