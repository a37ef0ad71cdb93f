//===- RunReport.cpp - Single-run report rendering ----------------------------//

#include "report/RunReport.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace veriopt {

namespace {

std::string fmt(const char *F, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), F, V);
  return Buf;
}

/// Downsample \p Ys to \p Cols columns and render one ASCII row.
std::string sparkline(const std::vector<double> &Ys, size_t Cols = 48) {
  static const char Levels[] = " .:-=+*#@";
  const size_t NL = sizeof(Levels) - 2; // top index
  if (Ys.empty())
    return "";
  double Lo = Ys[0], Hi = Ys[0];
  for (double Y : Ys) {
    Lo = std::min(Lo, Y);
    Hi = std::max(Hi, Y);
  }
  size_t N = std::min(Cols, Ys.size());
  std::string Out;
  for (size_t C = 0; C < N; ++C) {
    // Mean of this column's slice.
    size_t B = C * Ys.size() / N, E = (C + 1) * Ys.size() / N;
    double Acc = 0;
    for (size_t I = B; I < E; ++I)
      Acc += Ys[I];
    Acc /= static_cast<double>(E - B);
    size_t Idx =
        Hi > Lo ? static_cast<size_t>((Acc - Lo) / (Hi - Lo) * NL + 0.5)
                : NL / 2;
    Out.push_back(Levels[std::min(Idx, NL)]);
  }
  return Out;
}

} // namespace

std::string renderRunReport(const RunSummary &S, unsigned TopN) {
  std::ostringstream OS;

  OS << "================================================================\n"
     << "LLM-VeriOpt run report\n"
     << "================================================================\n\n";

  //--- Run summary ----------------------------------------------------------
  OS << "-- events --------------------------------------------------------\n";
  OS << "total " << S.Events << "  (spans " << S.Spans << ", counters "
     << S.Counters << ", instants " << S.Instants << ")\n";
  {
    std::vector<std::pair<std::string, RunSummary::SpanAgg>> Rows(
        S.SpansByName.begin(), S.SpansByName.end());
    std::stable_sort(Rows.begin(), Rows.end(),
                     [](const auto &A, const auto &B) {
                       return A.second.TotalMs > B.second.TotalMs;
                     });
    for (const auto &[SpanName, Agg] : Rows)
      OS << "  " << SpanName
         << std::string(SpanName.size() < 24 ? 24 - SpanName.size() : 1, ' ')
         << "x" << Agg.Count << "  total " << fmt("%.1f", Agg.TotalMs)
         << " ms\n";
  }
  OS << "\n";

  //--- Per-stage reward curves ----------------------------------------------
  OS << "-- GRPO reward curves (per stage) --------------------------------\n";
  if (S.Stages.empty())
    OS << "no grpo.step events in this trace\n";
  for (const auto &[Stage, Steps] : S.Stages) {
    std::vector<double> Ema, Mean;
    for (const RunSummary::StepRow &R : Steps) {
      Ema.push_back(R.Ema);
      Mean.push_back(R.Mean);
    }
    const RunSummary::StepRow &Last = Steps.back();
    OS << Stage << ": " << Steps.size() << " steps, mean reward "
       << fmt("%.3f", Mean.front()) << " -> " << fmt("%.3f", Mean.back())
       << ", final EMA " << fmt("%.3f", Ema.back()) << ", equivalent-rate "
       << fmt("%.1f%%", 100 * Last.EqRate) << "\n";
    OS << "  ema  |" << sparkline(Ema) << "|\n";
    OS << "  mean |" << sparkline(Mean) << "|\n";
  }
  OS << "\n";

  //--- Verdict breakdown ----------------------------------------------------
  OS << "-- verification verdicts (uncached queries, by DiagKind) ---------\n";
  if (S.VerifyQueries == 0) {
    OS << "no verify.candidate events in this trace\n";
  } else {
    OS << "queries: " << S.VerifyQueries << "\n";
    std::vector<std::pair<std::pair<std::string, std::string>, uint64_t>>
        Rows(S.Verdicts.begin(), S.Verdicts.end());
    std::stable_sort(Rows.begin(), Rows.end(),
                     [](const auto &A, const auto &B) {
                       return A.second > B.second;
                     });
    for (const auto &[Key, Count] : Rows) {
      std::string Label = Key.first +
                          (Key.second.empty() || Key.second == "none"
                               ? ""
                               : " / " + Key.second);
      OS << "  " << Label
         << std::string(Label.size() < 36 ? 36 - Label.size() : 1, ' ')
         << Count << "  ("
         << fmt("%.1f%%", 100.0 * static_cast<double>(Count) /
                              static_cast<double>(S.VerifyQueries))
         << ")\n";
    }
  }
  OS << "\n";

  //--- Retry ladder ---------------------------------------------------------
  OS << "-- retry ladder --------------------------------------------------\n";
  if (S.TierOutcomes.empty()) {
    OS << "no verify.tier events in this trace\n";
  } else {
    for (const auto &[Tier, Outcomes] : S.TierOutcomes) {
      uint64_t Total = 0;
      for (const auto &[_, C] : Outcomes)
        Total += C;
      OS << "  tier " << Tier << ": " << Total << " runs";
      for (const auto &[Status, C] : Outcomes)
        OS << "  " << Status << "=" << C;
      OS << "\n";
    }
  }
  OS << "\n";

  //--- Slowest verification queries -----------------------------------------
  OS << "-- slowest verification queries ----------------------------------\n";
  if (S.Candidates.empty()) {
    OS << "none\n";
  } else {
    std::vector<const RunSummary::CandidateRow *> Sorted;
    Sorted.reserve(S.Candidates.size());
    for (const RunSummary::CandidateRow &C : S.Candidates)
      Sorted.push_back(&C);
    std::stable_sort(Sorted.begin(), Sorted.end(),
                     [](const RunSummary::CandidateRow *A,
                        const RunSummary::CandidateRow *B) {
                       return A->DurMs > B->DurMs;
                     });
    size_t N = std::min<size_t>(TopN, Sorted.size());
    for (size_t I = 0; I < N; ++I) {
      const RunSummary::CandidateRow &C = *Sorted[I];
      OS << "  " << (I + 1) << ". " << fmt("%8.2f", C.DurMs) << " ms  "
         << C.Status << "/" << C.Diag << "  conflicts " << C.Conflicts
         << "  fuel " << C.Fuel << "\n";
    }
  }
  OS << "\n";

  //--- Cache efficacy -------------------------------------------------------
  OS << "-- verify-cache efficacy -----------------------------------------\n";
  {
    auto M = [&](const char *K) {
      auto It = S.Metrics.find(K);
      return It == S.Metrics.end() ? 0.0 : It->second;
    };
    double Hits = M("verify.cache.hit"), Misses = M("verify.cache.miss");
    if (Hits + Misses == 0) {
      OS << "no cache metrics in this trace\n";
    } else {
      OS << "  lookups " << static_cast<uint64_t>(Hits + Misses) << "  hits "
         << static_cast<uint64_t>(Hits) << "  misses "
         << static_cast<uint64_t>(Misses) << "  hit-rate "
         << fmt("%.1f%%", 100.0 * Hits / (Hits + Misses)) << "\n";
      OS << "  single-flight joins "
         << static_cast<uint64_t>(M("verify.cache.singleflight_join"))
         << "  evictions " << static_cast<uint64_t>(M("verify.cache.eviction"))
         << "\n";
    }
  }
  OS << "\n";

  //--- Batched verification efficacy ----------------------------------------
  OS << "-- batch verification efficacy -----------------------------------\n";
  {
    auto M = [&](const char *K) {
      auto It = S.Metrics.find(K);
      return It == S.Metrics.end() ? 0.0 : It->second;
    };
    double Groups = M("batch.groups");
    if (Groups == 0) {
      OS << "no batch.* metrics in this trace (no group verification ran)\n";
    } else {
      double Cands = M("batch.candidates"), Uniq = M("batch.unique");
      double Hits = M("batch.cache_hits"), Comp = M("batch.computed");
      OS << "  groups " << static_cast<uint64_t>(Groups) << "  candidates "
         << static_cast<uint64_t>(Cands) << "  unique "
         << static_cast<uint64_t>(Uniq) << "  (dedupe saved "
         << static_cast<uint64_t>(Cands - Uniq) << ")\n";
      OS << "  ladder rungs: computed " << static_cast<uint64_t>(Comp)
         << "  served-from-cache " << static_cast<uint64_t>(Hits) << "\n";
      OS << "  assumption solves "
         << static_cast<uint64_t>(M("smt.assumption_solves"))
         << "  clauses inherited "
         << static_cast<uint64_t>(M("smt.clauses_retained"))
         << "  encode CSE hits "
         << static_cast<uint64_t>(M("encode.cse_hits")) << "\n";
    }
  }
  OS << "\n";

  //--- Verdict store efficacy ----------------------------------------------
  OS << "-- verdict store efficacy ----------------------------------------\n";
  {
    auto M = [&](const char *K) {
      auto It = S.Metrics.find(K);
      return It == S.Metrics.end() ? 0.0 : It->second;
    };
    double Hits = M("store.hits"), Misses = M("store.misses");
    double Writes = M("store.writes");
    if (Hits + Misses + Writes == 0) {
      OS << "no store metrics in this trace (persistent store off)\n";
    } else {
      double Lookups = Hits + Misses;
      OS << "  lookups " << static_cast<uint64_t>(Lookups) << "  hits "
         << static_cast<uint64_t>(Hits) << "  misses "
         << static_cast<uint64_t>(Misses) << "  hit-rate "
         << fmt("%.1f%%", Lookups ? 100.0 * Hits / Lookups : 0.0) << "\n";
      OS << "  new records " << static_cast<uint64_t>(Writes)
         << "  compactions " << static_cast<uint64_t>(M("store.compactions"))
         << "  quarantined lines "
         << static_cast<uint64_t>(M("store.quarantined")) << "\n";
      // Durability-plane row (io.* metrics): only rendered when something
      // actually went wrong, so fault-free golden reports are unchanged.
      double FlushFailures = M("io.store.flush_failures");
      double Degraded = M("io.store.degraded");
      if (FlushFailures || Degraded)
        OS << "  DEGRADED: " << static_cast<uint64_t>(FlushFailures)
           << " flush failures"
           << (Degraded ? " — store tripped to in-memory-only "
                          "(durability lost, results unaffected)"
                        : " (journal retrying)")
           << "\n";
    }
  }
  OS << "\n";

  //--- Sharded evaluation ---------------------------------------------------
  OS << "-- sharded evaluation --------------------------------------------\n";
  if (S.EvalShards.empty()) {
    OS << "no eval.shard events in this trace\n";
  } else {
    for (const RunSummary::EvalRunRow &Run : S.EvalRuns)
      OS << "  run: shards " << Run.Shards << "  samples " << Run.Samples
         << "  correct " << Run.Correct << "  inconclusive "
         << Run.Inconclusive << "  (" << fmt("%.1f", Run.DurMs)
         << " ms total)\n";
    std::vector<const RunSummary::EvalShardRow *> Sorted;
    Sorted.reserve(S.EvalShards.size());
    for (const RunSummary::EvalShardRow &R : S.EvalShards)
      Sorted.push_back(&R);
    std::stable_sort(Sorted.begin(), Sorted.end(),
                     [](const RunSummary::EvalShardRow *A,
                        const RunSummary::EvalShardRow *B) {
                       return A->Shard < B->Shard;
                     });
    for (const RunSummary::EvalShardRow *E : Sorted)
      OS << "  shard " << E->Shard << "  [" << E->Begin << ", " << E->End
         << ")  samples " << E->Samples << "  correct " << E->Correct
         << "  inconclusive " << E->Inconclusive << "  "
         << fmt("%.1f", E->DurMs) << " ms\n";
  }
  OS << "\n";

  //--- Evaluation driver (multi-process) ------------------------------------
  OS << "-- evaluation driver (multi-process) -----------------------------\n";
  if (S.DriverRuns.empty()) {
    OS << "no eval.driver events in this trace\n";
  } else {
    for (const RunSummary::DriverRunRow &Run : S.DriverRuns)
      OS << "  run: shards " << Run.Shards << "  spawned " << Run.Spawned
         << "  retried " << Run.Retried << "  salvaged " << Run.Salvaged
         << "  quarantined " << Run.Quarantined << "  ("
         << fmt("%.1f", Run.DurMs) << " ms total)\n";
    // Worker launches bucketed by typed outcome: the fleet's failure mix
    // at a glance.
    for (const auto &[Outcome, Count] : S.WorkerOutcomes)
      OS << "  workers " << Outcome
         << std::string(Outcome.size() < 24 ? 24 - Outcome.size() : 1, ' ')
         << Count << "\n";
  }
  OS << "\n";

  //--- InstCombine rule fires -----------------------------------------------
  OS << "-- instcombine rule fires ----------------------------------------\n";
  if (S.RuleFires.empty()) {
    OS << "no opt.rule_fire.* metrics in this trace\n";
  } else {
    std::vector<std::pair<std::string, uint64_t>> Rows(S.RuleFires.begin(),
                                                       S.RuleFires.end());
    std::stable_sort(Rows.begin(), Rows.end(),
                     [](const auto &A, const auto &B) {
                       return A.second > B.second;
                     });
    size_t N = std::min<size_t>(TopN, Rows.size());
    for (size_t I = 0; I < N; ++I)
      OS << "  " << Rows[I].first
         << std::string(Rows[I].first.size() < 28 ? 28 - Rows[I].first.size()
                                                  : 1,
                        ' ')
         << Rows[I].second << "\n";
  }

  return OS.str();
}

std::string renderRunReport(const TraceLog &Log, unsigned TopN) {
  return renderRunReport(aggregateRun(Log), TopN);
}

} // namespace veriopt
