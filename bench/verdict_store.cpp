//===- verdict_store.cpp - Cold vs warm persistent verdict replay ----------===//
//
// Measures the VerdictStore tentpole on the bench's standard validation
// corpus, two ways:
//
//  1. Differential gate: evaluation against a cold store, against a warm
//     (reopened) store, and with no store at all must be bit-identical to
//     the serial oracle evaluateModel() at every shard/thread
//     configuration. Exits nonzero on any divergence, so CI runs `--tiny`
//     as a cheap correctness gate.
//
//  2. Wall clock on the repeated-run workload: the pipeline re-evaluates
//     the same corpus once per checkpoint cadence, ablation row, and fleet
//     restart — each a *fresh process* whose in-memory VerifyCache starts
//     empty. Without a store every run re-verifies from scratch; with one,
//     every run after the first replays journaled verdicts. Each timed
//     pass therefore uses a fresh private cache (simulating a new process)
//     and only the journal carries state across passes. The ≥1.5x target
//     (skipped in --tiny) compares N store-less runs to N warm-store runs.
//
// Reported in EXPERIMENTS.md.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "store/VerdictStore.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace veriopt;
using namespace veriopt::bench;

namespace {

double wallMs(const std::function<void()> &Fn) {
  auto T0 = std::chrono::steady_clock::now();
  Fn();
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(T1 - T0).count();
}

struct ScratchJournal {
  std::string Path;
  ScratchJournal() {
    const char *T = std::getenv("TMPDIR");
    Path = std::string(T ? T : "/tmp") + "/veriopt_bench_store_" +
           std::to_string(::getpid()) + ".journal";
    cleanup();
  }
  ~ScratchJournal() { cleanup(); }
  void cleanup() {
    std::remove(Path.c_str());
    std::remove((Path + ".lock").c_str());
  }
};

} // namespace

int main(int Argc, char **Argv) {
  const bool Tiny = Argc > 1 && std::strcmp(Argv[1], "--tiny") == 0;

  header("Persistent verdict store: store-less vs warm replay",
         "the persistence tentpole; not a paper figure");

  DatasetOptions DO = benchDataset();
  DO.TrainCount = 0;
  if (Tiny)
    DO.ValidCount = 12;
  Dataset DS = buildDataset(DO);
  RewritePolicyModel Base(presetQwen3B());

  const unsigned Evals = Tiny ? 2 : 5;
  const unsigned HW = std::max(1u, std::thread::hardware_concurrency());
  // Tiny mode feeds the committed bench-regression baselines: the thread
  // count shows up in BENCH json, so it must not vary with the machine CI
  // lands on.
  const unsigned Threads = Tiny ? 2 : std::min(4u, HW);
  std::printf("%zu validation samples, base policy, greedy decoding, "
              "workload = %u independent evaluation runs, %u worker "
              "threads\n\n",
              DS.Valid.size(), Evals, Threads);

  // Serial reference for every bit-identity check below.
  EvalResult Oracle = evaluateModel(Base, DS.Valid, PromptMode::Generic);

  ScratchJournal Journal;
  ThreadPool Pool(Threads);
  unsigned Divergent = 0;

  auto runOnce = [&](VerdictBackingTier *Tier) {
    // Fresh private VerifyCache per call: each timed pass models a fresh
    // process, so only the journal may carry verdicts between passes.
    EvalOptions EO;
    EO.Shards = 2 * Threads;
    EO.Pool = &Pool;
    EO.VerdictTier = Tier;
    EvalResult R = evaluateModelSharded(Base, DS.Valid, PromptMode::Generic,
                                        VerifyOptions(), EO);
    Divergent += countResultDivergence(Oracle, R);
  };

  // Arm 1: no store. Every run re-verifies the whole corpus from scratch.
  double NoStoreMs = wallMs([&] {
    for (unsigned E = 0; E < Evals; ++E)
      runOnce(nullptr);
  });

  // Arm 2: the cold run — the one process that pays verification once and
  // journals every deterministic verdict on the way out.
  uint64_t ColdWrites = 0, LiveAfterCold = 0;
  double ColdMs = wallMs([&] {
    std::string Err;
    std::unique_ptr<VerdictStore> Store = VerdictStore::open(Journal.Path,
                                                             &Err);
    if (!Store) {
      std::printf("store open FAILED: %s\n", Err.c_str());
      ++Divergent;
      return;
    }
    runOnce(Store.get());
    if (!Store->flush(&Err)) {
      std::printf("store flush FAILED: %s\n", Err.c_str());
      ++Divergent;
    }
    ColdWrites = Store->stats().Writes;
    LiveAfterCold = Store->size();
  });

  // Arm 3: warm replay — every subsequent run reopens the journal and
  // serves verification from it instead of the solver.
  uint64_t WarmHits = 0, WarmMisses = 0, Quarantined = 0;
  double WarmMs = wallMs([&] {
    std::string Err;
    std::unique_ptr<VerdictStore> Store = VerdictStore::open(Journal.Path,
                                                             &Err);
    if (!Store) {
      std::printf("store reopen FAILED: %s\n", Err.c_str());
      ++Divergent;
      return;
    }
    for (unsigned E = 0; E < Evals; ++E)
      runOnce(Store.get());
    VerdictStore::Stats St = Store->stats();
    WarmHits = St.Hits;
    WarmMisses = St.Misses;
    Quarantined = St.Quarantined;
  });

  double Speedup = WarmMs > 0 ? NoStoreMs / WarmMs : 0;
  std::printf("no store          x%u             %8.1f ms\n", Evals,
              NoStoreMs);
  std::printf("cold store        x1             %8.1f ms  (%llu verdicts "
              "journaled)\n",
              ColdMs, static_cast<unsigned long long>(ColdWrites));
  std::printf("warm store        x%u             %8.1f ms  (%.2fx, %llu "
              "hits / %llu misses)%s\n",
              Evals, WarmMs, Speedup,
              static_cast<unsigned long long>(WarmHits),
              static_cast<unsigned long long>(WarmMisses),
              Divergent ? "  DIVERGED" : "");

  // The warm arm replaying nothing would silently degrade into Arm 1; that
  // is a correctness bug in the store, not a slow machine.
  if (WarmHits == 0) {
    std::printf("warm store served ZERO hits\n");
    ++Divergent;
  }

  // Differential sweep (untimed): warm-store evaluations across shard and
  // thread configurations, each bit-identical to the serial oracle. The
  // plain row runs the plain-verifier shard arm, which never consults the
  // store, and must still match the oracle.
  struct Config {
    const char *Label;
    unsigned Shards, Threads;
    bool Plain;
  };
  const std::vector<Config> Configs = {
      {"warm, 1 shard, 1 thread", 1, 1, false},
      {"warm, 3 shards, 1 thread", 3, 1, false},
      {"warm, 8 shards, 4 threads", 8, 4, false},
      {"warm, 8 shards, 4 threads, plain", 8, 4, true},
  };
  {
    std::string Err;
    std::unique_ptr<VerdictStore> Store = VerdictStore::open(Journal.Path,
                                                             &Err);
    if (!Store) {
      std::printf("store reopen FAILED: %s\n", Err.c_str());
      ++Divergent;
    }
    for (const Config &C : Configs) {
      ThreadPool P(C.Threads);
      EvalResult R;
      if (C.Plain) {
        auto Plan = planEvalShards(DS.Valid.size(), C.Shards);
        std::vector<ShardEvalResult> Shards(Plan.size());
        P.parallelFor(Plan.size(), [&](size_t I) {
          Shards[I] = evaluateEvalShard(Base, DS.Valid, PromptMode::Generic,
                                        VerifyOptions(), Plan[I]);
        });
        R = mergeShardResults(Base.config().Name, std::move(Shards));
      } else {
        EvalOptions EO;
        EO.Shards = C.Shards;
        EO.Pool = &P;
        EO.VerdictTier = Store ? Store.get() : nullptr;
        R = evaluateModelSharded(Base, DS.Valid, PromptMode::Generic,
                                 VerifyOptions(), EO);
      }
      unsigned D = countResultDivergence(Oracle, R);
      Divergent += D;
      std::printf("%-38s %s\n", C.Label, D ? "DIVERGED" : "bit-identical");
    }
  }

  std::printf("\nresults: %s; repeated-run warm speedup %.2fx\n",
              Divergent ? "DIVERGED (correctness bug)" : "bit-identical",
              Speedup);

  MetricsRegistry &M = MetricsRegistry::global();
  M.gauge("bench.nostore_ms").set(NoStoreMs);
  M.gauge("bench.cold_ms").set(ColdMs);
  M.gauge("bench.warm_ms").set(WarmMs);
  M.gauge("bench.evals").set(Evals);
  M.gauge("bench.threads").set(Threads);
  M.gauge("bench.speedup").set(Speedup);
  M.gauge("bench.store_records").set(LiveAfterCold);
  M.gauge("bench.store_quarantined").set(Quarantined);
  M.gauge("bench.divergent_fields").set(Divergent);
  writeBenchJson("verdict_store");

  if (Divergent)
    return 1;
  // Tiny mode is the CI differential gate only; wall-clock on a loaded CI
  // box is not a meaningful speedup measurement.
  if (!Tiny && Speedup < 1.5) {
    std::printf("SPEEDUP TARGET MISSED\n");
    return 1;
  }
  return 0;
}
