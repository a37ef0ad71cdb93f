//===- parallel_scoring.cpp - GRPO verify + score hot-path bench ---------===//
//
// Measures the verification-dominated hot path of runTrainingPipeline —
// group verification of each prompt's rollouts, then reward scoring —
// serial vs. threaded vs. memoized, and checks the determinism guarantee:
// identical reward trajectories across all configurations. Reported in
// EXPERIMENTS.md.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "verify/VerifyCache.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

using namespace veriopt;
using namespace veriopt::bench;

namespace {

struct RunResult {
  std::vector<TrainLogEntry> Logs;
  double TrainWallMs = 0; ///< verification + scoring + update, all steps
  VerifyCache::Counters Cache;
  /// Verification work this run computed (cache hits compute nothing).
  uint64_t FalsifyWins = 0;
  uint64_t SolverConflicts = 0;
};

/// A registry counter's value, without registering it when absent (a read
/// must not add keys to BENCH_parallel_scoring.json).
uint64_t counterValue(const char *Name) {
  auto Counters = MetricsRegistry::global().snapshot().Counters;
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0 : It->second;
}

RunResult run(const Dataset &DS, unsigned Threads, size_t CacheCapacity,
              unsigned Steps) {
  RunResult Out;
  RewritePolicyModel Model(presetQwen3B());
  std::unique_ptr<VerifyCache> Cache;
  if (CacheCapacity)
    Cache = std::make_unique<VerifyCache>(CacheCapacity);

  ThreadPool Pool(Threads);
  GRPOOptions G;
  G.Seed = 7;
  G.Pool = &Pool;
  G.Verify.Base = PipelineOptions::trainVerifyDefaults();
  G.Verify.MaxTiers = 1;
  G.Verify.Cache = Cache.get();
  GRPOTrainer Trainer(Model, makeAnswerReward(), G);
  const uint64_t Wins0 = counterValue("verify.falsify_wins");
  const uint64_t Conflicts0 = counterValue("smt.conflicts");
  auto T0 = std::chrono::steady_clock::now();
  Out.Logs = Trainer.train(DS.Train, Steps);
  Out.TrainWallMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - T0)
                        .count();

  Out.FalsifyWins = counterValue("verify.falsify_wins") - Wins0;
  Out.SolverConflicts = counterValue("smt.conflicts") - Conflicts0;
  if (Cache)
    Out.Cache = Cache->counters();
  return Out;
}

bool sameTrajectory(const RunResult &A, const RunResult &B) {
  if (A.Logs.size() != B.Logs.size())
    return false;
  for (size_t I = 0; I < A.Logs.size(); ++I)
    if (A.Logs[I].MeanReward != B.Logs[I].MeanReward ||
        A.Logs[I].EquivalentRate != B.Logs[I].EquivalentRate ||
        A.Logs[I].CopyRate != B.Logs[I].CopyRate ||
        A.Logs[I].GradNorm != B.Logs[I].GradNorm)
      return false;
  return true;
}

void row(const char *Name, const RunResult &R, double BaselineMs) {
  std::printf("%-28s %9.1f ms   %5.2fx   hit-rate %5.1f%%   falsify-wins "
              "%4llu   conflicts %8llu\n",
              Name, R.TrainWallMs, BaselineMs / R.TrainWallMs,
              100.0 * R.Cache.hitRate(),
              static_cast<unsigned long long>(R.FalsifyWins),
              static_cast<unsigned long long>(R.SolverConflicts));
}

} // namespace

int main(int Argc, char **Argv) {
  // Tiny mode: the CI determinism + bench-regression gate. Small fixed
  // corpus, fixed thread counts — every deterministic instrument in the
  // BENCH json must reproduce bit-for-bit across machines.
  const bool Tiny = Argc > 1 && std::strcmp(Argv[1], "--tiny") == 0;

  header("GRPO verify + score wall clock: serial vs. threads vs. verify "
         "cache",
         "the parallel-scoring tentpole; not a paper figure");

  DatasetOptions D;
  D.TrainCount = Tiny ? 4 : 16 * scale();
  D.ValidCount = 0;
  D.Seed = 2026;
  Dataset DS = buildDataset(D);
  unsigned Steps = Tiny ? 6 : 30 * scale();
  std::printf("corpus %zu prompts, %u steps, group 8 x 4 prompts/step\n\n",
              DS.Train.size(), Steps);

  RunResult Serial = run(DS, /*Threads=*/1, /*CacheCapacity=*/0, Steps);
  RunResult Cached = run(DS, /*Threads=*/1, /*CacheCapacity=*/4096, Steps);
  RunResult Threaded = run(DS, /*Threads=*/4, /*CacheCapacity=*/0, Steps);
  RunResult Both = run(DS, /*Threads=*/4, /*CacheCapacity=*/4096, Steps);

  row("serial, no cache", Serial, Serial.TrainWallMs);
  row("serial + cache", Cached, Serial.TrainWallMs);
  row("4 threads, no cache", Threaded, Serial.TrainWallMs);
  row("4 threads + cache", Both, Serial.TrainWallMs);

  bool Det = sameTrajectory(Serial, Cached) &&
             sameTrajectory(Serial, Threaded) && sameTrajectory(Serial, Both);
  std::printf("\ndeterminism (identical reward/equivalence trajectories "
              "across all configs): %s\n",
              Det ? "OK" : "VIOLATED");

  // Headline numbers, published into the shared BENCH_*.json schema.
  MetricsRegistry &M = MetricsRegistry::global();
  auto publish = [&](const char *Key, const RunResult &R) {
    M.gauge(std::string("bench.train_wall_ms.") + Key).set(R.TrainWallMs);
    M.gauge(std::string("bench.speedup.") + Key)
        .set(Serial.TrainWallMs / R.TrainWallMs);
    M.gauge(std::string("bench.cache_hit_rate.") + Key).set(R.Cache.hitRate());
  };
  publish("serial", Serial);
  publish("serial_cache", Cached);
  publish("threads4", Threaded);
  publish("threads4_cache", Both);
  M.gauge("bench.determinism_ok").set(Det ? 1 : 0);
  writeBenchJson("parallel_scoring");
  return Det ? 0 : 1;
}
