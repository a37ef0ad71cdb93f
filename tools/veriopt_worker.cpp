//===- veriopt_worker.cpp - One-shard evaluation worker ---------------------===//
//
// The unit the crash-tolerant driver supervises: load one shard from a
// manifest, rebuild the deterministic validation corpus, evaluate the
// shard, and atomically+durably write shard_<index>.json into --out. The
// driver decides everything else (retry, backoff, quarantine) from this
// process's typed exit status and the validity of the result file.
//
//   veriopt-worker --manifest plan.json --shard 2 --out results/
//                  [--valid-count N] [--dataset-seed S] [--attempt K]
//                  [--verdict-store PATH]
//
// With --verdict-store the worker verifies through evaluation's
// EvalVerifier, whose private VerifyCache is backed by the shared durable
// VerdictStore (docs/PERSISTENCE.md): warm verdicts are replayed instead of
// recomputed and fresh ones are journaled for the rest of the fleet.
// Results are bit-identical with or without the store (deterministic
// verification).
//
// Typed exit codes (the supervisor's failure taxonomy):
//   0  result written and valid
//   2  usage error
//   3  manifest unreadable or malformed
//   4  shard index not present in the manifest
//   5  result file could not be written
//
// Numeric values are decimal, 0x-hex or 0-octal; anything else (a sign, a
// trailing character, an out-of-range value) is a usage error.
//
// Chaos-test fault injection (all routed through the seeded FaultInjector
// worker sites so injections are counted and deterministic):
//   --inject-crash-shard I     abort() while evaluating shard I
//   --inject-hang-shard I      hang shard I until the driver's deadline
//   --inject-corrupt-result I  write a torn/garbage result file, exit 0
//   --inject-flaky-shard I     crash shard I on attempt 1 only (retry must
//                              salvage it)
//   --fault-seed S             FaultInjector seed (default 0xFA11)
//   --chaos-io RATE%%          install FaultyIoEnv over the process's whole
//                              I/O seam: every open/write/fsync/rename/
//                              flock this worker performs can fail with a
//                              shaped errno at RATE/100 probability,
//                              deterministically in (seed, path, op
//                              ordinal). The seed is mixed with --attempt
//                              so a retried shard sees an independent
//                              fault pattern — transient disk failures are
//                              salvageable, exactly like real ones.
//   --chaos-io-seed S          base seed for --chaos-io (default
//                              --fault-seed)
//
//===----------------------------------------------------------------------===//

#include "pipeline/Evaluation.h"
#include "store/VerdictStore.h"
#include "support/AtomicFile.h"
#include "support/CommandLine.h"
#include "support/FaultInjector.h"
#include "support/IoEnv.h"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

using namespace veriopt;

namespace {

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s --manifest <plan.json> --shard <index> --out <dir>\n"
      "          [--valid-count N] [--dataset-seed S] [--attempt K]\n"
      "          [--verdict-store PATH]\n"
      "          [--inject-crash-shard I] [--inject-hang-shard I]\n"
      "          [--inject-corrupt-result I] [--inject-flaky-shard I]\n"
      "          [--fault-seed S] [--chaos-io RATE%%] [--chaos-io-seed S]\n",
      Argv0);
  return 2;
}

bool contains(const std::vector<unsigned> &V, unsigned X) {
  for (unsigned E : V)
    if (E == X)
      return true;
  return false;
}

} // namespace

int main(int argc, char **argv) {
  std::string ManifestPath, OutDir, StorePath;
  int ShardIdx = -1;
  unsigned ValidCount = 24, Attempt = 1, ChaosIoPct = 0;
  uint64_t DatasetSeed = 2026, FaultSeed = 0xFA11, ChaosIoSeed = 0;
  bool ChaosIoSeedSet = false;
  std::vector<unsigned> CrashShards, HangShards, CorruptShards, FlakyShards;

  auto valArg = [&](int &I, const char *Name, const char **Out) {
    if (std::strcmp(argv[I], Name) != 0 || I + 1 >= argc)
      return false;
    *Out = argv[++I];
    return true;
  };
  auto shardList = [](const char *V, std::vector<unsigned> &List) {
    unsigned Idx = 0;
    if (!parseUnsignedArg(V, Idx))
      return false;
    List.push_back(Idx);
    return true;
  };
  for (int I = 1; I < argc; ++I) {
    const char *V = nullptr;
    bool Ok = true;
    if (valArg(I, "--manifest", &V))
      ManifestPath = V;
    else if (valArg(I, "--out", &V))
      OutDir = V;
    else if (valArg(I, "--verdict-store", &V))
      StorePath = V;
    else if (valArg(I, "--shard", &V))
      Ok = parseUnsignedArg(V, ShardIdx, 0, INT_MAX);
    else if (valArg(I, "--valid-count", &V))
      Ok = parseUnsignedArg(V, ValidCount);
    else if (valArg(I, "--dataset-seed", &V))
      Ok = parseUnsignedArg(V, DatasetSeed);
    else if (valArg(I, "--attempt", &V))
      Ok = parseUnsignedArg(V, Attempt);
    else if (valArg(I, "--fault-seed", &V))
      Ok = parseUnsignedArg(V, FaultSeed);
    else if (valArg(I, "--chaos-io", &V))
      Ok = parseUnsignedArg(V, ChaosIoPct, 0, 100);
    else if (valArg(I, "--chaos-io-seed", &V))
      Ok = ChaosIoSeedSet = parseUnsignedArg(V, ChaosIoSeed);
    else if (valArg(I, "--inject-crash-shard", &V))
      Ok = shardList(V, CrashShards);
    else if (valArg(I, "--inject-hang-shard", &V))
      Ok = shardList(V, HangShards);
    else if (valArg(I, "--inject-corrupt-result", &V))
      Ok = shardList(V, CorruptShards);
    else if (valArg(I, "--inject-flaky-shard", &V))
      Ok = shardList(V, FlakyShards);
    else
      Ok = false;
    if (!Ok)
      return usage(argv[0]);
  }
  if (ManifestPath.empty() || OutDir.empty() || ShardIdx < 0)
    return usage(argv[0]);

  std::vector<EvalShard> Plan;
  {
    std::ifstream IS(ManifestPath, std::ios::binary);
    if (!IS) {
      std::fprintf(stderr, "veriopt-worker: cannot open manifest %s\n",
                   ManifestPath.c_str());
      return 3;
    }
    std::ostringstream SS;
    SS << IS.rdbuf();
    std::string Err;
    if (!shardManifestFromJson(SS.str(), Plan, &Err)) {
      std::fprintf(stderr, "veriopt-worker: malformed manifest: %s\n",
                   Err.c_str());
      return 3;
    }
  }
  const EvalShard *Shard = nullptr;
  for (const EvalShard &S : Plan)
    if (S.Index == static_cast<unsigned>(ShardIdx))
      Shard = &S;
  if (!Shard) {
    std::fprintf(stderr, "veriopt-worker: shard %d not in manifest (%zu "
                 "shards)\n",
                 ShardIdx, Plan.size());
    return 4;
  }

  // Whole-process I/O chaos: every syscall the durable subsystems make
  // (store journal appends, lock files, the atomic result write) can fail
  // with a shaped errno. Deterministic in (seed, path, per-path ordinal),
  // and the seed is mixed with the attempt number so the driver's retries
  // see an independent fault pattern — a transiently failing disk, not a
  // permanently cursed file.
  std::unique_ptr<FaultInjector> IoFI;
  std::unique_ptr<FaultyIoEnv> IoFaults;
  std::unique_ptr<ScopedIoEnv> IoInstall;
  if (ChaosIoPct > 0) {
    const uint64_t Base = ChaosIoSeedSet ? ChaosIoSeed : FaultSeed;
    IoFI = std::make_unique<FaultInjector>(
        Base + 0x9e3779b97f4a7c15ULL * Attempt);
    armIoFaults(*IoFI, static_cast<double>(ChaosIoPct) / 100.0);
    IoFaults = std::make_unique<FaultyIoEnv>(*IoFI);
    IoInstall = std::make_unique<ScopedIoEnv>(IoFaults.get());
    std::fprintf(stderr,
                 "veriopt-worker: chaos-io armed at %u%% (seed 0x%llx, "
                 "attempt %u)\n",
                 ChaosIoPct, static_cast<unsigned long long>(Base),
                 Attempt);
  }

  // Chaos faults, routed through the seeded injector sites so they are
  // deterministic, counted, and share the production fault taxonomy. The
  // flags arm a site at rate 1.0 for the named shard; the decision is
  // still shouldInject(site, shard) so counters see it.
  FaultInjector FI(FaultSeed);
  const unsigned Idx = Shard->Index;
  const bool Flaky = contains(FlakyShards, Idx) && Attempt == 1;
  if (contains(CrashShards, Idx) || Flaky)
    FI.enable(FaultSite::WorkerCrash, 1.0);
  if (contains(HangShards, Idx))
    FI.enable(FaultSite::WorkerHang, 1.0);
  if (contains(CorruptShards, Idx))
    FI.enable(FaultSite::WorkerCorrupt, 1.0);

  if (FI.shouldInject(FaultSite::WorkerHang, Idx)) {
    std::fprintf(stderr, "veriopt-worker: injected hang on shard %u\n", Idx);
    for (;;)
      ::pause(); // until the supervisor's SIGKILL escalation
  }
  if (FI.shouldInject(FaultSite::WorkerCrash, Idx)) {
    std::fprintf(stderr, "veriopt-worker: injected crash on shard %u "
                 "(attempt %u)\n",
                 Idx, Attempt);
    std::abort();
  }

  DatasetOptions DO;
  DO.TrainCount = 0;
  DO.ValidCount = ValidCount;
  DO.Seed = DatasetSeed;
  Dataset DS = buildDataset(DO);
  RewritePolicyModel Model(presetQwen3B());

  // With a verdict store, verify through evaluateModelSharded's verifier (a
  // private cache backed by the shared journal), so the verdicts — and
  // therefore the result file — stay bit-identical to the plain path.
  std::unique_ptr<VerdictStore> Store;
  std::unique_ptr<EvalVerifier> Verifier;
  if (!StorePath.empty()) {
    std::string SErr;
    Store = VerdictStore::open(StorePath, &SErr);
    if (!Store) {
      std::fprintf(stderr, "veriopt-worker: cannot open verdict store %s: "
                   "%s\n",
                   StorePath.c_str(), SErr.c_str());
      return 5;
    }
    EvalOptions EO;
    EO.VerdictTier = Store.get();
    Verifier = std::make_unique<EvalVerifier>(VerifyOptions(), EO);
  }

  ShardEvalResult R = evaluateEvalShard(Model, DS.Valid, PromptMode::Generic,
                                        VerifyOptions(), *Shard,
                                        Verifier.get());

  if (Store) {
    if (!Store->flush())
      std::fprintf(stderr, "veriopt-worker: verdict store flush failed "
                   "(results unaffected)\n");
    VerdictStore::Stats SS = Store->stats();
    std::fprintf(stderr, "veriopt-worker: shard %u store: %llu hits, %llu "
                 "misses, %llu new records\n",
                 Idx, static_cast<unsigned long long>(SS.Hits),
                 static_cast<unsigned long long>(SS.Misses),
                 static_cast<unsigned long long>(SS.Writes));
  }

  const std::string Path =
      OutDir + "/shard_" + std::to_string(Idx) + ".json";
  if (FI.shouldInject(FaultSite::WorkerCorrupt, Idx)) {
    // Simulate the torn-write crash the atomic discipline normally
    // prevents: a truncated JSON prefix, written in place, then exit 0 as
    // if everything were fine. The driver must not trust it.
    std::fprintf(stderr,
                 "veriopt-worker: injected corrupt result on shard %u\n",
                 Idx);
    std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
    OS << shardResultToJson(R).substr(0, 40);
    return 0;
  }

  std::string WErr;
  if (!writeFileAtomic(Path, shardResultToJson(R), &WErr)) {
    std::fprintf(stderr, "veriopt-worker: cannot write %s: %s\n",
                 Path.c_str(), WErr.c_str());
    return 5;
  }
  return 0;
}
