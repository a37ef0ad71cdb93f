//===- veriopt_drive.cpp - Crash-tolerant multi-process eval supervisor -----===//
//
// The operator front door for multi-process evaluation: plans shards,
// writes the manifest, farms shards to `veriopt-worker` processes via
// EvalDriver (supervision, deterministic retry/backoff, poison-shard
// quarantine), and merges the healthy subset.
//
//   veriopt-drive --dir results/ [--valid-count N] [--dataset-seed S]
//                 [--shards K] [--workers N] [--max-attempts A]
//                 [--timeout-ms T] [--backoff-ms B] [--backoff-cap-ms C]
//                 [--worker PATH] [--no-resume] [--trace out.jsonl]
//                 [--verdict-store PATH]
//                 [--chaos-io RATE%] [--chaos-io-seed S]
//
// --verdict-store hands every worker the same durable verdict journal
// (docs/PERSISTENCE.md): the fleet shares one warm store across shards,
// processes, and runs. Results are bit-identical with or without it.
//
// --chaos-io forwards worker-side I/O fault injection (the FaultyIoEnv
// seam, docs/FAULT_TOLERANCE.md): every durable write a worker makes can
// fail with a shaped errno at the given percentage, deterministically in
// (seed, path, op ordinal) with the seed mixed per attempt — so a shard
// whose result write fails (typed exit 5, classified [io] in the
// quarantine diagnostics, distinct from [logic] and [runtime]) is
// salvageable by the driver's retries, exactly like a transiently failing
// disk. The CI chaos-io job drives this with --max-attempts raised and
// gates a clean exit.
//
// Numeric values are decimal, 0x-hex or 0-octal; anything else (a sign, a
// trailing character, an out-of-range value) is a usage error.
//
// Exit codes: 0 all shards healthy; 1 hard error or usage error;
// 4 degraded (some shards quarantined — healthy subset still merged and
// reported).
//
// The crash, hang, corrupt-result and flaky-worker gates live in
// tests/pipeline/EvalDriverTest.cpp, which passes the worker's --inject-*
// flags to it directly.
//
//===----------------------------------------------------------------------===//

#include "pipeline/EvalDriver.h"
#include "support/AtomicFile.h"
#include "support/CommandLine.h"
#include "trace/Metrics.h"
#include "trace/Trace.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <sys/stat.h>

using namespace veriopt;

namespace {

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s --dir <results-dir> [--valid-count N]\n"
      "          [--dataset-seed S] [--shards K] [--workers N]\n"
      "          [--max-attempts A] [--timeout-ms T] [--backoff-ms B]\n"
      "          [--backoff-cap-ms C] [--worker PATH] [--no-resume]\n"
      "          [--trace out.jsonl] [--verdict-store PATH]\n"
      "          [--chaos-io RATE%%] [--chaos-io-seed S]\n",
      Argv0);
  return 1;
}

/// Default worker: sibling binary of this executable.
std::string siblingWorker(const char *Argv0) {
  std::string S = Argv0;
  size_t Slash = S.find_last_of('/');
  std::string Dir = Slash == std::string::npos ? "." : S.substr(0, Slash);
  return Dir + "/veriopt-worker";
}

struct DriveConfig {
  std::string Dir, WorkerPath, TracePath, StorePath;
  unsigned ValidCount = 24, Shards = 4, Workers = 2, MaxAttempts = 3;
  uint64_t DatasetSeed = 2026, TimeoutMs = 120000, BackoffMs = 50,
           BackoffCapMs = 2000;
  bool Resume = true;
  std::vector<std::string> ChaosArgs; ///< forwarded to every worker
};

} // namespace

int main(int argc, char **argv) {
  DriveConfig C;
  C.WorkerPath = siblingWorker(argv[0]);

  auto valArg = [&](int &I, const char *Name, const char **Out) {
    if (std::strcmp(argv[I], Name) != 0 || I + 1 >= argc)
      return false;
    *Out = argv[++I];
    return true;
  };
  for (int I = 1; I < argc; ++I) {
    const char *V = nullptr;
    bool Ok = true;
    uint64_t Chaos = 0;
    if (std::strcmp(argv[I], "--no-resume") == 0)
      C.Resume = false;
    else if (valArg(I, "--dir", &V))
      C.Dir = V;
    else if (valArg(I, "--worker", &V))
      C.WorkerPath = V;
    else if (valArg(I, "--trace", &V))
      C.TracePath = V;
    else if (valArg(I, "--verdict-store", &V))
      C.StorePath = V;
    else if (valArg(I, "--valid-count", &V))
      Ok = parseUnsignedArg(V, C.ValidCount);
    else if (valArg(I, "--dataset-seed", &V))
      Ok = parseUnsignedArg(V, C.DatasetSeed);
    else if (valArg(I, "--shards", &V))
      Ok = parseUnsignedArg(V, C.Shards);
    else if (valArg(I, "--workers", &V))
      Ok = parseUnsignedArg(V, C.Workers);
    else if (valArg(I, "--max-attempts", &V))
      Ok = parseUnsignedArg(V, C.MaxAttempts);
    else if (valArg(I, "--timeout-ms", &V))
      Ok = parseUnsignedArg(V, C.TimeoutMs);
    else if (valArg(I, "--backoff-ms", &V))
      Ok = parseUnsignedArg(V, C.BackoffMs);
    else if (valArg(I, "--backoff-cap-ms", &V))
      Ok = parseUnsignedArg(V, C.BackoffCapMs);
    else if (valArg(I, "--chaos-io", &V)) {
      Ok = parseUnsignedArg(V, Chaos, 0, 100);
      C.ChaosArgs.insert(C.ChaosArgs.end(),
                         {"--chaos-io", std::to_string(Chaos)});
    } else if (valArg(I, "--chaos-io-seed", &V)) {
      Ok = parseUnsignedArg(V, Chaos);
      C.ChaosArgs.insert(C.ChaosArgs.end(),
                         {"--chaos-io-seed", std::to_string(Chaos)});
    } else
      Ok = false;
    if (!Ok)
      return usage(argv[0]);
  }
  if (C.Dir.empty())
    return usage(argv[0]);
  ::mkdir(C.Dir.c_str(), 0755); // fine if it already exists (resume)

  if (!C.TracePath.empty())
    TraceRecorder::instance().enable();

  DatasetOptions DOpts;
  DOpts.TrainCount = 0;
  DOpts.ValidCount = C.ValidCount;
  DOpts.Seed = C.DatasetSeed;
  const size_t CorpusSize = buildDataset(DOpts).Valid.size();

  EvalDriverOptions DO;
  DO.ManifestPath = C.Dir + "/manifest.json";
  DO.ResultDir = C.Dir;
  DO.WorkerArgv = {C.WorkerPath,
                   "--valid-count", std::to_string(C.ValidCount),
                   "--dataset-seed", std::to_string(C.DatasetSeed)};
  if (!C.StorePath.empty())
    DO.WorkerArgv.insert(DO.WorkerArgv.end(),
                         {"--verdict-store", C.StorePath});
  DO.WorkerArgv.insert(DO.WorkerArgv.end(), C.ChaosArgs.begin(),
                       C.ChaosArgs.end());
  DO.MaxWorkers = C.Workers;
  DO.MaxAttempts = C.MaxAttempts;
  DO.BackoffBaseMs = C.BackoffMs;
  DO.BackoffCapMs = C.BackoffCapMs;
  DO.WorkerDeadlineMs = C.TimeoutMs;
  DO.Resume = C.Resume;

  EvalDriverReport R;
  std::string Err;
  if (!writeFileAtomic(DO.ManifestPath,
                       shardManifestToJson(
                           planEvalShards(CorpusSize, C.Shards), CorpusSize),
                       &Err) ||
      !runEvalDriver(DO, presetQwen3B().Name, R, &Err)) {
    std::fprintf(stderr, "veriopt-drive: %s\n", Err.c_str());
    return 1;
  }
  std::fputs(renderDriverReport(R).c_str(), stdout);
  std::printf("quarantine list: %s/quarantine.json\n", C.Dir.c_str());
  const int Ret = R.allHealthy() ? 0 : 4;

  if (!C.TracePath.empty() &&
      !TraceRecorder::instance().writeJsonl(C.TracePath,
                                            &MetricsRegistry::global())) {
    std::fprintf(stderr, "veriopt-drive: could not write %s\n",
                 C.TracePath.c_str());
    return 1;
  }
  return Ret;
}
