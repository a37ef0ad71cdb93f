//===- EvalDriver.cpp - Crash-tolerant multi-process eval driver --------------//

#include "pipeline/EvalDriver.h"

#include "support/AtomicFile.h"
#include "support/Subprocess.h"
#include "trace/Json.h"
#include "trace/Metrics.h"
#include "trace/Trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>

#include <poll.h>
#include <time.h>

namespace veriopt {

//===--- Backoff --------------------------------------------------------------//

/// SplitMix64 finalizer over (Seed, ShardIdx): stable across platforms and
/// independent of shard completion order.
static uint64_t jitterHash(uint64_t Seed, unsigned ShardIdx) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ULL * (uint64_t(ShardIdx) + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

uint64_t driverBackoffMs(uint64_t Seed, unsigned ShardIdx, unsigned Attempt,
                         uint64_t BaseMs, uint64_t CapMs) {
  if (Attempt <= 1 || BaseMs == 0)
    return 0;
  // Capped exponential: Base * 2^(Attempt-2) for the delay before attempt
  // 2, 3, ... (attempt 1 is the initial launch).
  uint64_t D = BaseMs;
  for (unsigned I = 2; I < Attempt && D < CapMs; ++I)
    D = D > CapMs / 2 ? CapMs : D * 2;
  D = std::min(D, CapMs);
  // Deterministic jitter in [0, D/2]: a pure (Seed, ShardIdx, Attempt)
  // hash — same decision at any completion order — that de-synchronizes
  // shards failing in lockstep (the thundering-herd concern).
  uint64_t J =
      jitterHash(Seed + 0x9e3779b97f4a7c15ULL * Attempt, ShardIdx) %
      (D / 2 + 1);
  return std::min(CapMs, D + J);
}

const char *failureClassName(FailureClass C) {
  switch (C) {
  case FailureClass::Logic:
    return "logic";
  case FailureClass::Io:
    return "io";
  case FailureClass::Runtime:
    return "runtime";
  }
  return "unknown";
}

//===--- Result-file validation -----------------------------------------------//

bool loadValidShardResult(const std::string &Path, const EvalShard &Expect,
                          ShardEvalResult &Out, std::string *Why) {
  std::ifstream IS(Path, std::ios::binary);
  if (!IS) {
    if (Why)
      *Why = "missing result file " + Path;
    return false;
  }
  std::ostringstream SS;
  SS << IS.rdbuf();
  std::string Err;
  Out = ShardEvalResult();
  if (!shardResultFromJson(SS.str(), Out, &Err)) {
    if (Why)
      *Why = "invalid result file " + Path + ": " + Err;
    return false;
  }
  if (Out.Shard.Index != Expect.Index || Out.Shard.Begin != Expect.Begin ||
      Out.Shard.End != Expect.End) {
    if (Why)
      *Why = "result file " + Path + " is for a different shard identity";
    return false;
  }
  if (Out.PerSample.size() != Expect.End - Expect.Begin) {
    if (Why)
      *Why = "result file " + Path + " has " +
             std::to_string(Out.PerSample.size()) + " samples, expected " +
             std::to_string(Expect.End - Expect.Begin);
    return false;
  }
  return true;
}

//===--- Supervisor -----------------------------------------------------------//

namespace {

enum class ShardState { Pending, Running, Retrying, Done, Quarantined };

struct ShardRecord {
  EvalShard Shard;
  ShardState State = ShardState::Pending;
  unsigned Attempts = 0; ///< launches so far
  std::chrono::steady_clock::time_point NotBefore; ///< backoff gate
  std::vector<ShardAttemptFailure> Failures;
  ShardEvalResult Result; ///< valid when Done
};

struct ActiveWorker {
  std::unique_ptr<Subprocess> Proc;
  std::unique_ptr<TraceSpan> Span;
  size_t ShardSlot = 0;
  unsigned Attempt = 0;
};

std::string resultPath(const std::string &Dir, unsigned Index) {
  return Dir + "/shard_" + std::to_string(Index) + ".json";
}

void sleepMs(uint64_t Ms) {
  struct timespec TS;
  TS.tv_sec = static_cast<time_t>(Ms / 1000);
  TS.tv_nsec = static_cast<long>((Ms % 1000) * 1000000);
  ::nanosleep(&TS, nullptr);
}

/// Bounded, printable tail of a worker's stderr for the quarantine record.
std::string stderrTail(const SubprocessResult &R) {
  std::string S = R.StderrCapture;
  if (R.StderrTruncated)
    S += "\n[stderr truncated]";
  return S;
}

} // namespace

bool runEvalDriver(const EvalDriverOptions &Opts,
                   const std::string &ModelName, EvalDriverReport &Report,
                   std::string *Err) {
  Report = EvalDriverReport();

  std::vector<EvalShard> Plan;
  {
    std::ifstream IS(Opts.ManifestPath, std::ios::binary);
    if (!IS) {
      if (Err)
        *Err = "cannot open manifest " + Opts.ManifestPath;
      return false;
    }
    std::ostringstream SS;
    SS << IS.rdbuf();
    std::string MErr;
    if (!shardManifestFromJson(SS.str(), Plan, &MErr)) {
      if (Err)
        *Err = "invalid manifest " + Opts.ManifestPath + ": " + MErr;
      return false;
    }
  }
  if (Opts.WorkerArgv.empty()) {
    if (Err)
      *Err = "no worker command configured";
    return false;
  }
  const unsigned MaxAttempts = std::max(1u, Opts.MaxAttempts);
  const unsigned MaxWorkers = std::max(1u, Opts.MaxWorkers);

  TraceSpan Span("eval.driver");
  MetricsRegistry &M = MetricsRegistry::global();
  static Counter &CSpawned = M.counter("driver.spawned");
  static Counter &CRetried = M.counter("driver.retried");
  static Counter &CQuarantined = M.counter("driver.quarantined");
  static Counter &CSalvaged = M.counter("driver.salvaged");

  std::vector<ShardRecord> Shards(Plan.size());
  const auto Epoch = std::chrono::steady_clock::now();
  size_t Open = 0; // shards not yet Done/Quarantined
  for (size_t I = 0; I < Plan.size(); ++I) {
    Shards[I].Shard = Plan[I];
    Shards[I].NotBefore = Epoch;
    // Resume: a valid existing result file satisfies the shard without a
    // worker. The atomic+durable write discipline is what makes this
    // trustworthy — a torn or empty file fails validation and re-runs.
    if (Opts.Resume &&
        loadValidShardResult(resultPath(Opts.ResultDir, Plan[I].Index),
                             Plan[I], Shards[I].Result, nullptr)) {
      Shards[I].State = ShardState::Done;
      ++Report.Reused;
    } else {
      ++Open;
    }
  }

  std::vector<ActiveWorker> Active;

  auto launch = [&](size_t Slot) {
    ShardRecord &R = Shards[Slot];
    ++R.Attempts;
    R.State = ShardState::Running;
    ++Report.Spawned;
    CSpawned.inc();
    if (R.Attempts > 1) {
      ++Report.Retried;
      CRetried.inc();
    }

    ActiveWorker W;
    W.ShardSlot = Slot;
    W.Attempt = R.Attempts;
    W.Span = std::make_unique<TraceSpan>("eval.worker");
    W.Proc = std::make_unique<Subprocess>();
    SubprocessOptions SO;
    SO.Argv = Opts.WorkerArgv;
    SO.Argv.insert(SO.Argv.end(),
                   {"--manifest", Opts.ManifestPath, "--shard",
                    std::to_string(R.Shard.Index), "--out", Opts.ResultDir,
                    "--attempt", std::to_string(R.Attempts)});
    SO.DeadlineMs = Opts.WorkerDeadlineMs;
    SO.MaxStderrBytes = Opts.MaxStderrBytes;
    W.Proc->spawn(SO); // spawn failure surfaces through poll()/finished()
    Active.push_back(std::move(W));
  };

  auto finishAttempt = [&](ActiveWorker &W) {
    ShardRecord &R = Shards[W.ShardSlot];
    const SubprocessResult &PR = W.Proc->result();

    std::string FailWhy;
    bool Ok = false;
    // Worker-I/O failures (typed exit 5: lock probe, store open, result
    // write — and an exit-0 claim whose file is missing or torn, which can
    // only be the write plane) are classified apart from worker-logic
    // failures (any other nonzero exit: usage, manifest, shard identity) so
    // quarantine diagnostics tell a failing disk from failing code.
    FailureClass Class = FailureClass::Runtime;
    if (PR.Outcome == SubprocessOutcome::Exited && PR.ExitCode == 0) {
      // Exit 0 is a claim, not proof: the result file must exist, parse,
      // and match the manifest's shard identity before it is trusted.
      Ok = loadValidShardResult(resultPath(Opts.ResultDir, R.Shard.Index),
                                R.Shard, R.Result, &FailWhy);
      if (!Ok)
        Class = FailureClass::Io;
    } else {
      if (PR.Outcome == SubprocessOutcome::Exited)
        Class = PR.ExitCode == 5 ? FailureClass::Io : FailureClass::Logic;
      FailWhy = PR.describe();
    }

    if (W.Span && W.Span->active()) {
      W.Span->arg(TraceArg::ofInt("shard", R.Shard.Index));
      W.Span->arg(TraceArg::ofInt("attempt", W.Attempt));
      W.Span->arg(TraceArg::ofStr("outcome",
                                  Ok ? "ok"
                                     : subprocessOutcomeName(PR.Outcome)));
      W.Span->arg(TraceArg::ofBool("salvaged", Ok));
    }
    W.Span.reset(); // close the span at the attempt boundary

    if (Ok) {
      R.State = ShardState::Done;
      --Open;
      return;
    }

    ShardAttemptFailure F;
    F.Attempt = R.Attempts;
    F.Class = Class;
    F.Reason = FailWhy;
    F.StderrTail = stderrTail(PR);
    R.Failures.push_back(std::move(F));

    if (R.Attempts >= MaxAttempts) {
      R.State = ShardState::Quarantined;
      CQuarantined.inc();
      --Open;
    } else {
      R.State = ShardState::Retrying;
      R.NotBefore = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(
                        driverBackoffMs(Opts.Seed, R.Shard.Index,
                                        R.Attempts + 1, Opts.BackoffBaseMs,
                                        Opts.BackoffCapMs));
    }
  };

  while (Open > 0 || !Active.empty()) {
    // Launch phase: fill free worker slots with ready shards, lowest index
    // first (deterministic launch order).
    const auto Now = std::chrono::steady_clock::now();
    for (size_t I = 0; I < Shards.size() && Active.size() < MaxWorkers;
         ++I) {
      ShardRecord &R = Shards[I];
      if ((R.State == ShardState::Pending ||
           R.State == ShardState::Retrying) &&
          R.NotBefore <= Now)
        launch(I);
    }

    if (Active.empty()) {
      // Everything open is gated on backoff: sleep to the earliest gate.
      auto Earliest = std::chrono::steady_clock::time_point::max();
      for (const ShardRecord &R : Shards)
        if (R.State == ShardState::Pending ||
            R.State == ShardState::Retrying)
          Earliest = std::min(Earliest, R.NotBefore);
      if (Earliest == std::chrono::steady_clock::time_point::max())
        break; // nothing left to run
      auto WaitMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                        Earliest - std::chrono::steady_clock::now())
                        .count();
      if (WaitMs > 0)
        sleepMs(std::min<int64_t>(WaitMs, 50));
      continue;
    }

    // Progress phase: nonblocking poll over every active worker.
    bool Progress = false;
    for (size_t I = 0; I < Active.size();) {
      if (Active[I].Proc->poll()) {
        finishAttempt(Active[I]);
        Active.erase(Active.begin() + static_cast<long>(I));
        Progress = true;
      } else {
        ++I;
      }
    }
    if (Progress)
      continue;

    // Sleep until some child writes to stderr / exits (pipe EOF), with a
    // bounded timeslice so deadlines and backoff gates stay responsive.
    std::vector<struct pollfd> Fds;
    for (const ActiveWorker &W : Active)
      if (W.Proc->stderrFd() >= 0)
        Fds.push_back({W.Proc->stderrFd(), POLLIN, 0});
    if (Fds.empty())
      sleepMs(5);
    else
      ::poll(Fds.data(), Fds.size(), 10); // EINTR: loop just re-polls
  }

  // Salvage merge: every Done shard, in index order (mergeShardResults
  // canonicalizes anyway).
  std::vector<ShardEvalResult> Healthy;
  for (ShardRecord &R : Shards) {
    if (R.State == ShardState::Done) {
      Report.HealthyShardIndices.push_back(R.Shard.Index);
      Healthy.push_back(std::move(R.Result));
    } else if (R.State == ShardState::Quarantined) {
      QuarantinedShard Q;
      Q.Shard = R.Shard;
      Q.Failures = std::move(R.Failures);
      Report.Quarantined.push_back(std::move(Q));
    }
  }
  std::sort(Report.Quarantined.begin(), Report.Quarantined.end(),
            [](const QuarantinedShard &A, const QuarantinedShard &B) {
              return A.Shard.Index < B.Shard.Index;
            });
  std::sort(Report.HealthyShardIndices.begin(),
            Report.HealthyShardIndices.end());
  Report.Salvaged = static_cast<unsigned>(Healthy.size());
  CSalvaged.inc(Report.Salvaged);
  Report.Merged = mergeShardResults(ModelName, std::move(Healthy));

  if (!Opts.ResultDir.empty()) {
    std::string QErr;
    if (!writeFileAtomic(Opts.ResultDir + "/quarantine.json",
                         quarantineToJson(Report.Quarantined), &QErr)) {
      // The sidecar is forensics, not state: losing it costs nothing the
      // in-memory report does not still carry, so surface it as a typed
      // report field + durability-plane counter instead of failing a run
      // whose merge already succeeded.
      Report.QuarantineWriteError = QErr;
      static Counter &CQWriteFailed =
          M.counter("io.driver.quarantine_write_failures");
      CQWriteFailed.inc();
    }
  }

  if (Span.active()) {
    Span.arg(TraceArg::ofInt("shards", static_cast<int64_t>(Plan.size())));
    Span.arg(TraceArg::ofInt("spawned", Report.Spawned));
    Span.arg(TraceArg::ofInt("retried", Report.Retried));
    Span.arg(TraceArg::ofInt("reused", Report.Reused));
    Span.arg(TraceArg::ofInt("salvaged", Report.Salvaged));
    Span.arg(TraceArg::ofInt(
        "quarantined", static_cast<int64_t>(Report.Quarantined.size())));
    Span.arg(TraceArg::ofStr("model", ModelName));
  }
  return true;
}

//===--- Quarantine serialization & rendering ---------------------------------//

std::string quarantineToJson(const std::vector<QuarantinedShard> &Q) {
  std::ostringstream OS;
  OS << "{\"quarantined\":[";
  for (size_t I = 0; I < Q.size(); ++I) {
    if (I)
      OS << ",";
    const QuarantinedShard &S = Q[I];
    OS << "{\"index\":" << S.Shard.Index << ",\"begin\":" << S.Shard.Begin
       << ",\"end\":" << S.Shard.End << ",\"failures\":[";
    for (size_t J = 0; J < S.Failures.size(); ++J) {
      if (J)
        OS << ",";
      const ShardAttemptFailure &F = S.Failures[J];
      OS << "{\"attempt\":" << F.Attempt << ",\"class\":\""
         << failureClassName(F.Class)
         << "\",\"reason\":" << jsonString(F.Reason)
         << ",\"stderr\":" << jsonString(F.StderrTail) << "}";
    }
    OS << "]}";
  }
  OS << "]}\n";
  return OS.str();
}

std::string renderDriverReport(const EvalDriverReport &R) {
  std::ostringstream OS;
  OS << "evaluation driver: " << R.Salvaged << " salvaged ("
     << R.Reused << " reused), " << R.Quarantined.size()
     << " quarantined, " << R.Spawned << " workers spawned ("
     << R.Retried << " retries)\n";
  for (const QuarantinedShard &Q : R.Quarantined) {
    OS << "  QUARANTINED shard " << Q.Shard.Index << " [" << Q.Shard.Begin
       << ", " << Q.Shard.End << ")";
    if (!Q.Failures.empty())
      OS << " — last failure ["
         << failureClassName(Q.Failures.back().Class)
         << "]: " << Q.Failures.back().Reason;
    OS << "\n";
    for (const ShardAttemptFailure &F : Q.Failures)
      OS << "    attempt " << F.Attempt << " ["
         << failureClassName(F.Class) << "]: " << F.Reason << "\n";
  }
  if (!R.QuarantineWriteError.empty())
    OS << "  WARNING: quarantine.json not written ("
       << R.QuarantineWriteError << ") — diagnostics above are the only "
       << "copy\n";
  OS << renderTaxonomy("salvaged-shard taxonomy (healthy subset)",
                       R.Merged.Taxonomy);
  return OS.str();
}

} // namespace veriopt
