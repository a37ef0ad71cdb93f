//===- FaultInjector.h - Deterministic fault injection -----------*- C++ -*-=//
//
// Seeded, deterministic injection of the faults the runtime must survive
// from outside the process: failing syscalls on durable artifacts (the Io*
// sites, driven by FaultyIoEnv in support/IoEnv.h) and misbehaving
// evaluation workers (the Worker* sites, driven by veriopt-worker). An
// injection decision is a pure hash of (seed, site, caller-supplied key) —
// never a counter or a clock — so the same run injects the same faults at
// any thread count and under any scheduling, and the fault-tolerance tests
// are exactly reproducible.
//
// Verifier-side failures need no simulated site: a small fuel or conflict
// budget produces a genuine budget exhaustion, and a test can wrap the
// reward function to lie about verdicts.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_SUPPORT_FAULTINJECTOR_H
#define VERIOPT_SUPPORT_FAULTINJECTOR_H

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace veriopt {

/// A site's value salts every decision at that site, so values are fixed:
/// a seed replays the same fault schedule across versions (the CI chaos
/// seeds and the driver goldens depend on it). 0-3 are retired.
enum class FaultSite : unsigned {
  WorkerCrash = 4, ///< abort() an evaluation worker process mid-shard
  WorkerHang,      ///< hang a worker until the supervisor's deadline fires
  WorkerCorrupt,   ///< make a worker emit a torn/garbage result file
  // I/O fault sites, consumed by FaultyIoEnv (support/IoEnv.h). Keys are
  // (path, per-path op ordinal) hashes; errno shaping picks among
  // ENOSPC / EIO / EDQUOT deterministically.
  IoOpen,       ///< fail an open(2) of a durable artifact
  IoWrite,      ///< fail a write(2) outright (nothing lands)
  IoShortWrite, ///< write only a prefix (the torn-write hazard)
  IoFsync,      ///< fail an fsync(2) (data may never become durable)
  IoRename,     ///< fail a rename(2) (publish step of atomic replace)
  IoFlock,      ///< fail a flock(2) acquisition (sidecar lock)
  NumSites
};

const char *faultSiteName(FaultSite S);

class FaultInjector {
public:
  explicit FaultInjector(uint64_t Seed = 0) : Seed(Seed) {}

  /// Arm \p S with injection probability \p Rate in [0, 1].
  void enable(FaultSite S, double Rate);
  void disable(FaultSite S) { enable(S, 0.0); }
  double rate(FaultSite S) const;

  /// Deterministic decision for \p Key at site \p S. Thread-safe; the
  /// result depends only on (Seed, S, Key).
  bool shouldInject(FaultSite S, uint64_t Key);
  bool shouldInject(FaultSite S, const std::string &Key) {
    return shouldInject(S, hashKey(Key));
  }

  /// FNV-1a, exposed so call sites can derive stable keys from text.
  static uint64_t hashKey(const std::string &S);

  struct Counters {
    std::array<uint64_t, static_cast<size_t>(FaultSite::NumSites)> Checked{};
    std::array<uint64_t, static_cast<size_t>(FaultSite::NumSites)> Injected{};
    uint64_t checked(FaultSite S) const {
      return Checked[static_cast<size_t>(S)];
    }
    uint64_t injected(FaultSite S) const {
      return Injected[static_cast<size_t>(S)];
    }
    uint64_t totalInjected() const {
      uint64_t N = 0;
      for (uint64_t V : Injected)
        N += V;
      return N;
    }
  };
  Counters counters() const;

private:
  static constexpr size_t NumSites =
      static_cast<size_t>(FaultSite::NumSites);

  uint64_t Seed;
  std::array<std::atomic<uint64_t>, NumSites> RateBits{}; // double bit-cast
  std::array<std::atomic<uint64_t>, NumSites> Checked{};
  std::array<std::atomic<uint64_t>, NumSites> Injected{};
};

} // namespace veriopt

#endif // VERIOPT_SUPPORT_FAULTINJECTOR_H
