//===- IoEnv.h - Injectable I/O environment ----------------------*- C++ -*-=//
//
// The process-wide seam between the durable subsystems and the kernel.
// Every syscall that AtomicFile, FileLock, the VerdictStore journal, and
// the streaming trace sink issue (open/write/fsync/rename/close/flock/
// unlink) routes through IoEnv::current(), so storage failures — ENOSPC,
// EIO, quota exhaustion, short writes, failed renames, failed flocks — can
// be injected deterministically instead of only ever succeeding in tests.
//
// Three implementations:
//
//  - The default passthrough (IoEnv::system()): each virtual forwards to
//    the raw syscall. The seam costs one relaxed atomic load + one virtual
//    call per syscall — noise next to the syscall itself.
//
//  - FaultyIoEnv: drives the Io* sites of a seeded FaultInjector
//    (support/FaultInjector.h). An injection decision is a pure hash of
//    (seed, site, path, per-path operation ordinal) — never a counter
//    shared across paths, never a clock — so the same seed fails the same
//    operations on the same files regardless of thread scheduling or of
//    which process runs them. The path is the logical one: a
//    writeFileAtomic staging file counts as its destination. Errno
//    shaping picks deterministically among ENOSPC / EIO / EDQUOT; short
//    writes really write a prefix (>= 1 byte, so retry loops always make
//    progress) and are how torn appends are simulated. Only descriptors
//    opened *through* the env are candidates for fd-keyed faults, which
//    automatically exempts stdio and sockets.
//
//  - RecordingIoEnv: passes everything through while logging the full
//    syscall sequence (including written bytes), the substrate of the
//    ALICE-style crash-consistency fuzzer in
//    tests/support/CrashConsistencyTest.cpp: replay the log truncated at
//    every syscall boundary and assert the recovery invariants.
//
// The invariant every caller is written against: I/O faults may cost
// durability, never correctness or determinism of the training trajectory
// (docs/FAULT_TOLERANCE.md, "degraded-mode matrix").
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_SUPPORT_IOENV_H
#define VERIOPT_SUPPORT_IOENV_H

#include "support/FaultInjector.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include <sys/types.h>

namespace veriopt {

/// Abstract I/O environment. The base class *is* the passthrough: every
/// virtual forwards to the raw syscall, and overrides call the base to
/// reach the kernel. All methods follow syscall conventions (-1 + errno on
/// failure) so call sites keep their existing error handling verbatim.
class IoEnv {
public:
  virtual ~IoEnv() = default;

  virtual int open(const char *Path, int Flags, mode_t Mode);
  virtual ssize_t write(int Fd, const void *Buf, size_t N);
  virtual int fsync(int Fd);
  virtual int rename(const char *From, const char *To);
  virtual int close(int Fd);
  virtual int flock(int Fd, int Op);
  virtual int unlink(const char *Path);

  /// The shared passthrough instance (never faulted, never recording).
  static IoEnv &system();

  /// The installed environment (defaults to system()). One relaxed atomic
  /// load — the hot-path cost of the seam.
  static IoEnv *current();

  /// Install \p E process-wide (null restores the passthrough). Returns
  /// the previously installed env. Tests install around the operation
  /// under test and restore in a scope guard; production never calls this
  /// except from the --chaos-io CLI flags.
  static IoEnv *install(IoEnv *E);
};

/// RAII installer: swaps \p E in for the scope, restores on destruction.
class ScopedIoEnv {
public:
  explicit ScopedIoEnv(IoEnv *E) : Prev(IoEnv::install(E)) {}
  ~ScopedIoEnv() { IoEnv::install(Prev); }
  ScopedIoEnv(const ScopedIoEnv &) = delete;
  ScopedIoEnv &operator=(const ScopedIoEnv &) = delete;

private:
  IoEnv *Prev;
};

/// Deterministic fault-injecting environment over a seeded FaultInjector.
/// Arm the injector's Io* sites (FaultSite::IoOpen .. IoFlock) at the
/// desired rates; decisions key on (path, per-path op ordinal) so they are
/// schedule-independent.
class FaultyIoEnv : public IoEnv {
public:
  explicit FaultyIoEnv(FaultInjector &FI) : FI(FI) {}

  /// Paths ending in any exempt suffix pass straight through — e.g. a
  /// chaos run that must still publish its own trace file exempts
  /// ".jsonl"/".stream" so the gate artifact survives the storm. The
  /// ".tmp.<pid>.<seq>" decoration writeFileAtomic stages through is
  /// stripped before matching, so an exemption covers the whole atomic
  /// write, not just the final rename.
  void exemptSuffix(std::string Suffix) {
    std::lock_guard<std::mutex> L(M);
    Exempt.push_back(std::move(Suffix));
  }

  int open(const char *Path, int Flags, mode_t Mode) override;
  ssize_t write(int Fd, const void *Buf, size_t N) override;
  int fsync(int Fd) override;
  int rename(const char *From, const char *To) override;
  int close(int Fd) override;
  int flock(int Fd, int Op) override;

private:
  bool exempt(const std::string &Path);
  /// Next deterministic key for \p Path: hash(logical path) mixed with that
  /// path's operation ordinal (how many env calls have named it so far).
  uint64_t nextKey(const std::string &Path);
  /// Deterministic errno from the fault classes storage really throws.
  static int shapeErrno(uint64_t Key);

  FaultInjector &FI;
  std::mutex M;
  std::map<int, std::string> FdPath;        ///< fds opened through this env
  std::map<std::string, uint64_t> PathOps;  ///< per-path op ordinals
  std::vector<std::string> Exempt;
};

/// Arm all six Io* sites of \p FI at probability \p Rate: the whole-disk
/// chaos the --chaos-io flags and the checkpoint fault tests run under.
void armIoFaults(FaultInjector &FI, double Rate);

/// Passthrough environment that records the full syscall sequence. The
/// crash-consistency fuzzer replays Ops truncated at every index.
class RecordingIoEnv : public IoEnv {
public:
  struct Op {
    enum class Kind { Open, Write, Fsync, Rename, Close, Flock, Unlink };
    Kind K = Kind::Open;
    std::string Path;  ///< target path (resolved from the fd for fd ops)
    std::string Path2; ///< rename destination
    std::string Data;  ///< bytes actually written (Write)
    int Flags = 0;     ///< open(2) flags
    bool IsDir = false; ///< fd refers to a directory (parent-dir fsyncs)
  };

  int open(const char *Path, int Flags, mode_t Mode) override;
  ssize_t write(int Fd, const void *Buf, size_t N) override;
  int fsync(int Fd) override;
  int rename(const char *From, const char *To) override;
  int close(int Fd) override;
  int flock(int Fd, int Op) override;
  int unlink(const char *Path) override;

  /// Successful operations, in issue order. Failed syscalls are not
  /// recorded: a crash state can only contain effects that happened.
  std::vector<Op> ops() const {
    std::lock_guard<std::mutex> L(M);
    return Ops;
  }
  void clear() {
    std::lock_guard<std::mutex> L(M);
    Ops.clear();
  }

private:
  void push(Op O) {
    std::lock_guard<std::mutex> L(M);
    Ops.push_back(std::move(O));
  }

  mutable std::mutex M;
  std::map<int, std::pair<std::string, bool>> FdInfo; ///< fd -> (path, isDir)
  std::vector<Op> Ops;
};

} // namespace veriopt

#endif // VERIOPT_SUPPORT_IOENV_H
