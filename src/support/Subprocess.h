//===- Subprocess.h - Supervised child processes -----------------*- C++ -*-=//
//
// A small fork/exec supervisor primitive for the multi-process evaluation
// driver. One Subprocess owns one child: spawn() forks and execs, poll()
// makes nonblocking progress (drains the child's stderr into a bounded
// capture buffer, reaps on exit, and escalates a blown wall-clock deadline
// to SIGKILL), and wait() blocks — EINTR-safely — until the child is gone.
//
// Failure modes are typed, because the driver's retry/quarantine policy
// keys off them:
//  - SpawnFailed: fork or exec never happened (exec errno is reported via
//    a CLOEXEC pipe, so a missing binary is distinguishable from the child
//    exiting 127 on its own).
//  - Exited(code): normal termination.
//  - Signaled(sig): crashed or killed.
//  - TimedOut: the deadline elapsed; the child was SIGKILLed and reaped.
//
// The child leads its own process group, and every kill (deadline or
// destructor) goes to the whole group: grandchildren the child started die
// with it. The destructor guarantees no zombies: a still-running child is
// killed and reaped before the object dies.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_SUPPORT_SUBPROCESS_H
#define VERIOPT_SUPPORT_SUBPROCESS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>

namespace veriopt {

struct SubprocessOptions {
  /// argv[0] is the program (execvp semantics: PATH search applies when it
  /// contains no '/').
  std::vector<std::string> Argv;
  /// Wall-clock budget in ms; 0 = unlimited. On expiry the child's process
  /// group is SIGKILLed and the outcome is TimedOut.
  uint64_t DeadlineMs = 0;
  /// Stderr capture cap; anything beyond it is discarded (but still read,
  /// so the child never blocks on a full pipe) and flagged as truncated.
  size_t MaxStderrBytes = 64 * 1024;
};

enum class SubprocessOutcome {
  SpawnFailed, ///< fork/exec failed; see SpawnError
  Exited,      ///< normal exit; see ExitCode
  Signaled,    ///< terminated by a signal; see Signal
  TimedOut,    ///< deadline blown; SIGKILLed and reaped
};

const char *subprocessOutcomeName(SubprocessOutcome O);

struct SubprocessResult {
  SubprocessOutcome Outcome = SubprocessOutcome::SpawnFailed;
  int ExitCode = -1;          ///< valid when Exited
  int Signal = 0;             ///< valid when Signaled
  std::string SpawnError;     ///< valid when SpawnFailed
  std::string StderrCapture;  ///< first MaxStderrBytes of the child's stderr
  bool StderrTruncated = false;

  /// One-line description for diagnostics / quarantine records.
  std::string describe() const;
};

class Subprocess {
public:
  Subprocess() = default;
  ~Subprocess() { killAndReap(); }
  Subprocess(const Subprocess &) = delete;
  Subprocess &operator=(const Subprocess &) = delete;

  /// Fork/exec per \p Opts. Returns false (and finishes with SpawnFailed)
  /// when the child could not be started; the exec errno travels back over
  /// a CLOEXEC pipe so it is never conflated with the child's own exit.
  bool spawn(const SubprocessOptions &Opts);

  /// True between a successful spawn and the child being reaped.
  bool running() const { return Pid > 0 && !Finished; }

  /// Nonblocking progress: drain stderr, reap if exited, SIGKILL-escalate
  /// a blown deadline. Returns true once the child is finished.
  bool poll();

  /// Block until finished (EINTR-safe), honoring the deadline via poll().
  const SubprocessResult &wait();

  /// Only meaningful once finished (poll() returned true or wait()
  /// returned).
  const SubprocessResult &result() const { return Res; }
  bool finished() const { return Finished; }

  pid_t pid() const { return Pid; }

  /// The child's stderr read end (nonblocking), or -1. External
  /// supervisors can poll(2) it to sleep until something happens.
  int stderrFd() const { return ErrFd; }

  /// SIGKILL the child's process group (if the child is running) and reap
  /// the child. Safe to call repeatedly.
  void killAndReap();

private:
  void drainStderr();
  void reap(int Status, SubprocessOutcome O);

  pid_t Pid = -1;
  int ErrFd = -1;
  bool Finished = false;
  bool DeadlineKilled = false;
  uint64_t DeadlineMs = 0;
  size_t MaxStderrBytes = 0;
  std::chrono::steady_clock::time_point Start;
  SubprocessResult Res;
};

} // namespace veriopt

#endif // VERIOPT_SUPPORT_SUBPROCESS_H
