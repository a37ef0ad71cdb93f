//===- Subprocess.cpp - Supervised child processes ----------------------------//

#include "support/Subprocess.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

namespace veriopt {

const char *subprocessOutcomeName(SubprocessOutcome O) {
  switch (O) {
  case SubprocessOutcome::SpawnFailed:
    return "spawn-failed";
  case SubprocessOutcome::Exited:
    return "exited";
  case SubprocessOutcome::Signaled:
    return "signaled";
  case SubprocessOutcome::TimedOut:
    return "timed-out";
  }
  return "unknown";
}

std::string SubprocessResult::describe() const {
  switch (Outcome) {
  case SubprocessOutcome::SpawnFailed:
    return "spawn failed: " + SpawnError;
  case SubprocessOutcome::Exited:
    return "exited with code " + std::to_string(ExitCode);
  case SubprocessOutcome::Signaled:
    return "killed by signal " + std::to_string(Signal);
  case SubprocessOutcome::TimedOut:
    return "deadline exceeded (SIGKILLed)";
  }
  return "unknown";
}

namespace {

/// SIGKILL the child's whole process group — it leads one (see spawn), and
/// the exec handshake guarantees it did so before spawn returned — so the
/// grandchildren it started die with it instead of outliving the
/// supervisor with inherited pipes held open.
void killGroup(pid_t Pid) {
  if (::killpg(Pid, SIGKILL) < 0)
    ::kill(Pid, SIGKILL);
}

/// EINTR-safe read.
ssize_t readRetry(int Fd, void *Buf, size_t N) {
  ssize_t R;
  do
    R = ::read(Fd, Buf, N);
  while (R < 0 && errno == EINTR);
  return R;
}

void closeQuiet(int &Fd) {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

} // namespace

bool Subprocess::spawn(const SubprocessOptions &Opts) {
  Res = SubprocessResult();
  Finished = false;
  DeadlineKilled = false;
  DeadlineMs = Opts.DeadlineMs;
  MaxStderrBytes = Opts.MaxStderrBytes;

  if (Opts.Argv.empty()) {
    Res.Outcome = SubprocessOutcome::SpawnFailed;
    Res.SpawnError = "empty argv";
    Finished = true;
    return false;
  }

  // Stderr capture pipe + the classic CLOEXEC exec-errno pipe: if exec
  // succeeds the write end closes on exec and the parent reads EOF; if it
  // fails the child writes errno, which the parent can report verbatim.
  int ErrPipe[2] = {-1, -1}, ExecPipe[2] = {-1, -1};
  if (::pipe(ErrPipe) != 0) {
    Res.Outcome = SubprocessOutcome::SpawnFailed;
    Res.SpawnError = std::string("pipe: ") + std::strerror(errno);
    Finished = true;
    return false;
  }
  if (::pipe(ExecPipe) != 0) {
    Res.Outcome = SubprocessOutcome::SpawnFailed;
    Res.SpawnError = std::string("pipe: ") + std::strerror(errno);
    ::close(ErrPipe[0]);
    ::close(ErrPipe[1]);
    Finished = true;
    return false;
  }
  ::fcntl(ExecPipe[1], F_SETFD, FD_CLOEXEC);

  std::vector<char *> Argv;
  Argv.reserve(Opts.Argv.size() + 1);
  for (const std::string &A : Opts.Argv)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);

  pid_t Child = ::fork();
  if (Child < 0) {
    Res.Outcome = SubprocessOutcome::SpawnFailed;
    Res.SpawnError = std::string("fork: ") + std::strerror(errno);
    ::close(ErrPipe[0]);
    ::close(ErrPipe[1]);
    ::close(ExecPipe[0]);
    ::close(ExecPipe[1]);
    Finished = true;
    return false;
  }
  if (Child == 0) {
    // Child: lead a fresh process group (so a deadline kill reaches every
    // descendant), stderr -> capture pipe, then exec. Only
    // async-signal-safe calls between fork and exec.
    ::setpgid(0, 0);
    ::close(ErrPipe[0]);
    ::close(ExecPipe[0]);
    while (::dup2(ErrPipe[1], STDERR_FILENO) < 0 && errno == EINTR) {
    }
    ::close(ErrPipe[1]);
    ::execvp(Argv[0], Argv.data());
    int E = errno;
    ssize_t W = ::write(ExecPipe[1], &E, sizeof(E));
    (void)W;
    ::_exit(127);
  }

  // Parent.
  ::close(ErrPipe[1]);
  ::close(ExecPipe[1]);
  ErrFd = ErrPipe[0];
  ::fcntl(ErrFd, F_SETFL, O_NONBLOCK);
  ::fcntl(ErrFd, F_SETFD, FD_CLOEXEC);

  int ExecErrno = 0;
  ssize_t N = readRetry(ExecPipe[0], &ExecErrno, sizeof(ExecErrno));
  ::close(ExecPipe[0]);
  if (N > 0) {
    // exec failed in the child; reap it and report the real reason.
    int Status = 0;
    pid_t R;
    do
      R = ::waitpid(Child, &Status, 0);
    while (R < 0 && errno == EINTR);
    closeQuiet(ErrFd);
    Res.Outcome = SubprocessOutcome::SpawnFailed;
    Res.SpawnError = "exec '" + Opts.Argv[0] +
                     "': " + std::strerror(ExecErrno);
    Finished = true;
    return false;
  }

  Pid = Child;
  Start = std::chrono::steady_clock::now();
  return true;
}

void Subprocess::drainStderr() {
  if (ErrFd < 0)
    return;
  char Buf[4096];
  for (;;) {
    ssize_t N = readRetry(ErrFd, Buf, sizeof(Buf));
    if (N < 0) {
      // EAGAIN: nothing more right now; pipe stays open.
      return;
    }
    if (N == 0) {
      closeQuiet(ErrFd);
      return;
    }
    if (Res.StderrCapture.size() < MaxStderrBytes) {
      size_t Room = MaxStderrBytes - Res.StderrCapture.size();
      size_t Take = std::min(Room, static_cast<size_t>(N));
      Res.StderrCapture.append(Buf, Take);
      if (Take < static_cast<size_t>(N))
        Res.StderrTruncated = true;
    } else if (N > 0) {
      Res.StderrTruncated = true;
    }
  }
}

void Subprocess::reap(int Status, SubprocessOutcome Forced) {
  if (Forced == SubprocessOutcome::TimedOut) {
    Res.Outcome = SubprocessOutcome::TimedOut;
    Res.Signal = SIGKILL;
  } else if (WIFEXITED(Status)) {
    Res.Outcome = SubprocessOutcome::Exited;
    Res.ExitCode = WEXITSTATUS(Status);
  } else if (WIFSIGNALED(Status)) {
    Res.Outcome = SubprocessOutcome::Signaled;
    Res.Signal = WTERMSIG(Status);
  } else {
    Res.Outcome = SubprocessOutcome::Signaled;
    Res.Signal = 0;
  }
  // Final stderr drain: anything written before exit is still in the pipe.
  drainStderr();
  closeQuiet(ErrFd);
  Finished = true;
  Pid = -1;
}

bool Subprocess::poll() {
  if (Finished)
    return true;
  if (Pid <= 0) {
    Finished = true;
    return true;
  }

  drainStderr();

  int Status = 0;
  pid_t R;
  do
    R = ::waitpid(Pid, &Status, WNOHANG);
  while (R < 0 && errno == EINTR);
  if (R == Pid) {
    reap(Status, DeadlineKilled ? SubprocessOutcome::TimedOut
                                : SubprocessOutcome::Exited);
    // reap() refines Exited vs Signaled from Status unless deadline-killed.
    return true;
  }

  if (DeadlineMs > 0 && !DeadlineKilled) {
    auto Elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
    if (static_cast<uint64_t>(Elapsed) >= DeadlineMs) {
      killGroup(Pid);
      DeadlineKilled = true;
      // The next waitpid (here or in wait()) reaps it as TimedOut.
    }
  }
  return false;
}

const SubprocessResult &Subprocess::wait() {
  while (!poll()) {
    // Sleep until stderr activity, child exit (pipe EOF), or a timeslice
    // toward the deadline check. poll(2) returning EINTR is fine: the loop
    // re-polls.
    struct pollfd P;
    P.fd = ErrFd;
    P.events = POLLIN;
    int Timeout = 10; // ms; bounds deadline-check latency
    if (ErrFd >= 0)
      ::poll(&P, 1, Timeout);
    else {
      struct timespec TS = {0, 10 * 1000 * 1000};
      ::nanosleep(&TS, nullptr);
    }
  }
  return Res;
}

void Subprocess::killAndReap() {
  if (!Finished && Pid > 0) {
    killGroup(Pid);
    int Status = 0;
    pid_t R;
    do
      R = ::waitpid(Pid, &Status, 0);
    while (R < 0 && errno == EINTR);
    reap(Status, DeadlineKilled ? SubprocessOutcome::TimedOut
                                : SubprocessOutcome::Exited);
  }
  closeQuiet(ErrFd);
}

} // namespace veriopt
