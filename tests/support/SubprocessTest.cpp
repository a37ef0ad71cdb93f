//===- SubprocessTest.cpp - Supervised child-process primitive tests ---------//
//
// Exercises the failure modes the eval driver's retry policy keys off:
// exit-code propagation, crash signals, deadline SIGKILL escalation,
// EINTR-interrupted waits, bounded stderr capture, spawn failure, and
// zombie-free destruction.
//
//===----------------------------------------------------------------------===//

#include "support/Subprocess.h"

#include "gtest/gtest.h"

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

namespace veriopt {
namespace {

SubprocessOptions sh(const std::string &Script, uint64_t DeadlineMs = 0) {
  SubprocessOptions O;
  O.Argv = {"/bin/sh", "-c", Script};
  O.DeadlineMs = DeadlineMs;
  return O;
}

TEST(Subprocess, PropagatesExitCode) {
  Subprocess P;
  ASSERT_TRUE(P.spawn(sh("exit 0")));
  SubprocessResult R = P.wait();
  EXPECT_EQ(R.Outcome, SubprocessOutcome::Exited);
  EXPECT_EQ(R.ExitCode, 0);

  Subprocess Q;
  ASSERT_TRUE(Q.spawn(sh("exit 42")));
  R = Q.wait();
  EXPECT_EQ(R.Outcome, SubprocessOutcome::Exited);
  EXPECT_EQ(R.ExitCode, 42);
}

TEST(Subprocess, ReportsCrashSignal) {
  Subprocess P;
  ASSERT_TRUE(P.spawn(sh("kill -ABRT $$")));
  SubprocessResult R = P.wait();
  EXPECT_EQ(R.Outcome, SubprocessOutcome::Signaled);
  EXPECT_EQ(R.Signal, SIGABRT);
  EXPECT_NE(R.describe().find("signal"), std::string::npos);
}

TEST(Subprocess, DeadlineEscalatesToSigkill) {
  Subprocess P;
  // The child ignores polite signals; only SIGKILL can end it. A blown
  // deadline must therefore escalate straight to SIGKILL.
  ASSERT_TRUE(P.spawn(sh("trap '' TERM INT; sleep 30", /*DeadlineMs=*/200)));
  SubprocessResult R = P.wait();
  EXPECT_EQ(R.Outcome, SubprocessOutcome::TimedOut);
  EXPECT_FALSE(P.running());
  // Reaped: waitpid on the pid from outside finds nothing.
  EXPECT_EQ(::waitpid(P.pid(), nullptr, WNOHANG), -1);
}

/// Alive = exists and is not a zombie (an orphaned zombie waits on a reaper
/// the test does not control).
bool aliveNotZombie(pid_t Pid) {
  if (::kill(Pid, 0) != 0)
    return false;
  std::ifstream Stat("/proc/" + std::to_string(Pid) + "/stat");
  std::string Line;
  std::getline(Stat, Line);
  size_t Paren = Line.rfind(')');
  return Paren == std::string::npos || Paren + 2 >= Line.size() ||
         Line[Paren + 2] != 'Z';
}

TEST(Subprocess, DeadlineKillsBackgroundedGrandchildren) {
  // The child backgrounds a long sleep and ignores polite signals. The
  // blown deadline must take the grandchild down too: a survivor would keep
  // the inherited stderr pipe (and the test runner's pipes) open for 30 s.
  Subprocess P;
  ASSERT_TRUE(P.spawn(sh("trap '' TERM INT; sleep 30 & echo $! >&2; wait",
                         /*DeadlineMs=*/200)));
  SubprocessResult R = P.wait();
  EXPECT_EQ(R.Outcome, SubprocessOutcome::TimedOut);
  pid_t Grandchild = static_cast<pid_t>(std::atoi(R.StderrCapture.c_str()));
  ASSERT_GT(Grandchild, 0) << "stderr: " << R.StderrCapture;
  // SIGKILL delivery is asynchronous; give it a bounded moment.
  for (int I = 0; I < 200 && aliveNotZombie(Grandchild); ++I)
    ::usleep(5000);
  EXPECT_FALSE(aliveNotZombie(Grandchild));
}

TEST(Subprocess, WaitSurvivesEintr) {
  // Pepper the blocking wait with SIGALRM so its internal poll/nanosleep
  // syscalls keep getting interrupted; wait() must retry, not bail.
  struct sigaction SA = {}, Old = {};
  SA.sa_handler = [](int) {};
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0; // no SA_RESTART: syscalls really fail with EINTR
  ASSERT_EQ(sigaction(SIGALRM, &SA, &Old), 0);
  itimerval Tick = {};
  Tick.it_interval.tv_usec = 5000; // every 5ms
  Tick.it_value.tv_usec = 5000;
  ASSERT_EQ(setitimer(ITIMER_REAL, &Tick, nullptr), 0);

  Subprocess P;
  ASSERT_TRUE(P.spawn(sh("sleep 0.3; exit 7")));
  SubprocessResult R = P.wait();

  itimerval Off = {};
  setitimer(ITIMER_REAL, &Off, nullptr);
  sigaction(SIGALRM, &Old, nullptr);

  EXPECT_EQ(R.Outcome, SubprocessOutcome::Exited);
  EXPECT_EQ(R.ExitCode, 7);
}

TEST(Subprocess, CapturesStderr) {
  Subprocess P;
  ASSERT_TRUE(P.spawn(sh("echo oops-diagnostic >&2; exit 3")));
  SubprocessResult R = P.wait();
  EXPECT_EQ(R.ExitCode, 3);
  EXPECT_NE(R.StderrCapture.find("oops-diagnostic"), std::string::npos);
  EXPECT_FALSE(R.StderrTruncated);
}

TEST(Subprocess, TruncatesUnboundedStderr) {
  SubprocessOptions O = sh("i=0; while [ $i -lt 200 ]; do "
                           "echo abcdefghijklmnopqrstuvwxyz >&2; "
                           "i=$((i+1)); done");
  O.MaxStderrBytes = 100;
  Subprocess P;
  ASSERT_TRUE(P.spawn(O));
  SubprocessResult R = P.wait();
  EXPECT_EQ(R.Outcome, SubprocessOutcome::Exited);
  // The cap bounds the capture; the rest was still drained (the child
  // finished instead of blocking on a full pipe) but flagged truncated.
  EXPECT_EQ(R.StderrCapture.size(), 100u);
  EXPECT_TRUE(R.StderrTruncated);
}

TEST(Subprocess, SpawnFailureIsTypedNotExit127) {
  Subprocess P;
  SubprocessOptions O;
  O.Argv = {"/nonexistent/veriopt-no-such-binary"};
  EXPECT_FALSE(P.spawn(O));
  EXPECT_TRUE(P.finished());
  EXPECT_EQ(P.result().Outcome, SubprocessOutcome::SpawnFailed);
  EXPECT_FALSE(P.result().SpawnError.empty());

  // Contrast: a shell exiting 127 on its own is a normal exit, not a
  // spawn failure — the CLOEXEC exec-errno pipe is what separates them.
  Subprocess Q;
  ASSERT_TRUE(Q.spawn(sh("exit 127")));
  EXPECT_EQ(Q.wait().Outcome, SubprocessOutcome::Exited);
  EXPECT_EQ(Q.result().ExitCode, 127);
}

TEST(Subprocess, DestructorReapsRunningChild) {
  pid_t Child = -1;
  {
    Subprocess P;
    ASSERT_TRUE(P.spawn(sh("sleep 30")));
    Child = P.pid();
    ASSERT_GT(Child, 0);
    // P goes out of scope while the child is still running.
  }
  // No zombie left behind: the pid is gone (kill(0) probes existence).
  EXPECT_EQ(::kill(Child, 0), -1);
  EXPECT_EQ(::waitpid(Child, nullptr, WNOHANG), -1);
}

TEST(Subprocess, PollIsNonblockingUntilExit) {
  Subprocess P;
  ASSERT_TRUE(P.spawn(sh("sleep 0.2; exit 5")));
  // Immediately after spawn the child is still up; poll() must say "not
  // finished" without blocking for the full 200ms.
  EXPECT_FALSE(P.poll());
  EXPECT_TRUE(P.running());
  while (!P.poll())
    ::usleep(10000);
  EXPECT_EQ(P.result().Outcome, SubprocessOutcome::Exited);
  EXPECT_EQ(P.result().ExitCode, 5);
}

TEST(Subprocess, KillAndReapIsIdempotent) {
  Subprocess P;
  ASSERT_TRUE(P.spawn(sh("sleep 30")));
  P.killAndReap();
  EXPECT_TRUE(P.finished());
  EXPECT_EQ(P.result().Outcome, SubprocessOutcome::Signaled);
  EXPECT_EQ(P.result().Signal, SIGKILL);
  P.killAndReap(); // second call must be a no-op
  EXPECT_TRUE(P.finished());
}

} // namespace
} // namespace veriopt
