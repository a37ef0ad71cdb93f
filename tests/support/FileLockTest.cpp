//===- FileLockTest.cpp - Cross-process advisory lock tests ------------------//
//
// In-process semantics (shared/shared coexistence, exclusive mutual
// exclusion, RAII release, move transfer) plus the test that actually
// matters for a cross-process primitive: a second *process* (a forked
// child) observes contention while this process holds the lock and
// acquisition after it releases.
//
//===----------------------------------------------------------------------===//

#include "support/FileLock.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

namespace veriopt {
namespace {

struct ScratchLock {
  std::string Path;
  explicit ScratchLock(const std::string &Name)
      : Path("/tmp/veriopt_filelock_test_" + std::to_string(::getpid()) +
             "_" + Name) {
    std::remove(Path.c_str());
  }
  ~ScratchLock() { std::remove(Path.c_str()); }
};

TEST(FileLock, AcquireReleaseBasics) {
  ScratchLock F("basics");
  FileLock L;
  EXPECT_FALSE(L.held());
  std::string Err;
  ASSERT_TRUE(L.lock(F.Path, FileLock::Mode::Exclusive, &Err)) << Err;
  EXPECT_TRUE(L.held());
  EXPECT_EQ(L.path(), F.Path);
  L.unlock();
  EXPECT_FALSE(L.held());
  // Re-acquisition after release works.
  ASSERT_TRUE(L.lock(F.Path, FileLock::Mode::Shared, &Err)) << Err;
  EXPECT_TRUE(L.held());
}

TEST(FileLock, SharedLocksCoexistExclusiveDoesNot) {
  ScratchLock F("modes");
  FileLock A, B;
  ASSERT_TRUE(A.lock(F.Path, FileLock::Mode::Shared));
  bool Contended = true;
  ASSERT_TRUE(B.tryLock(F.Path, FileLock::Mode::Shared, Contended));
  EXPECT_FALSE(Contended); // two readers share

  FileLock C;
  ASSERT_TRUE(C.tryLock(F.Path, FileLock::Mode::Exclusive, Contended));
  EXPECT_TRUE(Contended); // a writer cannot join readers
  EXPECT_FALSE(C.held());

  A.unlock();
  B.unlock();
  ASSERT_TRUE(C.tryLock(F.Path, FileLock::Mode::Exclusive, Contended));
  EXPECT_FALSE(Contended);
  EXPECT_TRUE(C.held());
}

TEST(FileLock, DestructorReleases) {
  ScratchLock F("raii");
  {
    FileLock L;
    ASSERT_TRUE(L.lock(F.Path, FileLock::Mode::Exclusive));
  }
  FileLock M;
  bool Contended = true;
  ASSERT_TRUE(M.tryLock(F.Path, FileLock::Mode::Exclusive, Contended));
  EXPECT_FALSE(Contended);
}

TEST(FileLock, MoveTransfersOwnership) {
  ScratchLock F("move");
  FileLock A;
  ASSERT_TRUE(A.lock(F.Path, FileLock::Mode::Exclusive));
  FileLock B = std::move(A);
  EXPECT_FALSE(A.held());
  EXPECT_TRUE(B.held());
  // Still exclusively held by B.
  FileLock C;
  bool Contended = false;
  ASSERT_TRUE(C.tryLock(F.Path, FileLock::Mode::Exclusive, Contended));
  EXPECT_TRUE(Contended);
}

TEST(FileLock, ErrorNamesUnopenablePath) {
  FileLock L;
  std::string Err;
  EXPECT_FALSE(L.lock("/nonexistent-dir/x.lock", FileLock::Mode::Exclusive,
                      &Err));
  EXPECT_FALSE(L.held());
  EXPECT_FALSE(Err.empty());
}

TEST(FileLock, PathThroughRegularFileFailsTyped) {
  // A lock path whose parent "directory" is actually a regular file is a
  // real I/O error (ENOTDIR), not contention: lock() must fail with the
  // open step named. (Tests run as root, so an unwritable-permissions file
  // cannot model this — chmod is ignored; a file-as-directory cannot be.)
  ScratchLock F("notdir");
  {
    std::ofstream OS(F.Path);
    OS << "a regular file, not a directory";
  }
  FileLock L;
  std::string Err;
  EXPECT_FALSE(L.lock(F.Path + "/x.lock", FileLock::Mode::Exclusive, &Err));
  EXPECT_FALSE(L.held());
  EXPECT_NE(Err.find("open lock file"), std::string::npos) << Err;
}

TEST(FileLock, SurvivesLockFileUnlinkedMidHold) {
  // An operator (or an overeager cleanup job) unlinking the lock file out
  // from under a holder must never wedge the runtime: the holder's flock
  // rides the now-anonymous inode and releases normally, and the next
  // acquirer transparently recreates the file and proceeds. The cost is
  // the documented advisory-lock caveat — the new file is a new inode, so
  // exclusion against the old holder is lost, never liveness.
  ScratchLock F("unlinked");
  FileLock A;
  ASSERT_TRUE(A.lock(F.Path, FileLock::Mode::Exclusive));
  ASSERT_EQ(::unlink(F.Path.c_str()), 0);

  FileLock B;
  bool Contended = true;
  std::string Err;
  ASSERT_TRUE(B.tryLock(F.Path, FileLock::Mode::Exclusive, Contended, &Err))
      << Err;
  EXPECT_FALSE(Contended); // fresh inode: the old hold cannot exclude it
  EXPECT_TRUE(B.held());

  A.unlock(); // releasing the unlinked inode's lock must not error/crash
  B.unlock();
  // And a clean reacquire on the recreated file works end to end.
  ASSERT_TRUE(A.lock(F.Path, FileLock::Mode::Exclusive, &Err)) << Err;
}

/// The cross-process arm: a forked child tries a non-blocking exclusive
/// flock and exits 0 (acquired), 7 (contended) or 5 (the attempt failed).
/// flock is per-open-file-description, so only another process can prove
/// the lock excludes the rest of the fleet.
TEST(FileLock, SecondProcessObservesContention) {
  ScratchLock F("xproc");
  auto Probe = [&] {
    const pid_t Pid = ::fork();
    if (Pid == 0) {
      FileLock Child;
      bool Contended = false;
      if (!Child.tryLock(F.Path, FileLock::Mode::Exclusive, Contended))
        ::_exit(5);
      ::_exit(Contended ? 7 : 0); // no atexit handlers, no gtest teardown
    }
    if (Pid < 0) {
      ADD_FAILURE() << "fork failed";
      return -1;
    }
    int Status = 0;
    EXPECT_EQ(::waitpid(Pid, &Status, 0), Pid);
    EXPECT_TRUE(WIFEXITED(Status)) << "status " << Status;
    return WEXITSTATUS(Status);
  };

  FileLock L;
  ASSERT_TRUE(L.lock(F.Path, FileLock::Mode::Exclusive));
  EXPECT_EQ(Probe(), 7); // held here -> the other process is locked out

  L.unlock();
  EXPECT_EQ(Probe(), 0); // released -> the other process acquires
}

} // namespace
} // namespace veriopt
