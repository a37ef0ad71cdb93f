//===- FileLock.cpp - RAII flock(2) advisory file lock ------------------------//

#include "support/FileLock.h"

#include "support/IoEnv.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

namespace veriopt {

namespace {

void setErr(std::string *Err, const char *Step) {
  if (Err)
    *Err = std::string(Step) + ": " + std::strerror(errno);
}

} // namespace

bool FileLock::acquire(const std::string &Path, Mode M, bool NonBlocking,
                       bool &Contended, std::string *Err) {
  unlock();
  Contended = false;

  IoEnv &Io = *IoEnv::current();
  int NewFd;
  do
    NewFd = Io.open(Path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  while (NewFd < 0 && errno == EINTR);
  if (NewFd < 0) {
    setErr(Err, "open lock file");
    return false;
  }

  int Op = (M == Mode::Shared ? LOCK_SH : LOCK_EX);
  if (NonBlocking)
    Op |= LOCK_NB;
  int R;
  do
    R = Io.flock(NewFd, Op);
  while (R != 0 && errno == EINTR);
  if (R != 0) {
    if (NonBlocking && errno == EWOULDBLOCK) {
      Io.close(NewFd);
      Contended = true;
      return true;
    }
    setErr(Err, "flock");
    Io.close(NewFd);
    return false;
  }

  Fd = NewFd;
  LockPath = Path;
  return true;
}

bool FileLock::lock(const std::string &Path, Mode M, std::string *Err) {
  bool Contended = false;
  return acquire(Path, M, /*NonBlocking=*/false, Contended, Err);
}

bool FileLock::tryLock(const std::string &Path, Mode M, bool &Contended,
                       std::string *Err) {
  if (!acquire(Path, M, /*NonBlocking=*/true, Contended, Err))
    return false;
  return true;
}

void FileLock::unlock() {
  if (Fd < 0)
    return;
  // Closing the descriptor releases the flock; no explicit LOCK_UN needed
  // (and the kernel does the same on crash, which is the recovery story).
  // The close goes through the env that opened it, so a FaultyIoEnv stops
  // attributing this descriptor number to the lock file.
  IoEnv::current()->close(Fd);
  Fd = -1;
  LockPath.clear();
}

} // namespace veriopt
