//===- CrashConsistencyTest.cpp - Torn-write crash-state enumeration ---------//
//
// ALICE-style crash-consistency fuzzing of the durable writers. A
// RecordingIoEnv captures the exact syscall sequence an operation issues
// (opens, the bytes of every write, fsyncs — file and parent-directory —
// renames, unlinks). A small persistence model then replays every prefix of
// that sequence and enumerates what the disk may legally hold if the
// process dies at that boundary:
//
//  * bytes written but not yet fsync'ed may be any prefix of the tail
//    (we materialize the synced length, a midpoint, and the full length);
//  * a rename not yet covered by a parent-directory fsync may or may not
//    have reached the disk (we materialize both).
//
// Against every materialized crash state we assert the recovery contracts:
//
//  * writeFileAtomic: the destination is the complete old payload or the
//    complete new payload — never torn, never empty-but-renamed. This is
//    exactly the fsync-before-rename discipline; drop the fsync and the
//    "rename applied, tail truncated" states fail here.
//  * appendFileDurable: the old bytes survive untouched and the tail is a
//    prefix of the appended payload (the documented torn-tail hazard that
//    CRC framing / .stream republication exist to absorb).
//  * VerdictStore journal (appends and compaction): every crash state
//    opens under quarantine-and-continue — never an error — and every
//    record it serves is bit-identical to what was put. Verdicts are
//    deterministic, so record-level bit-identity is precisely the warm-
//    store-equals-oracle property: a lookup either returns the exact bytes
//    a fault-free run would recompute, or misses and the run recomputes
//    them itself.
//
//===----------------------------------------------------------------------===//

#include "support/IoEnv.h"

#include "store/VerdictStore.h"
#include "support/AtomicFile.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

namespace veriopt {
namespace {

//===--- The persistence model -------------------------------------------------//

struct SimFile {
  std::string Content;
  size_t Synced = 0; ///< bytes guaranteed on disk (<= Content.size())
};

/// A rename that has happened in the page cache but is not yet covered by a
/// parent-directory fsync: the crash may revert it, resurfacing whatever
/// the destination held before.
struct PendingRename {
  std::string From, To;
  bool HadPrevTo = false;
  SimFile PrevTo;
};

struct SimFs {
  std::map<std::string, SimFile> Files;
  std::vector<PendingRename> Pending;

  void apply(const RecordingIoEnv::Op &O) {
    using Kind = RecordingIoEnv::Op::Kind;
    switch (O.K) {
    case Kind::Open:
      if (O.IsDir)
        break;
      if (O.Flags & O_TRUNC)
        Files[O.Path] = SimFile{};
      else
        Files.emplace(O.Path, SimFile{}); // create-if-absent (O_CREAT)
      break;
    case Kind::Write:
      // Every durable writer in the runtime appends (O_APPEND or a fresh
      // O_TRUNC temporary); none seeks backwards.
      Files[O.Path].Content += O.Data;
      break;
    case Kind::Fsync:
      if (O.IsDir) {
        Pending.clear(); // parent-dir fsync makes prior renames durable
      } else {
        auto It = Files.find(O.Path);
        if (It != Files.end())
          It->second.Synced = It->second.Content.size();
      }
      break;
    case Kind::Rename: {
      PendingRename PR;
      PR.From = O.Path;
      PR.To = O.Path2;
      auto To = Files.find(O.Path2);
      if (To != Files.end()) {
        PR.HadPrevTo = true;
        PR.PrevTo = To->second;
      }
      Files[O.Path2] = Files[O.Path];
      Files.erase(O.Path);
      Pending.push_back(std::move(PR));
      break;
    }
    case Kind::Unlink:
      Files.erase(O.Path);
      break;
    case Kind::Close:
    case Kind::Flock:
      break;
    }
  }
};

/// One materialized may-happen disk state: path -> bytes.
struct DiskState {
  std::map<std::string, std::string> Files;
  std::string Label;
};

enum class TailLen { Synced, Mid, Full };

DiskState materialize(const SimFs &Fs, TailLen L, bool RenamesApplied,
                      const std::string &Label) {
  // Revert un-fsynced renames in reverse order when the crash loses them:
  // the current bytes live under the old name again and the overwritten
  // destination (if any) resurfaces.
  std::map<std::string, SimFile> Files = Fs.Files;
  if (!RenamesApplied)
    for (auto It = Fs.Pending.rbegin(); It != Fs.Pending.rend(); ++It) {
      auto To = Files.find(It->To);
      if (To != Files.end()) {
        Files[It->From] = To->second;
        Files.erase(It->To);
      }
      if (It->HadPrevTo)
        Files[It->To] = It->PrevTo;
    }

  DiskState D;
  D.Label = Label;
  for (const auto &[Path, F] : Files) {
    size_t Len = F.Content.size();
    size_t Keep = L == TailLen::Synced ? F.Synced
                  : L == TailLen::Mid  ? F.Synced + (Len - F.Synced) / 2
                                       : Len;
    D.Files[Path] = F.Content.substr(0, Keep);
  }
  return D;
}

/// Every crash state of \p Ops starting from \p Initial: one per (prefix,
/// tail length, rename durability) combination.
std::vector<DiskState> crashStates(const SimFs &Initial,
                                   const std::vector<RecordingIoEnv::Op> &Ops) {
  std::vector<DiskState> Out;
  for (size_t K = 0; K <= Ops.size(); ++K) {
    SimFs Fs = Initial;
    for (size_t I = 0; I < K; ++I)
      Fs.apply(Ops[I]);
    for (TailLen L : {TailLen::Synced, TailLen::Mid, TailLen::Full})
      for (bool Applied : {false, true}) {
        std::string Label =
            "prefix " + std::to_string(K) + "/" + std::to_string(Ops.size()) +
            (L == TailLen::Synced ? ", tail=synced"
             : L == TailLen::Mid  ? ", tail=mid"
                                  : ", tail=full") +
            (Applied ? ", renames applied" : ", renames lost");
        Out.push_back(materialize(Fs, L, Applied, Label));
      }
  }
  return Out;
}

//===--- Fixture ---------------------------------------------------------------//

struct CrashConsistency : ::testing::Test {
  std::string Dir;

  void SetUp() override {
    char Tmpl[] = "/tmp/veriopt-crash-test-XXXXXX";
    ASSERT_NE(::mkdtemp(Tmpl), nullptr);
    Dir = Tmpl;
  }
  void TearDown() override {
    std::string Cmd = "rm -rf '" + Dir + "'";
    (void)std::system(Cmd.c_str());
  }

  std::string path(const std::string &Name) const { return Dir + "/" + Name; }

  static void spit(const std::string &P, const std::string &Text) {
    std::ofstream OS(P, std::ios::binary | std::ios::trunc);
    OS << Text;
  }

  /// Baseline state for a file that durably existed before the recording
  /// started.
  static SimFs baseline(const std::string &Path, const std::string &Content) {
    SimFs Fs;
    Fs.Files[Path] = {Content, Content.size()};
    return Fs;
  }
};

//===--- writeFileAtomic -------------------------------------------------------//

TEST_F(CrashConsistency, AtomicReplaceIsAllOrNothing) {
  const std::string P = path("replace.json");
  const std::string Old = "{\"v\":\"old\"}", New = "{\"v\":\"new-longer\"}";
  spit(P, Old);

  RecordingIoEnv Rec;
  {
    ScopedIoEnv Install(&Rec);
    ASSERT_TRUE(writeFileAtomic(P, New));
  }
  std::vector<RecordingIoEnv::Op> Ops = Rec.ops();
  ASSERT_FALSE(Ops.empty());

  size_t Checked = 0;
  for (const DiskState &D : crashStates(baseline(P, Old), Ops)) {
    auto It = D.Files.find(P);
    ASSERT_NE(It, D.Files.end())
        << D.Label << ": destination vanished entirely";
    EXPECT_TRUE(It->second == Old || It->second == New)
        << D.Label << ": torn destination (" << It->second.size()
        << " bytes)";
    ++Checked;
  }
  // Every syscall boundary was enumerated, in all tail/rename variants.
  EXPECT_EQ(Checked, (Ops.size() + 1) * 6);
}

TEST_F(CrashConsistency, AtomicWriteOfFreshFileIsCompleteOrAbsent) {
  const std::string P = path("fresh.json");
  const std::string New(1024, 'n');

  RecordingIoEnv Rec;
  {
    ScopedIoEnv Install(&Rec);
    ASSERT_TRUE(writeFileAtomic(P, New));
  }

  for (const DiskState &D : crashStates(SimFs{}, Rec.ops())) {
    auto It = D.Files.find(P);
    if (It != D.Files.end()) {
      EXPECT_EQ(It->second, New)
          << D.Label << ": a visible destination must be the full payload "
          << "(renamed-but-torn means the fsync-before-rename was skipped)";
    }
  }
}

//===--- appendFileDurable -----------------------------------------------------//

TEST_F(CrashConsistency, DurableAppendPreservesOldAndTearsOnlyTheTail) {
  const std::string P = path("journal.log");
  const std::string Old = "line-1\nline-2\n";
  const std::string Payload = "line-3\nline-4\n";
  spit(P, Old);

  RecordingIoEnv Rec;
  {
    ScopedIoEnv Install(&Rec);
    ASSERT_TRUE(appendFileDurable(P, Payload));
  }

  bool SawPartial = false, SawFull = false;
  for (const DiskState &D : crashStates(baseline(P, Old), Rec.ops())) {
    auto It = D.Files.find(P);
    ASSERT_NE(It, D.Files.end()) << D.Label;
    const std::string &Now = It->second;
    ASSERT_GE(Now.size(), Old.size())
        << D.Label << ": old bytes lost from an append-only file";
    EXPECT_EQ(Now.substr(0, Old.size()), Old) << D.Label;
    std::string Tail = Now.substr(Old.size());
    EXPECT_EQ(Payload.compare(0, Tail.size(), Tail), 0)
        << D.Label << ": tail is not a prefix of the payload";
    (Tail.size() == Payload.size() ? SawFull : SawPartial) = true;
  }
  // The enumeration must actually cover both torn and complete outcomes.
  EXPECT_TRUE(SawPartial);
  EXPECT_TRUE(SawFull);
}

//===--- VerdictStore: appends + compaction ------------------------------------//

VerifyResult record(uint64_t Salt) {
  VerifyResult R;
  R.Status = VerifyStatus::Equivalent;
  R.Kind = DiagKind::None;
  R.SolverConflicts = 0x0123456789ABCDEFull ^ Salt;
  R.FuelSpent = 0xFEDCBA9876543210ull + Salt;
  R.RetryTier = static_cast<unsigned>(Salt % 3);
  return R;
}

TEST_F(CrashConsistency, EveryJournalCrashStateLoadsAndServesExactRecords) {
  const std::string Journal = path("verdicts.vstore");
  const unsigned NumKeys = 6;

  // Record a full journal lifecycle: two flushed batches, then a
  // compaction (the atomic whole-file rewrite), then close.
  RecordingIoEnv Rec;
  {
    ScopedIoEnv Install(&Rec);
    std::string Err;
    auto Store = VerdictStore::open(Journal, &Err);
    ASSERT_NE(Store, nullptr) << Err;
    for (unsigned I = 0; I < NumKeys / 2; ++I)
      Store->put("crash-key-" + std::to_string(I), record(I));
    ASSERT_TRUE(Store->flush(&Err)) << Err;
    for (unsigned I = NumKeys / 2; I < NumKeys; ++I)
      Store->put("crash-key-" + std::to_string(I), record(I));
    ASSERT_TRUE(Store->flush(&Err)) << Err;
    ASSERT_TRUE(Store->compact(&Err)) << Err;
  }
  std::vector<RecordingIoEnv::Op> Ops = Rec.ops();
  ASSERT_FALSE(Ops.empty());

  const std::string Probe = path("probe.vstore");
  uint64_t FullStates = 0;
  for (const DiskState &D : crashStates(SimFs{}, Ops)) {
    // Materialize this crash state's journal at a fresh path and recover.
    std::remove(Probe.c_str());
    std::remove((Probe + ".lock").c_str());
    auto It = D.Files.find(Journal);
    if (It != D.Files.end())
      spit(Probe, It->second);

    std::string Err;
    auto Store = VerdictStore::open(Probe, &Err);
    ASSERT_NE(Store, nullptr)
        << D.Label << ": crash state failed to load: " << Err;

    // Quarantine-and-continue may drop torn records, never invent or
    // corrupt them: every served verdict is bit-identical to what was put.
    uint64_t Served = 0;
    for (unsigned I = 0; I < NumKeys; ++I) {
      const std::string Key = "crash-key-" + std::to_string(I);
      VerifyResult Out;
      if (!Store->lookup(Key, Out))
        continue;
      ++Served;
      EXPECT_EQ(VerdictStore::encodeRecord(Key, Out),
                VerdictStore::encodeRecord(Key, record(I)))
          << D.Label << ": " << Key << " came back different — the warm "
          << "store would diverge from the recompute oracle";
    }
    EXPECT_LE(Served, NumKeys) << D.Label;
    EXPECT_LE(Store->stats().LiveAtOpen, NumKeys) << D.Label;
    if (Served == NumKeys)
      ++FullStates;
  }
  // The final boundary (everything flushed and compacted) must serve the
  // complete record set — durability loss is bounded by what was pending.
  EXPECT_GT(FullStates, 0u);

  std::remove(Probe.c_str());
  std::remove((Probe + ".lock").c_str());
}

} // namespace
} // namespace veriopt
