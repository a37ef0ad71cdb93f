//===- VerdictStore.cpp - Durable content-addressed verdict store -------------//

#include "store/VerdictStore.h"

#include "support/AtomicFile.h"
#include "support/FileLock.h"
#include "trace/Json.h"
#include "trace/Metrics.h"
#include "trace/Trace.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include <sys/stat.h>

namespace veriopt {

namespace {

/// Compact at open when (dead + quarantined) / journal lines exceeds this
/// ratio (dead = superseded duplicates from multi-writer races)...
constexpr double CompactDeadRatio = 0.5;
/// ... but never below this many journal lines (tiny journals are not
/// worth rewriting).
constexpr size_t CompactMinLines = 64;
/// Graceful degradation: this many *consecutive* flush failures trip the
/// store to in-memory-only (see flush()).
constexpr size_t DegradeAfterFlushFailures = 3;

// Process-wide efficacy counters (docs/OBSERVABILITY.md), mirroring the
// per-store Stats the same way VerifyCache mirrors its Counters.
Counter &hitsCounter() {
  static Counter &C = MetricsRegistry::global().counter("store.hits");
  return C;
}
Counter &missesCounter() {
  static Counter &C = MetricsRegistry::global().counter("store.misses");
  return C;
}
Counter &writesCounter() {
  static Counter &C = MetricsRegistry::global().counter("store.writes");
  return C;
}
Counter &compactionsCounter() {
  static Counter &C = MetricsRegistry::global().counter("store.compactions");
  return C;
}
Counter &quarantinedCounter() {
  static Counter &C = MetricsRegistry::global().counter("store.quarantined");
  return C;
}
// Durability-plane instruments ("io." prefix: excluded from the
// deterministic trace plane, docs/OBSERVABILITY.md) — I/O faults move
// these, never the store.* efficacy counters above.
Counter &flushFailuresCounter() {
  static Counter &C =
      MetricsRegistry::global().counter("io.store.flush_failures");
  return C;
}
Gauge &degradedGauge() {
  static Gauge &G = MetricsRegistry::global().gauge("io.store.degraded");
  return G;
}

uint64_t fileSize(const std::string &Path) {
  struct stat St;
  if (::stat(Path.c_str(), &St) != 0)
    return 0;
  return static_cast<uint64_t>(St.st_size);
}

bool readWholeFile(const std::string &Path, std::string &Out) {
  std::ifstream F(Path, std::ios::binary);
  if (!F)
    return false;
  std::ostringstream SS;
  SS << F.rdbuf();
  Out = SS.str();
  return true;
}

} // namespace

const char *VerdictStore::headerLine() { return "veriopt-verdict-store 1"; }

uint32_t VerdictStore::crc32(const std::string &Data) {
  // IEEE 802.3 reflected CRC-32 (polynomial 0xEDB88320), table-driven.
  static const auto Table = [] {
    std::array<uint32_t, 256> T{};
    for (uint32_t I = 0; I < 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
      T[I] = C;
    }
    return T;
  }();
  uint32_t C = 0xFFFFFFFFu;
  for (unsigned char B : Data)
    C = Table[(C ^ B) & 0xFFu] ^ (C >> 8);
  return C ^ 0xFFFFFFFFu;
}

std::string VerdictStore::encodeRecord(const std::string &Key,
                                       const VerifyResult &R) {
  // Single-line JSON payload, fixed field order so encoding is
  // deterministic. jsonEscape keeps the key (which embeds \x1f separators
  // and IR newlines) on one physical line.
  std::string P = "{\"key\":" + jsonString(Key);
  P += ",\"status\":" + jsonString(verifyStatusName(R.Status));
  P += ",\"diag\":" + jsonString(diagKindName(R.Kind));
  P += ",\"text\":" + jsonString(R.Diagnostic);
  P += ",\"cex\":[";
  for (size_t I = 0; I < R.Counterexample.size(); ++I) {
    const CexBinding &B = R.Counterexample[I];
    if (I)
      P.push_back(',');
    P += "{\"n\":" + jsonString(B.Name) +
         ",\"w\":" + std::to_string(B.Value.width()) +
         ",\"v\":" + jsonString(hex64(B.Value.zext())) + "}";
  }
  P += "],\"bounded\":";
  P += R.BoundedOnly ? "true" : "false";
  P += ",\"falsified\":";
  P += R.FoundByFalsification ? "true" : "false";
  P += ",\"conflicts\":" + jsonString(hex64(R.SolverConflicts));
  P += ",\"fuel\":" + jsonString(hex64(R.FuelSpent));
  P += ",\"tier\":" + std::to_string(R.RetryTier);
  P.push_back('}');

  char Crc[9];
  std::snprintf(Crc, sizeof(Crc), "%08x", crc32(P));
  return std::string("R ") + Crc + " " + P + "\n";
}

bool VerdictStore::decodeRecord(const std::string &Line, std::string &Key,
                                VerifyResult &R) {
  // Frame: "R <8 hex> <payload>". Anything else — wrong tag, short line,
  // malformed CRC field — is a garbage frame.
  if (Line.size() < 12 || Line[0] != 'R' || Line[1] != ' ' || Line[10] != ' ')
    return false;
  uint32_t Crc = 0;
  for (size_t I = 2; I < 10; ++I) {
    char C = Line[I];
    Crc <<= 4;
    if (C >= '0' && C <= '9')
      Crc |= static_cast<uint32_t>(C - '0');
    else if (C >= 'a' && C <= 'f')
      Crc |= static_cast<uint32_t>(C - 'a' + 10);
    else
      return false;
  }
  std::string Payload = Line.substr(11);
  if (crc32(Payload) != Crc)
    return false;

  JsonValue V;
  std::string Err;
  if (!parseJson(Payload, V, &Err) || !V.isObject())
    return false;

  const JsonValue *K = V.get("key");
  const JsonValue *Status = V.get("status");
  const JsonValue *Diag = V.get("diag");
  const JsonValue *Text = V.get("text");
  const JsonValue *Cex = V.get("cex");
  const JsonValue *Bounded = V.get("bounded");
  const JsonValue *Falsified = V.get("falsified");
  if (!K || !K->isString() || !Status || !Status->isString() || !Diag ||
      !Diag->isString() || !Text || !Text->isString() || !Cex ||
      !Cex->isArray() || !Bounded || !Bounded->isBool() || !Falsified ||
      !Falsified->isBool())
    return false;

  VerifyResult Out;
  if (!verifyStatusFromName(Status->str(), Out.Status) ||
      !diagKindFromName(Diag->str(), Out.Kind))
    return false;
  Out.Diagnostic = Text->str();
  for (const JsonValue &BJ : Cex->array()) {
    if (!BJ.isObject())
      return false;
    const JsonValue *N = BJ.get("n");
    uint64_t W = 0, Bits = 0;
    if (!N || !N->isString() || !jsonCountField(BJ, "w", W) || W < 1 ||
        W > 64 || !jsonHex64Field(BJ, "v", Bits))
      return false;
    // Reject bits above the declared width: APInt64's invariant, and a
    // cheap extra integrity check beyond the CRC.
    if (W < 64 && (Bits >> W) != 0)
      return false;
    CexBinding B;
    B.Name = N->str();
    B.Value = APInt64(static_cast<unsigned>(W), Bits);
    Out.Counterexample.push_back(std::move(B));
  }
  Out.BoundedOnly = Bounded->boolean();
  Out.FoundByFalsification = Falsified->boolean();
  uint64_t Tier = 0;
  if (!jsonHex64Field(V, "conflicts", Out.SolverConflicts) ||
      !jsonHex64Field(V, "fuel", Out.FuelSpent) ||
      !jsonCountField(V, "tier", Tier) || Tier > 0xFFFFFFFFull)
    return false;
  Out.RetryTier = static_cast<unsigned>(Tier);

  Key = K->str();
  R = std::move(Out);
  return true;
}

bool VerdictStore::eligible(const VerifyResult &R) {
  switch (R.Status) {
  case VerifyStatus::Equivalent:
  case VerifyStatus::NotEquivalent:
  case VerifyStatus::SyntaxError:
    // Proven, falsified, and unparseable are all pure functions of the
    // (source, candidate, budget) key.
    return true;
  case VerifyStatus::Inconclusive:
    // Only budget-typed Inconclusives: their outcome is determined by the
    // budget knobs captured in the key. DiagKind::None (or any semantic
    // kind) on an Inconclusive is an anomaly we refuse to persist.
    switch (R.Kind) {
    case DiagKind::SolverTimeout:
    case DiagKind::ResourceExhausted:
    case DiagKind::LoopBound:
    case DiagKind::Unsupported:
      return true;
    default:
      return false;
    }
  }
  return false;
}

VerdictStore::LoadCounts VerdictStore::parseJournal(
    const std::string &Text,
    std::unordered_map<std::string, VerifyResult> &Map,
    std::vector<std::string> *KeyOrder) {
  LoadCounts C;
  if (Text.empty()) {
    C.HeaderOk = true; // fresh store
    return C;
  }

  size_t Pos = 0;
  bool First = true;
  while (Pos < Text.size()) {
    size_t Nl = Text.find('\n', Pos);
    std::string Line = Text.substr(
        Pos, Nl == std::string::npos ? std::string::npos : Nl - Pos);
    Pos = Nl == std::string::npos ? Text.size() : Nl + 1;

    if (First) {
      First = false;
      if (Line == headerLine()) {
        C.HeaderOk = true;
        continue;
      }
      // Bad header: fall through and treat the line like any other —
      // everything in a headerless file quarantines (never fatal), and the
      // next compaction rewrites a well-formed journal.
    }

    ++C.Lines;
    std::string Key;
    VerifyResult R;
    if (!decodeRecord(Line, Key, R)) {
      ++C.Quarantined;
      continue;
    }
    ++C.Records;
    auto It = Map.find(Key);
    if (It != Map.end()) {
      // Last-write-wins: deterministic verification means duplicates agree,
      // but honoring file order keeps the rule simple and auditable.
      It->second = std::move(R);
      ++C.Duplicates;
    } else {
      Map.emplace(Key, std::move(R));
      if (KeyOrder)
        KeyOrder->push_back(Key);
    }
  }
  return C;
}

VerdictStore::VerdictStore(std::string Path, Options O)
    : JournalPath(std::move(Path)), LockPath(JournalPath + ".lock"), Opt(O) {}

std::unique_ptr<VerdictStore> VerdictStore::open(const std::string &Path,
                                                 std::string *Err) {
  return open(Path, Err, Options());
}

std::unique_ptr<VerdictStore> VerdictStore::open(const std::string &Path,
                                                 std::string *Err,
                                                 const Options &O) {
  std::unique_ptr<VerdictStore> St(new VerdictStore(Path, O));

  TraceSpan Span("store.load");
  std::string Text;
  {
    // Shared lock: concurrent loaders are fine, but never read while a
    // compaction is mid-rewrite or a flush is mid-append.
    FileLock Lock;
    if (!Lock.lock(St->LockPath, FileLock::Mode::Shared, Err))
      return nullptr;
    if (!readWholeFile(Path, Text)) {
      // Absent journal = fresh store; the header is written lazily by the
      // first flush. Only a lock-file failure above is a real error.
      Text.clear();
    }
  }

  LoadCounts C = St->parseJournal(Text, St->Index, nullptr);
  St->LinesOnDisk = C.Lines;
  St->DeadOnDisk = C.Duplicates + C.Quarantined;
  St->S.LoadedRecords = C.Records;
  St->S.Quarantined = C.Quarantined;
  St->S.LiveAtOpen = St->Index.size();
  if (C.Quarantined)
    quarantinedCounter().inc(C.Quarantined);

  Span.arg(TraceArg::ofInt("records", static_cast<int64_t>(C.Records)));
  Span.arg(TraceArg::ofInt("live", static_cast<int64_t>(St->Index.size())));
  Span.arg(
      TraceArg::ofInt("quarantined", static_cast<int64_t>(C.Quarantined)));

  // Compaction heuristic: reclaim once enough of the journal is dead
  // weight (racing writers' duplicates, quarantined garbage) — but leave
  // small journals alone, the rewrite costs more than it saves.
  if (St->LinesOnDisk >= CompactMinLines &&
      static_cast<double>(St->DeadOnDisk) >
          CompactDeadRatio * static_cast<double>(St->LinesOnDisk))
    St->compact(nullptr); // best-effort; an I/O failure leaves a valid store

  return St;
}

VerdictStore::~VerdictStore() { flush(nullptr); }

bool VerdictStore::lookup(const std::string &Key, VerifyResult &Out) {
  std::lock_guard<std::mutex> L(M);
  auto It = Index.find(Key);
  if (It == Index.end()) {
    ++S.Misses;
    missesCounter().inc();
    return false;
  }
  ++S.Hits;
  hitsCounter().inc();
  Out = It->second;
  return true;
}

void VerdictStore::put(const std::string &Key, const VerifyResult &R) {
  if (!eligible(R))
    return;
  bool ShouldFlush = false;
  {
    std::lock_guard<std::mutex> L(M);
    if (!Index.emplace(Key, R).second)
      return; // resident: deterministic verdicts make re-puts no-ops
    // Degraded: keep the record (and keep counting it — store.writes must
    // move identically whether or not the disk cooperates, or the training
    // trajectory's metric plane would diverge under I/O faults), but never
    // queue it for a journal that stopped accepting appends.
    if (!Degraded)
      Pending.emplace_back(Key, R);
    ++S.Writes;
    ShouldFlush = !Degraded && Opt.FlushEveryN &&
                  Pending.size() >= Opt.FlushEveryN;
  }
  writesCounter().inc();
  if (ShouldFlush)
    flush(nullptr);
}

bool VerdictStore::flush(std::string *Err) {
  std::lock_guard<std::mutex> IO(IoM);
  return flushLocked(Err);
}

void VerdictStore::noteFlushFailureLocked(const std::string &Why) {
  ++S.FlushFailures;
  flushFailuresCounter().inc();
  ++ConsecFlushFailures;
  if (!Degraded && ConsecFlushFailures >= DegradeAfterFlushFailures) {
    Degraded = true;
    S.DegradedReason = std::to_string(ConsecFlushFailures) +
                       " consecutive flush failures; last: " + Why;
    degradedGauge().set(1);
  }
}

bool VerdictStore::degraded() const {
  std::lock_guard<std::mutex> L(M);
  return Degraded;
}

bool VerdictStore::flushLocked(std::string *Err) {
  std::vector<std::pair<std::string, VerifyResult>> Batch;
  {
    std::lock_guard<std::mutex> L(M);
    if (Degraded)
      return true; // in-memory-only: nothing is owed to the journal
    Batch.swap(Pending);
  }
  if (Batch.empty())
    return true;

  std::string Payload;
  for (const auto &[Key, R] : Batch)
    Payload += encodeRecord(Key, R);

  std::string LocalErr;
  FileLock Lock;
  if (!Lock.lock(LockPath, FileLock::Mode::Exclusive, &LocalErr)) {
    if (Err)
      *Err = LocalErr;
    std::lock_guard<std::mutex> L(M);
    noteFlushFailureLocked("lock: " + LocalErr);
    return false;
  }
  // First writer stamps the header. The size check is race-free under the
  // exclusive lock; O_APPEND keeps even unlocked stray writers from
  // clobbering each other mid-file.
  std::string Full = Payload;
  if (fileSize(JournalPath) == 0)
    Full = std::string(headerLine()) + "\n" + Payload;
  if (!appendFileDurable(JournalPath, Full, &LocalErr)) {
    // Index intact; this batch will be recomputed next run. Consecutive
    // failures eventually trip the store to in-memory-only so a dead disk
    // costs durability, never forward progress.
    if (Err)
      *Err = LocalErr;
    std::lock_guard<std::mutex> L(M);
    noteFlushFailureLocked("append: " + LocalErr);
    return false;
  }

  std::lock_guard<std::mutex> L(M);
  LinesOnDisk += Batch.size();
  ConsecFlushFailures = 0;
  return true;
}

bool VerdictStore::compact(std::string *Err) {
  std::lock_guard<std::mutex> IO(IoM);
  {
    std::lock_guard<std::mutex> L(M);
    if (Degraded)
      return true; // in-memory-only: the journal is no longer ours to touch
  }
  if (!flushLocked(Err))
    return false;
  return compactLocked(Err);
}

bool VerdictStore::compactLocked(std::string *Err) {
  TraceSpan Span("store.compact");

  FileLock Lock;
  if (!Lock.lock(LockPath, FileLock::Mode::Exclusive, Err))
    return false;

  // Re-read under the exclusive lock: other processes may have appended
  // since we loaded, and compaction must never drop their records. Merge
  // the on-disk view with our in-memory index (they can only disagree by
  // presence, not by value — verdicts are deterministic).
  std::string Text;
  readWholeFile(JournalPath, Text);
  std::unordered_map<std::string, VerifyResult> Merged;
  LoadCounts C = parseJournal(Text, Merged, nullptr);
  {
    std::lock_guard<std::mutex> L(M);
    for (const auto &[Key, R] : Index)
      Merged.emplace(Key, R);
  }

  std::vector<const std::string *> Keys;
  Keys.reserve(Merged.size());
  for (const auto &[Key, R] : Merged)
    Keys.push_back(&Key);
  std::sort(Keys.begin(), Keys.end(),
            [](const std::string *A, const std::string *B) { return *A < *B; });

  std::string Payload = std::string(headerLine()) + "\n";
  for (const std::string *Key : Keys)
    Payload += encodeRecord(*Key, Merged.at(*Key));

  if (!writeFileAtomic(JournalPath, Payload, Err))
    return false;

  Span.arg(TraceArg::ofInt(
      "before", static_cast<int64_t>(C.Lines)));
  Span.arg(TraceArg::ofInt("after", static_cast<int64_t>(Keys.size())));

  std::lock_guard<std::mutex> L(M);
  for (auto &[Key, R] : Merged)
    Index.insert_or_assign(Key, std::move(R));
  LinesOnDisk = Keys.size();
  DeadOnDisk = 0;
  ++S.Compactions;
  compactionsCounter().inc();
  return true;
}

VerdictStore::Stats VerdictStore::stats() const {
  std::lock_guard<std::mutex> L(M);
  return S;
}

size_t VerdictStore::size() const {
  std::lock_guard<std::mutex> L(M);
  return Index.size();
}

} // namespace veriopt
