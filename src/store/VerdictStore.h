//===- VerdictStore.h - Durable content-addressed verdict store --*- C++ -*-=//
//
// The persistent tier under VerifyCache: an append-only journaled on-disk
// map from the canonical cache key (full verification budget + source text
// + canonically re-printed candidate, VerifyCache::makeKey) to the complete
// VerifyResult. Verification is deterministic, so a stored verdict is
// bit-identical to recomputing it — which is the whole contract: training,
// sharded evaluation, and every veriopt-worker process can share one store
// across runs and the results never change, only the work does.
//
// Journal format (docs/PERSISTENCE.md):
//
//   veriopt-verdict-store 1            <- header line
//   R <crc32-hex8> <payload-json>      <- one record per line
//
// The payload is a single-line JSON object carrying the key and every
// VerifyResult field; 64-bit integers travel as fixed-width hex strings so
// nothing is squeezed through a JSON double. The CRC (IEEE 802.3, over the
// payload bytes) frames each record: torn tails from crashes mid-append and
// bit rot both fail the frame check and are *quarantined* — counted,
// skipped, never fatal, and never served as a verdict. Loading tolerates
// every prefix of a valid journal plus arbitrary mid-file garbage.
// Duplicate keys (two processes racing the same candidate) resolve
// last-write-wins; since verdicts are deterministic the duplicates agree,
// and compaction reclaims them.
//
// Multi-writer safety: all file access serializes on a sidecar flock(2)
// lock file "<path>.lock" (support/FileLock.h) — a sidecar so the lock
// identity survives compaction's atomic write-then-rename of the journal
// itself. Appends additionally go through O_APPEND so concurrently flushed
// batches interleave at record granularity at worst.
//
// Trust/eligibility model: only fully deterministic verdicts are persisted
// — Equivalent, NotEquivalent (falsified), SyntaxError, and *budget-typed*
// Inconclusive (SolverTimeout / ResourceExhausted / LoopBound /
// Unsupported, whose outcome is a pure function of the budget captured in
// the key).
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_STORE_VERDICTSTORE_H
#define VERIOPT_STORE_VERDICTSTORE_H

#include "verify/VerifyCache.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace veriopt {

class VerdictStore : public VerdictBackingTier {
public:
  struct Options {
    /// Write-behind batch size: puts buffer in memory and flush to the
    /// journal (one lock + one durable append) every N records, plus on
    /// flush()/close/destruction.
    size_t FlushEveryN = 32;
  };

  /// Open (creating if absent) the journal at \p Path. Loads the full
  /// index with quarantine-and-continue tolerance and compacts if the dead
  /// ratio crossed the threshold. Returns null only on real I/O errors
  /// (corruption is never fatal), with \p Err naming the step.
  static std::unique_ptr<VerdictStore>
  open(const std::string &Path, std::string *Err, const Options &O);
  static std::unique_ptr<VerdictStore> open(const std::string &Path,
                                            std::string *Err = nullptr);

  ~VerdictStore() override;

  //===--- VerdictBackingTier ------------------------------------------===//

  /// Index lookup (the journal is fully loaded at open). Counts a store
  /// hit or miss.
  bool lookup(const std::string &Key, VerifyResult &Out) override;

  /// Buffer \p R for the journal if it is eligible and the key is new to
  /// this store (re-putting a known key is a no-op — verdicts are
  /// deterministic, so the resident record is already correct).
  void put(const std::string &Key, const VerifyResult &R) override;

  //===--- Maintenance -------------------------------------------------===//

  /// Durably append all buffered records (under the exclusive file lock).
  /// On failure the in-memory index is still intact; the unflushed batch
  /// is dropped (it will be recomputed and re-put by a later run). After
  /// three consecutive failures the store trips to in-memory-only (sticky
  /// for the store's lifetime): puts still update the index and still
  /// count as Writes, so the training trajectory's metrics stay
  /// bit-identical to a fault-free run, but flush becomes a successful
  /// no-op and nothing further touches the journal.
  bool flush(std::string *Err = nullptr);

  /// Rewrite the journal to live records only: re-reads the file under the
  /// exclusive lock (merging records other processes appended since open),
  /// then atomically replaces it with a sorted, quarantine-free journal.
  bool compact(std::string *Err = nullptr);

  //===--- Introspection ------------------------------------------------===//

  /// Deterministic-verdict filter (see the trust model above).
  static bool eligible(const VerifyResult &R);

  struct Stats {
    uint64_t Hits = 0;        ///< lookups served from the index
    uint64_t Misses = 0;      ///< lookups that found nothing
    uint64_t Writes = 0;      ///< records accepted by put()
    uint64_t Compactions = 0; ///< journal rewrites
    uint64_t Quarantined = 0; ///< journal lines rejected at load
    uint64_t LoadedRecords = 0; ///< frame-valid records seen at open
    uint64_t LiveAtOpen = 0;    ///< distinct keys resident after open
    uint64_t FlushFailures = 0; ///< durable appends that failed
    /// Why the store tripped to in-memory-only ("" while healthy) — the
    /// typed reason tools/report surfaces in the degraded-mode row.
    std::string DegradedReason;
  };
  Stats stats() const;

  /// True once the store has tripped to in-memory-only (sticky). Lookups
  /// and puts keep working — only durability is lost.
  bool degraded() const;

  /// Distinct keys currently resident (loaded + put since open).
  size_t size() const;
  const std::string &path() const { return JournalPath; }

  //===--- Record framing (public for the corruption tests) -------------===//

  /// One complete journal line for (Key, R), including the "R " tag, the
  /// CRC frame, and the trailing newline. Deterministic: fixed field order,
  /// bit-exact integer encoding.
  static std::string encodeRecord(const std::string &Key,
                                  const VerifyResult &R);

  /// Parse one journal line (no trailing newline). False on any framing,
  /// CRC, JSON, or field violation — the caller quarantines.
  static bool decodeRecord(const std::string &Line, std::string &Key,
                           VerifyResult &R);

  /// CRC-32 (IEEE 802.3, reflected) over \p Data.
  static uint32_t crc32(const std::string &Data);

  /// The fixed header line content (without newline).
  static const char *headerLine();

private:
  VerdictStore(std::string Path, Options O);

  /// Parse journal \p Text into \p Map (insertion-ordered by first sight,
  /// last-write-wins on values). Returns per-parse accounting.
  struct LoadCounts {
    uint64_t Lines = 0, Records = 0, Duplicates = 0, Quarantined = 0;
    bool HeaderOk = false;
  };
  static LoadCounts parseJournal(const std::string &Text,
                                 std::unordered_map<std::string, VerifyResult> &Map,
                                 std::vector<std::string> *KeyOrder);

  bool flushLocked(std::string *Err);
  bool compactLocked(std::string *Err);

  const std::string JournalPath;
  const std::string LockPath;
  const Options Opt;

  mutable std::mutex M; ///< index, pending batch, stats
  std::mutex IoM;       ///< serializes in-process flush/compact file work
  std::unordered_map<std::string, VerifyResult> Index;
  std::vector<std::pair<std::string, VerifyResult>> Pending;
  /// Journal lines this process believes are on disk (records it loaded,
  /// quarantined garbage, and its own appends) — the compaction heuristic's
  /// denominator.
  uint64_t LinesOnDisk = 0;
  uint64_t DeadOnDisk = 0; ///< superseded duplicates + quarantined lines
  uint64_t ConsecFlushFailures = 0; ///< resets on any successful flush
  bool Degraded = false;            ///< sticky in-memory-only mode
  Stats S;

  /// Account one failed flush under M; trips Degraded at the threshold.
  void noteFlushFailureLocked(const std::string &Why);
};

} // namespace veriopt

#endif // VERIOPT_STORE_VERDICTSTORE_H
