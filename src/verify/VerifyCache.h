//===- VerifyCache.h - Memoized candidate verification -----------*- C++ -*-=//
//
// A thread-safe LRU memo under the retry ladder (verify/Ladder.h): one
// entry per (source, candidate, rung budget). GRPO's small action space
// makes the same (source, candidate) pair recur across steps and stages, so
// one symbolic-encode + CDCL call can stand in for all of them.
//
// Keys are the source text plus the candidate's *canonical* (name-free)
// reprint, so whitespace or value-naming variants of the same IR share an
// entry; unparseable candidates key on their raw text. The full
// VerifyOptions budget is part of the key: results under different budgets
// are never conflated, and a cached result is bit-identical to what a fresh
// verifyCandidate call would return (verification is deterministic).
//
// Concurrent lookups of the same key single-flight: the first caller
// computes, the rest block on its result instead of burning duplicate SAT
// time (evaluation shards verifying in parallel share one cache).
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_VERIFY_VERIFYCACHE_H
#define VERIOPT_VERIFY_VERIFYCACHE_H

#include "verify/AliveLite.h"

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace veriopt {

/// A durable tier under the in-memory memo (the persistent VerdictStore in
/// src/store/ is the one implementation). The cache consults it on a memo
/// miss (read-through) and reports freshly computed verdicts back to it
/// (write-behind). Implementations must be thread-safe; they are never
/// called while the cache's own mutex would create a lock cycle (the tier
/// must not call back into the cache).
class VerdictBackingTier {
public:
  virtual ~VerdictBackingTier() = default;
  /// Fetch the persisted verdict for \p Key. Returns false when absent.
  virtual bool lookup(const std::string &Key, VerifyResult &Out) = 0;
  /// Persist \p R for \p Key (the tier applies its own eligibility rules).
  virtual void put(const std::string &Key, const VerifyResult &R) = 0;
};

class VerifyCache {
public:
  /// \p Capacity entries before LRU eviction. 0 means "unbounded".
  explicit VerifyCache(size_t Capacity = 4096) : Capacity(Capacity) {}

  /// The verifier-semantics epoch, the first field of every key. A change
  /// that makes the same query answer differently (e.g. decide what it used
  /// to leave Inconclusive) bumps it, so a durable store journaled before
  /// the change is not served to the verifier after it. Epoch 2: queries
  /// the plain miter leaves open are re-posed per source path.
  static constexpr unsigned SemanticsEpoch = 2;

  /// The cache key for a query: the semantics epoch, every budget knob, the
  /// source text, and the candidate's canonical (name-free) reprint — or
  /// its raw text when it does not parse. \p SrcText must be the printed
  /// source.
  static std::string makeKey(const std::string &SrcText, const Candidate &C,
                             const VerifyOptions &Opts);
  /// The same key from raw candidate text (parses it once).
  static std::string makeKey(const std::string &SrcText,
                             const std::string &TgtText,
                             const VerifyOptions &Opts);

  /// The one lookup: serve \p Key from the memo (joining an in-flight
  /// computation of the same key), else from the backing store, else run
  /// \p Compute and record its verdict in both. Counts one hit or one miss.
  /// \p Computed, when set, reports whether this call ran \p Compute.
  VerifyResult lookupOrCompute(const std::string &Key,
                               const std::function<VerifyResult()> &Compute,
                               bool *Computed = nullptr);

  struct Counters {
    uint64_t Hits = 0;      ///< served from the memo (incl. in-flight joins)
    uint64_t Misses = 0;    ///< missed the memo (the store may serve it)
    uint64_t Evictions = 0; ///< LRU entries dropped at capacity
    uint64_t lookups() const { return Hits + Misses; }
    double hitRate() const {
      return lookups() ? static_cast<double>(Hits) / lookups() : 0.0;
    }
  };
  Counters counters() const;

  size_t size() const;
  void clear();

  /// Attach a durable tier under the memo (null detaches). Read-through on
  /// owner misses, write-behind on computed verdicts; single-flight is
  /// preserved (the owning thread probes the store, joiners still wait on
  /// its result). The tier must outlive the cache or be detached first.
  void setBackingStore(VerdictBackingTier *S) {
    std::lock_guard<std::mutex> L(M);
    Store = S;
  }

private:
  /// Single-flight slot: the first thread to miss computes into it; joiners
  /// wait on ReadyCV.
  struct InFlight {
    std::mutex M;
    std::condition_variable ReadyCV;
    bool Ready = false;
    VerifyResult Result;
  };

  using LRUList = std::list<std::pair<std::string, VerifyResult>>;

  size_t Capacity;
  mutable std::mutex M;
  LRUList LRU; ///< front = most recently used
  std::unordered_map<std::string, LRUList::iterator> Index;
  std::map<std::string, std::shared_ptr<InFlight>> Pending;
  Counters Stats;
  VerdictBackingTier *Store = nullptr;
};

} // namespace veriopt

#endif // VERIOPT_VERIFY_VERIFYCACHE_H
