//===- VerifyCache.cpp - Memoized candidate verification ----------------------//

#include "verify/VerifyCache.h"

#include "trace/Metrics.h"

#include <sstream>

namespace veriopt {

namespace {

// Process-wide mirrors of the per-cache Counters, so a run's cache efficacy
// lands in the trace's "metric" lines without plumbing cache pointers around.
Counter &hitCounter() {
  static Counter &C = MetricsRegistry::global().counter("verify.cache.hit");
  return C;
}
Counter &missCounter() {
  static Counter &C = MetricsRegistry::global().counter("verify.cache.miss");
  return C;
}
Counter &joinCounter() {
  static Counter &C =
      MetricsRegistry::global().counter("verify.cache.singleflight_join");
  return C;
}
Counter &evictionCounter() {
  static Counter &C =
      MetricsRegistry::global().counter("verify.cache.eviction");
  return C;
}

} // namespace

std::string VerifyCache::makeKey(const std::string &SrcText,
                                 const Candidate &C,
                                 const VerifyOptions &Opts) {
  // Every budget knob is part of the key: a low-tier Inconclusive must never
  // be served for a higher-tier query (or vice versa) when the retry ladder
  // re-asks the same candidate under a bigger budget.
  std::ostringstream OS;
  OS << 'e' << SemanticsEpoch << '|' << Opts.MaxPaths << '|'
     << Opts.MaxBlockVisitsPerPath << '|' << Opts.MaxStepsPerPath << '|'
     << Opts.SolverConflictBudget << '|' << Opts.StrictLoops << '|'
     << Opts.FalsifyTrials << '|' << Opts.FuelBudget << '|'
     << Opts.MaxCandidateBytes << '|' << Opts.MaxCandidateInsts;
  std::string Key = OS.str();
  Key.push_back('\x1f');
  Key += SrcText;
  Key.push_back('\x1f');
  Key += C.Canon;
  return Key;
}

std::string VerifyCache::makeKey(const std::string &SrcText,
                                 const std::string &TgtText,
                                 const VerifyOptions &Opts) {
  return makeKey(SrcText, Candidate(TgtText), Opts);
}

VerifyResult
VerifyCache::lookupOrCompute(const std::string &Key,
                             const std::function<VerifyResult()> &Compute,
                             bool *Computed) {
  if (Computed)
    *Computed = false;

  std::shared_ptr<InFlight> Slot;
  bool Owner = false;
  VerdictBackingTier *Tier;
  {
    std::lock_guard<std::mutex> L(M);
    Tier = Store;
    auto It = Index.find(Key);
    if (It != Index.end()) {
      LRU.splice(LRU.begin(), LRU, It->second); // touch
      ++Stats.Hits;
      hitCounter().inc();
      return It->second->second;
    }
    auto PIt = Pending.find(Key);
    if (PIt != Pending.end()) {
      Slot = PIt->second; // join the in-flight computation
      ++Stats.Hits;
      hitCounter().inc();
      joinCounter().inc();
    } else {
      Slot = std::make_shared<InFlight>();
      Pending.emplace(Key, Slot);
      Owner = true;
      ++Stats.Misses;
      missCounter().inc();
    }
  }

  if (!Owner) {
    std::unique_lock<std::mutex> L(Slot->M);
    Slot->ReadyCV.wait(L, [&] { return Slot->Ready; });
    return Slot->Result;
  }

  // Read-through: the single-flight owner probes the durable tier before
  // paying for verification (joiners still block on this thread's slot, so
  // a store hit satisfies the whole flight with one disk-index lookup).
  // Verification is deterministic and the store only admits deterministic
  // verdicts, so a stored result is bit-identical to recomputing.
  VerifyResult Result;
  bool FromStore = Tier && Tier->lookup(Key, Result);
  if (!FromStore) {
    Result = Compute();
    if (Computed)
      *Computed = true;
    // Write-behind: report the fresh verdict; the tier buffers and batches
    // its own journal appends, so this is an in-memory append here.
    if (Tier)
      Tier->put(Key, Result);
  }

  {
    std::lock_guard<std::mutex> L(M);
    LRU.emplace_front(Key, Result);
    Index.emplace(Key, LRU.begin());
    while (Capacity && LRU.size() > Capacity) {
      Index.erase(LRU.back().first);
      LRU.pop_back();
      ++Stats.Evictions;
      evictionCounter().inc();
    }
    Pending.erase(Key);
  }
  {
    std::lock_guard<std::mutex> L(Slot->M);
    Slot->Result = Result;
    Slot->Ready = true;
  }
  Slot->ReadyCV.notify_all();
  return Result;
}

VerifyCache::Counters VerifyCache::counters() const {
  std::lock_guard<std::mutex> L(M);
  return Stats;
}

size_t VerifyCache::size() const {
  std::lock_guard<std::mutex> L(M);
  return LRU.size();
}

void VerifyCache::clear() {
  std::lock_guard<std::mutex> L(M);
  LRU.clear();
  Index.clear();
  Stats = Counters();
}

} // namespace veriopt
