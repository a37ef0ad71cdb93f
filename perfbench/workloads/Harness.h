//===- Harness.h - perfbench workload runner plumbing -----------*- C++ -*-===//
//
// The runner executes one workload per process and writes a raw JSON report:
// the timings it took from outside, the program's own counters and (in a
// traced run) its spans. perfbench/run.py turns the report into metrics;
// this side only measures and checks.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_HARNESS_H
#define PERFBENCH_WORKLOADS_HARNESS_H

#include "trace/Json.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace veriopt {
class Function;
} // namespace veriopt

namespace perfbench {

struct RunArgs {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  std::string OutPath;
  /// Scratch directory inside the checkout (the verdict-store journals).
  std::string TmpDir;
};

/// Seconds on the steady clock since an arbitrary epoch.
inline double nowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// An ordered JSON object built field by field (values are raw JSON).
class JsonObject {
public:
  void num(const std::string &Key, double V) {
    Fields.emplace_back(Key, veriopt::jsonNumber(V));
  }
  void str(const std::string &Key, const std::string &V) {
    Fields.emplace_back(Key, veriopt::jsonString(V));
  }
  void nums(const std::string &Key, const std::vector<double> &V);
  void raw(const std::string &Key, std::string Json) {
    Fields.emplace_back(Key, std::move(Json));
  }
  std::string json() const;

private:
  std::vector<std::pair<std::string, std::string>> Fields;
};

/// Correctness bookkeeping: every checked operation counts as attempted,
/// every failed check is kept with its reason.
struct Checks {
  uint64_t Attempted = 0;
  std::vector<std::string> Failures;
  void attempt(bool Ok, const std::string &WhyNot) {
    ++Attempted;
    if (!Ok)
      Failures.push_back(WhyNot);
  }
  std::string json() const;
};

/// nproc, build type, compiler and the workload's thread counts.
std::string envJson(const std::map<std::string, unsigned> &Threads);

/// Peak resident set size of this process, in KiB.
long peakRssKb();

/// The process-wide counters, as a JSON object.
std::string countersJson();

/// Every span the recorder holds, as [name, tid, start_ns, dur_ns] rows.
/// pipeline.stage spans carry their stage label: "pipeline.stage:stage1".
std::string spansJson();

/// Differential check of \p Tgt against \p Src on \p Trials seeded random
/// inputs: wherever the source returns a defined, non-poison value, the
/// target must not fault and must not return a different value (a poison
/// return is left to the verifier, as in the PipelineSoundness test).
/// Returns "" when they agree, else the first mismatch.
std::string differentialMismatch(const veriopt::Function &Src,
                                 const veriopt::Function &Tgt, uint64_t Seed,
                                 unsigned Trials);

/// Does the concrete input \p Args show a refinement violation of \p Tgt
/// against \p Src when run through the interpreter?
bool interpreterShowsMismatch(const veriopt::Function &Src,
                              const veriopt::Function &Tgt,
                              const std::vector<uint64_t> &Args);

/// Replayed, outside-timed calls into layers that carry no span of their
/// own: parseModule, VerifyCache::makeKey and the cost model, over the
/// candidate texts a workload fed in. Adds "ir.parse_ms",
/// "verify.make_key_ms" and "cost.estimate_ms" to \p Out.
struct CandidateText {
  const std::string *SrcText = nullptr; ///< printed source of the query
  std::string Text;
};
void replayCandidateLayers(const std::vector<CandidateText> &Texts,
                           JsonObject &Out);

/// The workloads. Each adds its raw measurements to \p Out and its checked
/// operations to \p C; errors throw.
void runTrain(const RunArgs &A, JsonObject &Out, Checks &C);
void runVerifyHard(const RunArgs &A, JsonObject &Out, Checks &C);
void runEvalStore(const RunArgs &A, JsonObject &Out, Checks &C);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HARNESS_H
