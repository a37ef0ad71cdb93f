//===- RefinementQuery.h - Shared-source refinement queries ------*- C++ -*-=//
//
// The incremental core under both verification front doors. A refinement
// query splits into a candidate-independent half (falsification runs of the
// source, its symbolic encoding, the CNF of its terms) and a per-candidate
// half; SourceEncoding captures the former once so a group of candidates
// against one source — a GRPO group — pays for it once.
//
// Bit-identity contract: for a fixed (source, candidate, options) triple,
// the verdict, DiagKind, diagnostic text, counterexample, SolverConflicts
// and FuelSpent are identical whether the encoding is built fresh per call
// (the sequential oracle, verifyRefinement / verifyCandidateText) or shared
// across a group at any thread count (verifyGroup, verify/Ladder.h). Three
// mechanisms make that hold:
//  - Fuel replay: the shared source-side work records its fuel charges
//    once; each candidate replays them against its own budget, so budget
//    exhaustion happens at exactly the point a fresh run would hit.
//  - Clone activation: the shared CNF prefix is never solved on directly by
//    group members; each candidate solves on an exact copy (QueryPrefix),
//    so SAT search trajectories — and conflict counts — match a fresh run.
//  - Structural interning: the shared BVContext hash-conses terms purely
//    structurally, so the terms a candidate builds are independent of which
//    other candidates built terms before it.
// A query the plain miter leaves open after a fixed number of conflicts is
// re-posed per source path (BVContext::simplifyUnder) and solved for the
// rest of its budget on a fresh solver, in both modes alike.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_VERIFY_REFINEMENTQUERY_H
#define VERIOPT_VERIFY_REFINEMENTQUERY_H

#include "interp/Interpreter.h"
#include "smt/Solver.h"
#include "verify/AliveLite.h"
#include "verify/Encoder.h"

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace veriopt {

/// Everything about a refinement query that does not depend on the
/// candidate: built once per (source, structural options) and shared by
/// every candidate in a group. Budget knobs (SolverConflictBudget,
/// FuelBudget) are *not* baked in — the retry ladder re-asks the same
/// encoding under scaled budgets — but the structural knobs (MaxPaths,
/// unroll bound, FalsifyTrials, ...) are, and must match at use sites.
struct SourceEncoding {
  const Function *Src = nullptr;
  VerifyOptions Opts; ///< options the encoding was built under

  BVContext Ctx;
  std::vector<const BVExpr *> ArgVars;
  ExternalWorld SrcWorld;
  FnEncoding SE;
  bool PointerParams = false; ///< any non-integer parameter

  /// One falsification trial's source half: the sampled arguments, the
  /// source execution under unlimited fuel, and the slice of FalsifyTrace
  /// holding its fuel charges.
  struct FalsifyTrial {
    std::vector<APInt64> Args;
    ExecResult SrcRes;
    size_t TraceBegin = 0, TraceEnd = 0;
  };
  std::vector<FalsifyTrial> Trials;
  std::vector<uint64_t> FalsifyTrace; ///< source interp charges, all trials
  std::vector<uint64_t> EncodeTrace;  ///< source symbolic-encode charges

  /// Retained CNF of the source terms; null when the source encoding is
  /// unusable (pointer params, unsupported construct, no complete path) —
  /// every candidate resolves before reaching SAT in those cases.
  std::unique_ptr<QueryPrefix> Prefix;

  /// Serializes the context-mutating build phase when group members verify
  /// concurrently (interning order changes, interned *structures* do not).
  std::mutex BuildMu;
};

/// Build the shared half for \p Src. Source-side fuel charges are recorded
/// under an unlimited token for later replay; structural limits still bound
/// the work.
std::unique_ptr<SourceEncoding> buildSourceEncoding(const Function &Src,
                                                    const VerifyOptions &Opts);

/// Verify \p Tgt against the prebuilt encoding. Mirrors verifyRefinement
/// exactly (same verdicts, diagnostics, conflict counts, FuelSpent).
/// \p Shared selects group mode: take SC.BuildMu around context mutation,
/// activate the prefix on a clone, and credit smt.clauses_retained. With
/// Shared = false the caller owns SC exclusively and the prefix is consumed
/// in place.
VerifyResult verifyAgainstEncoding(SourceEncoding &SC, const Function &Tgt,
                                   const VerifyOptions &Opts, bool Shared);

/// The refinement-violation condition (the miter) a SAT query of \p Tgt
/// against \p SC decides, built into SC.Ctx under unlimited fuel; null when
/// the query resolves before SAT. For tests of the rewrites the SAT phase
/// applies to it.
const BVExpr *refinementCondition(SourceEncoding &SC, const Function &Tgt,
                                  const VerifyOptions &Opts);

/// Supplies the source half a candidate is verified against: a shared
/// encoding (group mode), or null for a fresh private one per call.
using EncodingProvider = std::function<SourceEncoding *()>;

/// verifyCandidate over a lazily provided encoding: the guard chain (size,
/// parse, structure), the verify.candidate span, and the verify.* metrics.
/// \p GetSC is invoked only after the guard chain passes — candidates
/// rejected at the parse/screen stage never pay source-side work, shared
/// encoding or not. A null/empty provider (or one returning null) builds a
/// fresh private encoding after the guards pass (the sequential oracle).
VerifyResult verifyCandidateOn(const EncodingProvider &GetSC,
                               const Function &Src, const Candidate &C,
                               const VerifyOptions &Opts);

} // namespace veriopt

#endif // VERIOPT_VERIFY_REFINEMENTQUERY_H
