//===- AliveLite.h - Bounded translation validation --------------*- C++ -*-=//
//
// The stand-in for Alive2 + Z3: proves (or refutes) that a transformed
// function refines the source function, over the shared dialect semantics
// (see Interpreter.h). Outcomes follow the paper's four-way taxonomy
// (§IV-C): Equivalent / NotEquivalent (semantic error) / SyntaxError /
// Inconclusive.
//
// Refinement (Alive2-style): for every input on which the source is
// defined (no UB), the target must (a) not trigger UB, (b) return a
// non-poison value equal to the source's whenever the source's return is
// non-poison, and (c) perform the same external calls with equal arguments.
//
// Like Alive2, loops are handled by *bounded* unrolling: equivalence is
// guaranteed only for executions within the unroll bound (the paper's §VI
// discusses exactly this limitation). StrictLoops mode instead reports
// Inconclusive whenever the bound was hit.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_VERIFY_ALIVELITE_H
#define VERIOPT_VERIFY_ALIVELITE_H

#include "ir/Function.h"
#include "support/APInt64.h"
#include "support/Fuel.h"

#include <memory>
#include <string>
#include <vector>

namespace veriopt {

enum class VerifyStatus {
  Equivalent,    ///< formally proven (within the unroll bound)
  NotEquivalent, ///< counterexample found ("semantic error")
  SyntaxError,   ///< target failed to parse or verify as IR
  Inconclusive,  ///< solver budget / unsupported construct / loop bound
};

/// Machine-readable failure category — the label space of the model's
/// diagnosis head (§III-B: learning from diagnostic information).
enum class DiagKind {
  None,
  ParseError,        ///< target is not parseable IR
  StructureError,    ///< parsed but ill-formed (SSA/CFG violations)
  SignatureMismatch, ///< different arg/return types
  ValueMismatch,     ///< returns differ on some input
  PoisonMismatch,    ///< target returns poison where source is defined
  UBIntroduced,      ///< target triggers UB where source is defined
  CallMismatch,      ///< external calls added/removed/changed
  SolverTimeout,     ///< SAT budget exhausted
  Unsupported,       ///< construct outside the symbolic model
  LoopBound,         ///< strict mode: unroll bound reached
  ResourceExhausted, ///< deterministic fuel budget ran dry (any layer)
};

const char *diagKindName(DiagKind K);
const char *verifyStatusName(VerifyStatus S);
/// Inverses of the two names above; false for an unknown name.
bool diagKindFromName(const std::string &Name, DiagKind &Out);
bool verifyStatusFromName(const std::string &Name, VerifyStatus &Out);

struct VerifyOptions {
  unsigned MaxPaths = 128;          ///< per function
  unsigned MaxBlockVisitsPerPath = 5; ///< loop unroll bound
  unsigned MaxStepsPerPath = 4096;
  uint64_t SolverConflictBudget = DefaultSolverConflictBudget;
  bool StrictLoops = false; ///< Inconclusive instead of bounded guarantee
  unsigned FalsifyTrials = 24; ///< random-input pre-pass (0 = disabled)
  /// Deterministic total-work budget for one verification, shared across
  /// falsification, encoding, and SAT (0 = unlimited). Exhaustion yields
  /// Inconclusive{ResourceExhausted}; no wall clock is involved, so results
  /// stay bit-identical at any thread count.
  uint64_t FuelBudget = DefaultVerifyFuel;
  /// Adversarial-emission guards for verifyCandidateText: candidates larger
  /// than this many bytes, or parsing to more than this many instructions,
  /// classify as SyntaxError without paying parse/verify cost.
  size_t MaxCandidateBytes = 1 << 20;
  unsigned MaxCandidateInsts = 50000;
};

/// One argument assignment in a counterexample.
struct CexBinding {
  std::string Name;
  APInt64 Value;
};

struct VerifyResult {
  VerifyStatus Status = VerifyStatus::Inconclusive;
  DiagKind Kind = DiagKind::None;
  /// Alive2-flavoured human-readable report (the text fed back into
  /// diagnostic-augmented prompts, Fig. 2).
  std::string Diagnostic;
  /// Counterexample bindings when Status == NotEquivalent.
  std::vector<CexBinding> Counterexample;
  /// True when Equivalent holds only under the loop unroll bound.
  bool BoundedOnly = false;
  /// True when the cheap falsification pre-pass (random concrete inputs)
  /// found the counterexample before any SMT work.
  bool FoundByFalsification = false;
  uint64_t SolverConflicts = 0;
  /// Fuel actually consumed by this verification (0 when unlimited and
  /// untracked); reported for telemetry and the retry ladder's tiering.
  uint64_t FuelSpent = 0;
  /// Retry-ladder tier that produced this verdict (0 = first attempt).
  /// Set by the retry ladder (verify/Ladder.h); plain verification always
  /// reports 0.
  unsigned RetryTier = 0;

  bool equivalent() const { return Status == VerifyStatus::Equivalent; }
};

/// One candidate text (an LLM emission), parsed once. The verifier's guard
/// chain, every cache key, the reward's copy check and latency model, and
/// evaluation's kept output all read this one parse.
struct Candidate {
  std::string Text;
  /// The parsed module, names intact; null when the text did not parse.
  std::unique_ptr<Module> M;
  std::string ParseError; ///< rendered parser error when M is null
  /// Name-free reprint of M — whitespace and naming variants of the same IR
  /// collapse to one string — or the raw text when it did not parse.
  std::string Canon;

  /// Parse \p Text. With \p Parse false the text is kept unparsed (the
  /// verifier's size guard rejects it before any parse).
  explicit Candidate(std::string Text, bool Parse = true);

  /// The function under test, or null.
  const Function *function() const {
    return M ? M->getMainFunction() : nullptr;
  }
};

/// Verify that \p Tgt refines \p Src. Both must be well-formed; this is the
/// core IR-level entry point.
VerifyResult verifyRefinement(const Function &Src, const Function &Tgt,
                              const VerifyOptions &Opts = VerifyOptions());

/// Full front door matching the RL pipeline: \p TgtText is candidate IR
/// text (e.g. an LLM emission). Parse/verifier failures classify as
/// SyntaxError; otherwise runs verifyRefinement against \p Src.
VerifyResult verifyCandidateText(const Function &Src,
                                 const std::string &TgtText,
                                 const VerifyOptions &Opts = VerifyOptions());

/// verifyCandidateText over an already parsed candidate.
VerifyResult verifyCandidate(const Function &Src, const Candidate &C,
                             const VerifyOptions &Opts = VerifyOptions());

} // namespace veriopt

#endif // VERIOPT_VERIFY_ALIVELITE_H
