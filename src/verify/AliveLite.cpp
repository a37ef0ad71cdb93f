//===- AliveLite.cpp - Bounded translation validation -------------------------//

#include "verify/AliveLite.h"

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "verify/RefinementQuery.h"

namespace veriopt {

const char *diagKindName(DiagKind K) {
  switch (K) {
  case DiagKind::None:
    return "none";
  case DiagKind::ParseError:
    return "parse-error";
  case DiagKind::StructureError:
    return "structure-error";
  case DiagKind::SignatureMismatch:
    return "signature-mismatch";
  case DiagKind::ValueMismatch:
    return "value-mismatch";
  case DiagKind::PoisonMismatch:
    return "poison-mismatch";
  case DiagKind::UBIntroduced:
    return "ub-introduced";
  case DiagKind::CallMismatch:
    return "call-mismatch";
  case DiagKind::SolverTimeout:
    return "solver-timeout";
  case DiagKind::Unsupported:
    return "unsupported";
  case DiagKind::LoopBound:
    return "loop-bound";
  case DiagKind::ResourceExhausted:
    return "resource-exhausted";
  }
  return "unknown";
}

const char *verifyStatusName(VerifyStatus S) {
  switch (S) {
  case VerifyStatus::Equivalent:
    return "equivalent";
  case VerifyStatus::NotEquivalent:
    return "not-equivalent";
  case VerifyStatus::SyntaxError:
    return "syntax-error";
  case VerifyStatus::Inconclusive:
    return "inconclusive";
  }
  return "unknown";
}

bool diagKindFromName(const std::string &Name, DiagKind &Out) {
  for (int I = 0; I <= static_cast<int>(DiagKind::ResourceExhausted); ++I) {
    auto K = static_cast<DiagKind>(I);
    if (Name == diagKindName(K)) {
      Out = K;
      return true;
    }
  }
  return false;
}

bool verifyStatusFromName(const std::string &Name, VerifyStatus &Out) {
  for (int I = 0; I <= static_cast<int>(VerifyStatus::Inconclusive); ++I) {
    auto S = static_cast<VerifyStatus>(I);
    if (Name == verifyStatusName(S)) {
      Out = S;
      return true;
    }
  }
  return false;
}

Candidate::Candidate(std::string Text, bool Parse) : Text(std::move(Text)) {
  if (Parse) {
    auto Parsed = parseModule(this->Text);
    if (Parsed)
      M = Parsed.takeValue();
    else
      ParseError = Parsed.error().render();
  }
  Canon = M ? printModule(*M, /*NameFree=*/true) : this->Text;
}

/// The implementation lives in RefinementQuery.cpp: these public entry
/// points are thin wrappers that build a fresh, exclusively-owned source
/// encoding per call. The group verifier (verify/Ladder.h) reuses the same
/// machinery with one shared encoding per group; the results are
/// bit-identical by construction (see RefinementQuery.h).

VerifyResult verifyRefinement(const Function &Src, const Function &Tgt,
                              const VerifyOptions &Opts) {
  auto SC = buildSourceEncoding(Src, Opts);
  return verifyAgainstEncoding(*SC, Tgt, Opts, /*Shared=*/false);
}

VerifyResult verifyCandidateText(const Function &Src,
                                 const std::string &TgtText,
                                 const VerifyOptions &Opts) {
  // An oversized text is rejected by the guard chain before any parse.
  bool Oversized =
      Opts.MaxCandidateBytes > 0 && TgtText.size() > Opts.MaxCandidateBytes;
  return verifyCandidate(Src, Candidate(TgtText, !Oversized), Opts);
}

VerifyResult verifyCandidate(const Function &Src, const Candidate &C,
                             const VerifyOptions &Opts) {
  return verifyCandidateOn(nullptr, Src, C, Opts);
}

} // namespace veriopt
