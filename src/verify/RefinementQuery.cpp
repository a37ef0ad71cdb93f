//===- RefinementQuery.cpp - Shared-source refinement queries -----------------//

#include "verify/RefinementQuery.h"

#include "ir/Verifier.h"
#include "support/RNG.h"
#include "trace/Metrics.h"
#include "trace/Trace.h"

#include <map>
#include <sstream>

namespace veriopt {

namespace {

std::string header(const Function &Src) {
  std::ostringstream OS;
  OS << "----------------------------------------\n"
     << "define " << Src.getReturnType()->getName() << " @" << Src.getName()
     << "\n";
  return OS.str();
}

std::string renderBindings(const std::vector<CexBinding> &Bs) {
  std::ostringstream OS;
  OS << "\nExample:\n";
  for (const CexBinding &B : Bs)
    OS << B.Name << " = " << B.Value.toString() << "\n";
  return OS.str();
}

/// Argument names as the diagnostics print them: "i32 %x".
std::string argLabel(const Function &F, unsigned I) {
  std::string Name = F.getArg(I)->hasName()
                         ? "%" + F.getArg(I)->getName()
                         : "%" + std::to_string(I);
  return F.getParamType(I)->getName() + " " + Name;
}

/// Sequence-compare two interpreter call logs (per-callee order and args).
bool callLogsMatch(const std::vector<CallEvent> &A,
                   const std::vector<CallEvent> &B) {
  if (A.size() != B.size())
    return false;
  std::map<std::string, std::vector<const CallEvent *>> ByCalleeA, ByCalleeB;
  for (const auto &E : A)
    ByCalleeA[E.Callee].push_back(&E);
  for (const auto &E : B)
    ByCalleeB[E.Callee].push_back(&E);
  if (ByCalleeA.size() != ByCalleeB.size())
    return false;
  for (auto &[Name, ListA] : ByCalleeA) {
    auto It = ByCalleeB.find(Name);
    if (It == ByCalleeB.end() || It->second.size() != ListA.size())
      return false;
    for (size_t I = 0; I < ListA.size(); ++I)
      if (ListA[I]->Args != It->second[I]->Args)
        return false;
  }
  return true;
}

/// Random + adversarial inputs for the falsification pre-pass. The first
/// six sweeps are corner sweeps with a *per-argument* corner index
/// (staggered by argument position, so mixed patterns like (0, 1) or
/// (INT_MAX, all-ones) get tried, not just all-same-corner tuples); every
/// later sweep is fully random.
std::vector<APInt64> sampleArgs(const Function &F, RNG &R, unsigned Trial) {
  std::vector<APInt64> Args;
  for (unsigned I = 0; I < F.getNumParams(); ++I) {
    unsigned W = F.getParamType(I)->getBitWidth();
    if (Trial >= 6) {
      Args.push_back(APInt64(W, R.next()));
      continue;
    }
    switch ((Trial + I) % 6) {
    case 0:
      Args.push_back(APInt64::zero(W));
      break;
    case 1:
      Args.push_back(APInt64::one(W));
      break;
    case 2:
      Args.push_back(APInt64::allOnes(W));
      break;
    case 3:
      Args.push_back(APInt64::signedMin(W));
      break;
    case 4:
      Args.push_back(APInt64::signedMax(W));
      break;
    default:
      Args.push_back(APInt64(W, R.next()));
      break;
    }
  }
  return Args;
}

/// Try to refute equivalence with concrete executions before any SMT work.
/// The source halves were executed at build time under a recording token;
/// here each trial *replays* its source charges against the candidate's own
/// budget (so exhaustion lands exactly where a fresh run's source interp
/// would have stopped) and runs only the target for real.
bool falsify(const SourceEncoding &SC, const Function &Tgt,
             const VerifyOptions &Opts, Fuel &F, VerifyResult &Out) {
  const Function &Src = *SC.Src;
  if (SC.PointerParams)
    return false;
  assert(SC.Trials.size() >= Opts.FalsifyTrials &&
         "encoding built with fewer falsification trials than requested");
  InterpOptions IOpts;
  IOpts.FuelTok = &F;
  for (unsigned Trial = 0; Trial < Opts.FalsifyTrials; ++Trial) {
    if (F.exhausted())
      return false;
    const SourceEncoding::FalsifyTrial &T = SC.Trials[Trial];
    if (!F.replay(SC.FalsifyTrace, T.TraceBegin, T.TraceEnd))
      continue; // source would have timed out under this budget
    const ExecResult &SR = T.SrcRes;
    if (SR.St != ExecResult::Ok || SR.RetPoison)
      continue; // source undefined/poison: target is unconstrained
    ExecResult TR = interpret(Tgt, T.Args, IOpts);
    if (TR.St == ExecResult::Timeout || TR.St == ExecResult::Unsupported)
      continue;

    DiagKind Kind = DiagKind::None;
    std::string Detail;
    if (TR.St == ExecResult::UndefinedBehavior) {
      Kind = DiagKind::UBIntroduced;
      Detail = "Target has undefined behavior where source is defined (" +
               TR.Reason + ")";
    } else if (!callLogsMatch(SR.Calls, TR.Calls)) {
      Kind = DiagKind::CallMismatch;
      Detail = "Mismatch in external calls";
    } else if (TR.RetPoison) {
      Kind = DiagKind::PoisonMismatch;
      Detail = "Target returns poison where source is well-defined";
    } else if (!SR.IsVoid && SR.RetVal != TR.RetVal) {
      Kind = DiagKind::ValueMismatch;
      Detail = "Value mismatch";
    }
    if (Kind == DiagKind::None)
      continue;

    Out.Status = VerifyStatus::NotEquivalent;
    Out.Kind = Kind;
    Out.FoundByFalsification = true;
    for (unsigned I = 0; I < Src.getNumParams(); ++I)
      Out.Counterexample.push_back({argLabel(Src, I), T.Args[I]});
    std::ostringstream OS;
    OS << header(Src) << "Transformation doesn't verify!\nERROR: " << Detail
       << "\n"
       << renderBindings(Out.Counterexample);
    if (Kind == DiagKind::ValueMismatch) {
      OS << "Source value: " << SR.RetVal.toString() << "\n"
         << "Target value: " << TR.RetVal.toString() << "\n";
    }
    Out.Diagnostic = OS.str();
    return true;
  }
  return false;
}

VerifyResult exhaustedResult(const Function &Src) {
  VerifyResult Out;
  Out.Status = VerifyStatus::Inconclusive;
  Out.Kind = DiagKind::ResourceExhausted;
  Out.Diagnostic =
      header(Src) + "Inconclusive: verification fuel budget exhausted\n";
  return Out;
}

/// The candidate-dependent half of a query, produced by the (locked) build
/// phase. Every term the SAT/classification phase needs is stashed here so
/// that phase interns new nodes only in the path-split escalation, which
/// takes the lock again — context reads via stable node pointers are safe
/// concurrently with another candidate's build.
struct BuiltQuery {
  FnEncoding TE;
  ExternalWorld World; ///< per-candidate copy of the source world
  bool SrcFuelOut = false;
  bool Truncated = false;
  const BVExpr *CallMismatch = nullptr;
  const BVExpr *PoisonViol = nullptr;
  const BVExpr *Cex = nullptr;
  const BVExpr *RetS = nullptr; ///< source return term (null for void)
  const BVExpr *RetT = nullptr; ///< target return term (null for void)
  std::vector<const BVExpr *> ModelTerms;
};

/// The build phase: replay the source encode's charges, encode the target
/// into SC.Ctx, and assemble the refinement-violation condition and the
/// terms the SAT phase reads. Returns false, with \p Out the verdict, when
/// the query resolves before SAT.
bool buildQuery(SourceEncoding &SC, const Function &Tgt,
                const VerifyOptions &Opts, Fuel &F, BuiltQuery &Q,
                VerifyResult &Out) {
  const Function &Src = *SC.Src;
  {
    TRACE_SPAN("verify.encode");
    if (!F.replay(SC.EncodeTrace, 0, SC.EncodeTrace.size())) {
      // A fresh run encodes the source first; once its tank runs dry the
      // target encoder still charges its first block visit before
      // noticing. Reproduce that one charge so FuelSpent matches.
      F.consume(fuel::EncodeBlockVisit);
      Q.SrcFuelOut = true;
    } else {
      Q.World = SC.SrcWorld;
      EncodeLimits Limits;
      Limits.MaxPaths = Opts.MaxPaths;
      Limits.MaxBlockVisitsPerPath = Opts.MaxBlockVisitsPerPath;
      Limits.MaxStepsPerPath = Opts.MaxStepsPerPath;
      Limits.FuelTok = &F;
      Q.TE = encodeFunction(Tgt, SC.Ctx, SC.ArgVars, Q.World, Limits);
    }
  }

  if (Q.SrcFuelOut || Q.TE.FuelOut) {
    Out = exhaustedResult(Src);
    return false;
  }
  if (SC.SE.Unsupported || Q.TE.Unsupported) {
    Out.Status = VerifyStatus::Inconclusive;
    Out.Kind = DiagKind::Unsupported;
    Out.Diagnostic =
        "Inconclusive: " +
        (SC.SE.Unsupported ? SC.SE.UnsupportedWhy : Q.TE.UnsupportedWhy) +
        "\n";
    return false;
  }

  // No execution completed within the bound (e.g. the candidate loops
  // forever): nothing can be claimed, even in bounded mode.
  if (SC.SE.Paths.empty() || Q.TE.Paths.empty()) {
    Out.Status = VerifyStatus::Inconclusive;
    Out.Kind = DiagKind::LoopBound;
    Out.Diagnostic =
        "Inconclusive: no execution path completes within the unroll "
        "bound\n";
    return false;
  }

  const FnEncoding &SE = SC.SE;
  const FnEncoding &TE = Q.TE;
  BVContext &Ctx = SC.Ctx;

  Q.Truncated = !SE.Truncated->isFalse() || !TE.Truncated->isFalse();
  if (Q.Truncated && Opts.StrictLoops) {
    Out.Status = VerifyStatus::Inconclusive;
    Out.Kind = DiagKind::LoopBound;
    Out.Diagnostic = "Inconclusive: loop unroll bound reached\n";
    return false;
  }

  // Assumption region: inputs where both sides stayed within the unroll
  // bound (bounded translation validation, as in Alive2).
  const BVExpr *InBound =
      Ctx.and1(Ctx.not1(SE.Truncated), Ctx.not1(TE.Truncated));

  // Call-trace matching per (callee, occurrence).
  const BVExpr *CallMismatch = Ctx.falseVal();
  {
    std::map<std::pair<std::string, unsigned>,
             std::pair<std::vector<const CallRecord *>,
                       std::vector<const CallRecord *>>>
        ByKey;
    for (const CallRecord &Rec : SE.Calls)
      ByKey[{Rec.Callee, Rec.Index}].first.push_back(&Rec);
    for (const CallRecord &Rec : TE.Calls)
      ByKey[{Rec.Callee, Rec.Index}].second.push_back(&Rec);
    for (auto &[Key, Lists] : ByKey) {
      const BVExpr *SrcExec = Ctx.falseVal();
      for (const CallRecord *Rec : Lists.first)
        SrcExec = Ctx.or1(SrcExec, Rec->Guard);
      const BVExpr *TgtExec = Ctx.falseVal();
      for (const CallRecord *Rec : Lists.second)
        TgtExec = Ctx.or1(TgtExec, Rec->Guard);
      CallMismatch = Ctx.or1(CallMismatch, Ctx.ne(SrcExec, TgtExec));
      // Where both execute, arguments must agree.
      for (const CallRecord *SRec : Lists.first)
        for (const CallRecord *TRec : Lists.second) {
          const BVExpr *Both = Ctx.and1(SRec->Guard, TRec->Guard);
          if (Both->isFalse())
            continue;
          const BVExpr *ArgsDiffer = Ctx.falseVal();
          if (SRec->Args.size() != TRec->Args.size()) {
            ArgsDiffer = Ctx.trueVal();
          } else {
            for (size_t I = 0; I < SRec->Args.size(); ++I)
              ArgsDiffer = Ctx.or1(
                  ArgsDiffer, Ctx.ne(SRec->Args[I], TRec->Args[I]));
          }
          CallMismatch = Ctx.or1(CallMismatch, Ctx.and1(Both, ArgsDiffer));
        }
    }
  }
  Q.CallMismatch = CallMismatch;

  // Refinement violation condition.
  const BVExpr *SrcDefined = Ctx.not1(SE.UB);
  const BVExpr *Violation = TE.UB;
  Violation = Ctx.or1(Violation, CallMismatch);
  const BVExpr *ValueViol = Ctx.falseVal();
  Q.PoisonViol = Ctx.falseVal();
  if (!Src.getReturnType()->isVoid()) {
    Q.RetS = SE.returnTerm(Ctx);
    Q.RetT = TE.returnTerm(Ctx);
    const BVExpr *PoisS = SE.returnPoison(Ctx);
    const BVExpr *PoisT = TE.returnPoison(Ctx);
    assert(Q.RetS && Q.RetT && "non-void function without return paths");
    // When the source's return is non-poison, the target must return the
    // same non-poison value; a poison source return refines to anything.
    Q.PoisonViol = Ctx.and1(Ctx.not1(PoisS), PoisT);
    ValueViol = Ctx.and1(Ctx.not1(PoisS),
                         Ctx.and1(Ctx.not1(PoisT), Ctx.ne(Q.RetS, Q.RetT)));
    Violation = Ctx.or1(Violation, Ctx.or1(Q.PoisonViol, ValueViol));
  }
  Q.Cex = Ctx.and1(InBound, Ctx.and1(SrcDefined, Violation));

  // Extract a model over the arguments AND the external world so the
  // counterexample classification/rendering evaluates under the same
  // assignment the SAT solver found.
  Q.ModelTerms = SC.ArgVars;
  for (const BVExpr *WV : Q.World.vars())
    Q.ModelTerms.push_back(WV);
  return true;
}

/// Conflicts the plain miter may spend before the query is re-posed in
/// path-split form (solvePathSplit). The largest query of the `train`
/// workload needs 2,537, so every verdict and counter there is the plain
/// miter's; the queries past the cap are the hard tail, where the target
/// applies one divider to a select of values the source divides per path.
constexpr uint64_t PathSplitConflicts = 4096;

/// The `result` and `conflicts` args of a span around a solve.
void recordSat(TraceSpan &Span, const SmtCheck &Res) {
  Span.arg(TraceArg::ofStr("result", Res.St == SmtCheck::Sat     ? "sat"
                                     : Res.St == SmtCheck::Unsat ? "unsat"
                                                                 : "unknown"));
  Span.arg(TraceArg::ofInt("conflicts", static_cast<int64_t>(Res.Conflicts)));
}

/// \p Cex re-posed per source path p with condition c_p:
///   OR_p (c_p & Cex|c_p)  |  (!OR_p c_p & Cex),
/// where Cex|c_p is BVContext::simplifyUnder(Cex, c_p). The result equals
/// Cex on every input, so it has the same models; but under each c_p a
/// target term that merged the source's paths through selects collapses
/// onto that path's source term, and the two sides of the miter share it.
const BVExpr *pathSplitMiter(BVContext &Ctx, const FnEncoding &SE,
                             const BVExpr *Cex) {
  const BVExpr *Split = Ctx.falseVal();
  for (const PathOutcome &P : SE.Paths)
    Split = Ctx.or1(Split, Ctx.and1(P.Cond, Ctx.simplifyUnder(Cex, P.Cond)));
  return Ctx.or1(Split, Ctx.and1(Ctx.not1(SE.covered(Ctx)), Cex));
}

/// The escalation phase: solve the path-split form of \p Q.Cex on a fresh
/// solver with the \p Budget conflicts (0 = unlimited) the plain phase
/// left. Group members take the build lock around the rewrite, which
/// interns into the shared context; the fresh solver makes the search the
/// same in both modes.
SmtCheck solvePathSplit(SourceEncoding &SC, const BuiltQuery &Q,
                        uint64_t Budget, Fuel &F, bool Shared) {
  TraceSpan Span("verify.path_split");
  const BVExpr *Miter;
  {
    std::unique_lock<std::mutex> Lock(SC.BuildMu, std::defer_lock);
    if (Shared)
      Lock.lock();
    Miter = pathSplitMiter(SC.Ctx, SC.SE, Q.Cex);
  }
  SmtCheck Res;
  {
    TraceSpan SatSpan("verify.sat");
    Res = checkSat(SC.Ctx, Miter, Q.ModelTerms, Budget, &F);
    recordSat(SatSpan, Res);
  }
  MetricsRegistry &M = MetricsRegistry::global();
  static Counter &Queries = M.counter("verify.path_split.queries");
  static Counter &Decided = M.counter("verify.path_split.decided");
  Queries.inc();
  if (Res.St != SmtCheck::Unknown)
    Decided.inc();
  Span.arg(TraceArg::ofInt("paths", static_cast<int64_t>(SC.SE.Paths.size())));
  recordSat(Span, Res);
  return Res;
}

VerifyResult verifyAgainstEncodingImpl(SourceEncoding &SC, const Function &Tgt,
                                       const VerifyOptions &Opts, Fuel &F,
                                       bool Shared) {
  const Function &Src = *SC.Src;
  VerifyResult Out;

  // Signatures must match exactly.
  bool SigOk = Src.getReturnType() == Tgt.getReturnType() &&
               Src.getNumParams() == Tgt.getNumParams();
  if (SigOk)
    for (unsigned I = 0; I < Src.getNumParams(); ++I)
      SigOk = SigOk && Src.getParamType(I) == Tgt.getParamType(I);
  if (!SigOk) {
    Out.Status = VerifyStatus::NotEquivalent;
    Out.Kind = DiagKind::SignatureMismatch;
    Out.Diagnostic = header(Src) +
                     "Transformation doesn't verify!\n"
                     "ERROR: Source and target signatures differ\n";
    return Out;
  }

  // Cheap refutation first (ablation: micro_components measures the win).
  if (Opts.FalsifyTrials > 0) {
    TRACE_SPAN("verify.falsify");
    if (falsify(SC, Tgt, Opts, F, Out))
      return Out;
  }
  if (F.exhausted())
    return exhaustedResult(Src);

  if (SC.PointerParams) {
    Out.Status = VerifyStatus::Inconclusive;
    Out.Kind = DiagKind::Unsupported;
    Out.Diagnostic = "Inconclusive: pointer-typed parameters are outside "
                     "the symbolic model\n";
    return Out;
  }

  // Build phase. Mutates the context, so group members serialize here;
  // interning is structural, so the resulting terms do not depend on the
  // serialization order.
  BuiltQuery Q;
  {
    std::unique_lock<std::mutex> Lock(SC.BuildMu, std::defer_lock);
    if (Shared)
      Lock.lock();
    if (!buildQuery(SC, Tgt, Opts, F, Q, Out))
      return Out;
  } // build lock released; below only the path split interns.

  // The plain miter first, capped at PathSplitConflicts; a budget at or
  // below the cap is spent on it alone.
  const uint64_t Budget = Opts.SolverConflictBudget;
  const bool Capped = Budget == 0 || Budget > PathSplitConflicts;
  SmtCheck Res;
  {
    TraceSpan SatSpan("verify.sat");
    const uint64_t PlainBudget = Capped ? PathSplitConflicts : Budget;
    if (Q.Cex->isFalse()) {
      Res.St = SmtCheck::Unsat; // checkSat's trivial short-circuit
    } else {
      assert(SC.Prefix && "usable source encoding must carry a CNF prefix");
      Res = Shared ? SC.Prefix->activate(Q.Cex, Q.ModelTerms, PlainBudget, &F,
                                         /*CountRetained=*/true)
                   : SC.Prefix->activateInPlace(Q.Cex, Q.ModelTerms,
                                                PlainBudget, &F);
    }
    recordSat(SatSpan, Res);
  }
  if (Res.St == SmtCheck::Unknown && Capped && !F.exhausted()) {
    const uint64_t Plain = Res.Conflicts;
    Res = solvePathSplit(SC, Q, Budget == 0 ? 0 : Budget - Plain, F, Shared);
    Res.Conflicts += Plain;
  }
  Out.SolverConflicts = Res.Conflicts;

  if (Res.St == SmtCheck::Unknown) {
    Out.Status = VerifyStatus::Inconclusive;
    if (F.exhausted()) {
      Out.Kind = DiagKind::ResourceExhausted;
      Out.Diagnostic =
          header(Src) + "Inconclusive: verification fuel budget exhausted\n";
    } else {
      Out.Kind = DiagKind::SolverTimeout;
      Out.Diagnostic = "Inconclusive: SMT solver budget exhausted\n";
    }
    return Out;
  }

  if (Res.St == SmtCheck::Unsat) {
    Out.Status = VerifyStatus::Equivalent;
    Out.Kind = DiagKind::None;
    Out.BoundedOnly = Q.Truncated;
    std::ostringstream OS;
    OS << header(Src) << "Transformation seems to be correct!";
    if (Q.Truncated)
      OS << " (within unroll bound " << Opts.MaxBlockVisitsPerPath << ")";
    OS << "\n";
    Out.Diagnostic = OS.str();
    return Out;
  }

  // SAT: counterexample. Classify by evaluating the sub-conditions.
  Out.Status = VerifyStatus::NotEquivalent;
  auto evalTrue = [&](const BVExpr *E) {
    return SC.Ctx.evaluate(E, Res.Model).isOne();
  };
  if (evalTrue(Q.TE.UB))
    Out.Kind = DiagKind::UBIntroduced;
  else if (evalTrue(Q.CallMismatch))
    Out.Kind = DiagKind::CallMismatch;
  else if (evalTrue(Q.PoisonViol))
    Out.Kind = DiagKind::PoisonMismatch;
  else
    Out.Kind = DiagKind::ValueMismatch;

  for (unsigned I = 0; I < Src.getNumParams(); ++I) {
    APInt64 V = Res.Model.count(SC.ArgVars[I]->VarId)
                    ? Res.Model[SC.ArgVars[I]->VarId]
                    : APInt64::zero(SC.ArgVars[I]->Width);
    Out.Counterexample.push_back({argLabel(Src, I), V});
  }

  std::ostringstream OS;
  OS << header(Src) << "Transformation doesn't verify!\nERROR: ";
  switch (Out.Kind) {
  case DiagKind::UBIntroduced:
    OS << "Target is more poisonous/undefined than source";
    break;
  case DiagKind::CallMismatch:
    OS << "Mismatch in external calls";
    break;
  case DiagKind::PoisonMismatch:
    OS << "Target returns poison where source is well-defined";
    break;
  default:
    OS << "Value mismatch";
    break;
  }
  OS << "\n" << renderBindings(Out.Counterexample);
  if (Out.Kind == DiagKind::ValueMismatch &&
      !Src.getReturnType()->isVoid()) {
    OS << "Source value: "
       << SC.Ctx.evaluate(Q.RetS, Res.Model).toString() << "\n"
       << "Target value: "
       << SC.Ctx.evaluate(Q.RetT, Res.Model).toString() << "\n";
  }
  Out.Diagnostic = OS.str();
  return Out;
}

} // namespace

std::unique_ptr<SourceEncoding> buildSourceEncoding(const Function &Src,
                                                    const VerifyOptions &Opts) {
  auto SC = std::make_unique<SourceEncoding>();
  SC->Src = &Src;
  SC->Opts = Opts;

  for (unsigned I = 0; I < Src.getNumParams(); ++I)
    if (!Src.getParamType(I)->isInteger())
      SC->PointerParams = true;

  // Falsification source halves: run every trial once under an unlimited
  // recording token. The per-candidate pass replays each trial's charges
  // against its own budget, so sharing these runs never moves the point
  // where a given budget exhausts. Argument sampling consumes the RNG only
  // inside sampleArgs, so trial k's arguments are what a fresh run draws.
  if (Opts.FalsifyTrials > 0 && !SC->PointerParams) {
    RNG R(0xA11CE + Src.getNumParams());
    Fuel Rec;
    Rec.setTrace(&SC->FalsifyTrace);
    InterpOptions IOpts;
    IOpts.FuelTok = &Rec;
    for (unsigned Trial = 0; Trial < Opts.FalsifyTrials; ++Trial) {
      SourceEncoding::FalsifyTrial T;
      T.Args = sampleArgs(Src, R, Trial);
      T.TraceBegin = SC->FalsifyTrace.size();
      T.SrcRes = interpret(Src, T.Args, IOpts);
      T.TraceEnd = SC->FalsifyTrace.size();
      SC->Trials.push_back(std::move(T));
    }
  }
  if (SC->PointerParams)
    return SC; // every candidate resolves before needing the terms

  for (unsigned I = 0; I < Src.getNumParams(); ++I)
    SC->ArgVars.push_back(
        SC->Ctx.var(Src.getParamType(I)->getBitWidth(), argLabel(Src, I)));

  Fuel Rec;
  Rec.setTrace(&SC->EncodeTrace);
  EncodeLimits Limits;
  Limits.MaxPaths = Opts.MaxPaths;
  Limits.MaxBlockVisitsPerPath = Opts.MaxBlockVisitsPerPath;
  Limits.MaxStepsPerPath = Opts.MaxStepsPerPath;
  Limits.FuelTok = &Rec;
  SC->SE = encodeFunction(Src, SC->Ctx, SC->ArgVars, SC->SrcWorld, Limits);

  // Retain the source half's CNF when candidates can actually reach SAT
  // with it. The blast list is deterministic: argument variables, world
  // variables in map order, then the encoding's terms in a fixed order.
  if (!SC->SE.Unsupported && !SC->SE.Paths.empty()) {
    std::vector<const BVExpr *> PrefixTerms = SC->ArgVars;
    for (const BVExpr *WV : SC->SrcWorld.vars())
      PrefixTerms.push_back(WV);
    PrefixTerms.push_back(SC->SE.Truncated);
    PrefixTerms.push_back(SC->SE.UB);
    if (!Src.getReturnType()->isVoid()) {
      PrefixTerms.push_back(SC->SE.returnTerm(SC->Ctx));
      PrefixTerms.push_back(SC->SE.returnPoison(SC->Ctx));
    }
    for (const CallRecord &Rec2 : SC->SE.Calls) {
      PrefixTerms.push_back(Rec2.Guard);
      for (const BVExpr *A : Rec2.Args)
        PrefixTerms.push_back(A);
    }
    SC->Prefix = std::make_unique<QueryPrefix>(SC->Ctx, PrefixTerms);
  }
  return SC;
}

VerifyResult verifyAgainstEncoding(SourceEncoding &SC, const Function &Tgt,
                                   const VerifyOptions &Opts, bool Shared) {
  assert(SC.Opts.MaxPaths == Opts.MaxPaths &&
         SC.Opts.MaxBlockVisitsPerPath == Opts.MaxBlockVisitsPerPath &&
         SC.Opts.MaxStepsPerPath == Opts.MaxStepsPerPath &&
         SC.Opts.StrictLoops == Opts.StrictLoops &&
         SC.Opts.FalsifyTrials == Opts.FalsifyTrials &&
         "structural options must match the encoding; only budgets may vary");
  // One fuel token per verification: a deterministic total-work bound that
  // is independent of thread count and wall clock, so identical queries
  // yield bit-identical results everywhere.
  Fuel F(Opts.FuelBudget);
  VerifyResult Out = verifyAgainstEncodingImpl(SC, Tgt, Opts, F, Shared);
  Out.FuelSpent = F.spent();
  return Out;
}

const BVExpr *refinementCondition(SourceEncoding &SC, const Function &Tgt,
                                  const VerifyOptions &Opts) {
  if (SC.PointerParams)
    return nullptr;
  Fuel F;
  BuiltQuery Q;
  VerifyResult Out;
  return buildQuery(SC, Tgt, Opts, F, Q, Out) ? Q.Cex : nullptr;
}

static VerifyResult
verifyCandidateOnImpl(const EncodingProvider &GetSC, const Function &Src,
                      const Candidate &C, const VerifyOptions &Opts) {
  VerifyResult Out;
  // Adversarial-emission guard: refuse pathologically large candidates
  // (verifyCandidateText does not even parse them).
  if (Opts.MaxCandidateBytes > 0 && C.Text.size() > Opts.MaxCandidateBytes) {
    Out.Status = VerifyStatus::SyntaxError;
    Out.Kind = DiagKind::ParseError;
    Out.Diagnostic = header(Src) + "ERROR: Candidate exceeds maximum size (" +
                     std::to_string(C.Text.size()) + " > " +
                     std::to_string(Opts.MaxCandidateBytes) + " bytes)\n";
    return Out;
  }
  if (!C.M) {
    Out.Status = VerifyStatus::SyntaxError;
    Out.Kind = DiagKind::ParseError;
    Out.Diagnostic = header(Src) + "ERROR: Could not parse transformed IR (" +
                     C.ParseError + ")\n";
    return Out;
  }
  const Function *Tgt = C.function();
  if (!Tgt) {
    Out.Status = VerifyStatus::SyntaxError;
    Out.Kind = DiagKind::ParseError;
    Out.Diagnostic =
        header(Src) + "ERROR: Transformed IR contains no function\n";
    return Out;
  }
  if (Opts.MaxCandidateInsts > 0 &&
      Tgt->instructionCount() > Opts.MaxCandidateInsts) {
    Out.Status = VerifyStatus::SyntaxError;
    Out.Kind = DiagKind::StructureError;
    Out.Diagnostic = header(Src) +
                     "ERROR: Candidate exceeds maximum function size (" +
                     std::to_string(Tgt->instructionCount()) + " > " +
                     std::to_string(Opts.MaxCandidateInsts) +
                     " instructions)\n";
    return Out;
  }
  std::string Err;
  if (!isWellFormed(*Tgt, &Err)) {
    Out.Status = VerifyStatus::SyntaxError;
    Out.Kind = DiagKind::StructureError;
    Out.Diagnostic =
        header(Src) + "ERROR: Transformed IR is ill-formed (" + Err + ")\n";
    return Out;
  }
  // Only now is source-side work unavoidable: materialize the shared
  // encoding (or build a private one). Guard failures above never pay it.
  if (SourceEncoding *SC = GetSC ? GetSC() : nullptr)
    return verifyAgainstEncoding(*SC, *Tgt, Opts, /*Shared=*/true);
  auto Fresh = buildSourceEncoding(Src, Opts);
  return verifyAgainstEncoding(*Fresh, *Tgt, Opts, /*Shared=*/false);
}

VerifyResult verifyCandidateOn(const EncodingProvider &GetSC,
                               const Function &Src, const Candidate &C,
                               const VerifyOptions &Opts) {
  TraceSpan Span("verify.candidate");
  VerifyResult Out = verifyCandidateOnImpl(GetSC, Src, C, Opts);
  if (Span.active()) {
    Span.arg(TraceArg::ofStr("status", verifyStatusName(Out.Status)));
    Span.arg(TraceArg::ofStr("diag", diagKindName(Out.Kind)));
    Span.arg(TraceArg::ofInt("conflicts",
                             static_cast<int64_t>(Out.SolverConflicts)));
    Span.arg(TraceArg::ofInt("fuel", static_cast<int64_t>(Out.FuelSpent)));
    Span.arg(TraceArg::ofBool("falsified", Out.FoundByFalsification));
    Span.arg(TraceArg::ofBool("bounded_only", Out.BoundedOnly));
  }

  // The ad-hoc aggregates previously scattered over TrainLogEntry /
  // PipelineArtifacts now also land in the process-wide registry.
  MetricsRegistry &M = MetricsRegistry::global();
  static Counter &Queries = M.counter("verify.queries");
  static Histogram &Conflicts =
      M.histogram("verify.conflicts", workUnitBounds());
  static Histogram &FuelSpent = M.histogram("verify.fuel", workUnitBounds());
  Queries.inc();
  Conflicts.observe(static_cast<double>(Out.SolverConflicts));
  FuelSpent.observe(static_cast<double>(Out.FuelSpent));
  M.counter(std::string("verify.verdict.") + verifyStatusName(Out.Status))
      .inc();
  M.counter(std::string("verify.diag.") + diagKindName(Out.Kind)).inc();
  if (Out.FoundByFalsification)
    M.counter("verify.falsify_wins").inc();

  return Out;
}

} // namespace veriopt
