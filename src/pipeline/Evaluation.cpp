//===- Evaluation.cpp - The paper's evaluation harness -------------------------//

#include "pipeline/Evaluation.h"

#include "cost/CostModel.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"
#include "trace/Json.h"
#include "trace/Metrics.h"
#include "trace/Trace.h"

#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>

namespace veriopt {

namespace {

/// Fill metric fields of \p E from the output function actually kept
/// (after fallback).
void fillMetrics(SampleEval &E, const Sample &S, const Function *Out) {
  E.LatO0 = estimateLatency(*S.source());
  E.ICountO0 = instructionCount(*S.source());
  E.SizeO0 = binarySize(*S.source());
  E.LatRef = estimateLatency(*S.Reference);
  E.ICountRef = instructionCount(*S.Reference);
  E.SizeRef = binarySize(*S.Reference);
  const Function *Kept = Out ? Out : S.source();
  E.LatOut = estimateLatency(*Kept);
  E.ICountOut = instructionCount(*Kept);
  E.SizeOut = binarySize(*Kept);
}

/// The evaluated completion: greedy decoding, which never draws from the
/// RNG it is handed.
Completion greedyCompletion(const RewritePolicyModel &Model, const Sample &S,
                            PromptMode Mode) {
  RNG Unused(0);
  return Model.generate(*S.source(), S.SrcText, Mode, Unused,
                        /*Greedy=*/true);
}

} // namespace

void recomputeAggregates(EvalResult &R) {
  auto fold = [](MetricAgg &Agg, auto Getter,
                 const std::vector<SampleEval> &Per) {
    Agg = MetricAgg();
    std::vector<double> Rel, Ratio;
    for (const SampleEval &E : Per) {
      auto [Base, Out] = Getter(E);
      if (Out < Base)
        ++Agg.Better;
      else if (Out > Base)
        ++Agg.Worse;
      else
        ++Agg.Tie;
      if (Base > 0) {
        Rel.push_back((Out - Base) / Base);
        Ratio.push_back(std::max(Out, 0.25) / Base);
      }
    }
    // Degenerate-corpus convention: with no positive-baseline sample there
    // is no change to report — 0.0 relative change and a neutral 1.0
    // geomean ratio, not the NaN/0 an empty mean/geomean would yield.
    Agg.MeanRelChange = Rel.empty() ? 0.0 : mean(Rel);
    Agg.GeoRatio = Ratio.empty() ? 1.0 : geomean(Ratio);
  };
  fold(R.Latency,
       [](const SampleEval &E) { return std::pair(E.LatO0, E.LatOut); },
       R.PerSample);
  fold(R.Size,
       [](const SampleEval &E) {
         return std::pair<double, double>(E.SizeO0, E.SizeOut);
       },
       R.PerSample);
  fold(R.ICount,
       [](const SampleEval &E) {
         return std::pair<double, double>(E.ICountO0, E.ICountOut);
       },
       R.PerSample);

  R.VsRefBetter = R.VsRefWorse = R.VsRefTie = 0;
  std::vector<double> Speedups, FallbackGain;
  for (const SampleEval &E : R.PerSample) {
    double Out = std::max(E.LatOut, 0.25);
    double Ref = std::max(E.LatRef, 0.25);
    Speedups.push_back(E.LatO0 > 0 ? std::max(E.LatO0, 0.25) / Out : 1.0);
    if (E.LatOut < E.LatRef)
      ++R.VsRefBetter;
    else if (E.LatOut > E.LatRef)
      ++R.VsRefWorse;
    else
      ++R.VsRefTie;
    FallbackGain.push_back(Ref / std::min(Out, Ref));
  }
  // Same convention for an empty corpus: a neutral 1.0 speedup and a 0.0
  // fallback gain (geomean(empty) is 0, which would report a nonsense
  // -100% gain).
  R.GeoSpeedupVsO0 = Speedups.empty() ? 1.0 : geomean(Speedups);
  R.FallbackGainOverRef =
      FallbackGain.empty() ? 0.0 : geomean(FallbackGain) - 1.0;
}

//===--- Per-sample core ------------------------------------------------------//

SampleEval evaluateCandidate(const Sample &S, const Completion &C,
                             const CandidateVerifier &Verify,
                             VerifyTaxonomy &Tax) {
  SampleEval E;
  ++Tax.Total;

  const Function *OutF = nullptr;
  VerifyResult VR;
  std::optional<Candidate> Answer;
  if (!C.FormatOk) {
    VR.Status = VerifyStatus::SyntaxError;
    VR.Kind = DiagKind::ParseError;
  } else {
    Answer.emplace(C.AnswerIR);
    VR = Verify(S, *Answer);
    if (VR.equivalent()) {
      // An Equivalent verdict for an answer with no parsed function (a
      // lying verifier, or parser/verifier drift) must not be trusted:
      // classify as Inconclusive with a distinct diagnostic and keep the
      // -O0 fallback.
      OutF = Answer->function();
      if (!OutF) {
        VR = VerifyResult();
        VR.Status = VerifyStatus::Inconclusive;
        VR.Kind = DiagKind::ParseError;
        VR.Diagnostic = "Inconclusive: verifier reported Equivalent but the "
                        "candidate did not reparse; keeping the -O0 output\n";
      }
    }
  }
  E.Status = VR.Status;
  E.IsCopy = C.FormatOk && C.AnswerIR == S.SrcText;

  switch (VR.Status) {
  case VerifyStatus::Equivalent:
    ++Tax.Correct;
    Tax.CorrectCopies += E.IsCopy;
    break;
  case VerifyStatus::NotEquivalent:
    ++Tax.SemanticError;
    break;
  case VerifyStatus::SyntaxError:
    ++Tax.SyntaxError;
    break;
  case VerifyStatus::Inconclusive:
    ++Tax.Inconclusive;
    break;
  }

  // Fallback to -O0 when the output is not verifiably correct (§V-B).
  E.UsedFallback = OutF == nullptr;
  fillMetrics(E, S, OutF);
  return E;
}

//===--- Serial oracle --------------------------------------------------------//

EvalResult evaluateModel(const RewritePolicyModel &Model,
                         const std::vector<Sample> &Valid, PromptMode Mode,
                         const VerifyOptions &VOpts) {
  EvalResult R;
  R.ModelName = Model.config().Name;

  CandidateVerifier Verify = [&VOpts](const Sample &S, const Candidate &A) {
    return verifyCandidate(*S.source(), A, VOpts);
  };
  for (const Sample &S : Valid)
    R.PerSample.push_back(evaluateCandidate(
        S, greedyCompletion(Model, S, Mode), Verify, R.Taxonomy));
  recomputeAggregates(R);
  return R;
}

EvalResult evaluateReferencePass(const std::vector<Sample> &Valid) {
  EvalResult R;
  R.ModelName = "instcombine";
  for (const Sample &S : Valid) {
    SampleEval E;
    ++R.Taxonomy.Total;
    ++R.Taxonomy.Correct; // pairs were filtered to be verified (§IV-A)
    E.Status = VerifyStatus::Equivalent;
    E.IsCopy = S.RefText == S.SrcText;
    R.Taxonomy.CorrectCopies += E.IsCopy;
    fillMetrics(E, S, S.Reference.get());
    R.PerSample.push_back(E);
  }
  recomputeAggregates(R);
  return R;
}

//===--- Sharding -------------------------------------------------------------//

std::vector<EvalShard> planEvalShards(size_t N, unsigned Shards) {
  if (Shards == 0)
    Shards = 1;
  std::vector<EvalShard> Plan(Shards);
  for (unsigned I = 0; I < Shards; ++I) {
    EvalShard &S = Plan[I];
    S.Index = I;
    S.Begin = N * I / Shards;
    S.End = N * (I + 1) / Shards;
  }
  return Plan;
}

EvalVerifier::EvalVerifier(const VerifyOptions &VOpts,
                           const EvalOptions &EOpts) {
  VerifyCache *C = EOpts.SharedCache;
  if (!C) {
    OwnedCache = std::make_unique<VerifyCache>();
    C = OwnedCache.get();
  }
  if (EOpts.VerdictTier)
    C->setBackingStore(EOpts.VerdictTier);
  Ladder.Base = VOpts;
  Ladder.MaxTiers = 1; // evaluation runs one fixed budget, no ladder
  Ladder.Cache = C;
}

VerifyResult EvalVerifier::verify(const Sample &S,
                                  const Candidate &Answer) const {
  return verifyGroup(Ladder, S.SrcText, *S.source(), {&Answer})
      .front()
      .Result;
}

ShardEvalResult evaluateEvalShard(const RewritePolicyModel &Model,
                                  const std::vector<Sample> &Valid,
                                  PromptMode Mode, const VerifyOptions &VOpts,
                                  const EvalShard &Shard,
                                  const EvalVerifier *Verifier) {
  TraceSpan Span("eval.shard");

  ShardEvalResult R;
  R.Shard = Shard;

  CandidateVerifier Verify;
  if (Verifier)
    Verify = [Verifier](const Sample &S, const Candidate &A) {
      return Verifier->verify(S, A);
    };
  else
    Verify = [&VOpts](const Sample &S, const Candidate &A) {
      return verifyCandidate(*S.source(), A, VOpts);
    };

  const size_t End = std::min(Shard.End, Valid.size());
  for (size_t I = Shard.Begin; I < End; ++I)
    R.PerSample.push_back(evaluateCandidate(
        Valid[I], greedyCompletion(Model, Valid[I], Mode), Verify,
        R.Taxonomy));

  static Counter &ShardCount = MetricsRegistry::global().counter("eval.shards");
  static Counter &SampleCount =
      MetricsRegistry::global().counter("eval.samples");
  ShardCount.inc();
  SampleCount.inc(R.Taxonomy.Total);

  if (Span.active()) {
    Span.arg(TraceArg::ofInt("shard", Shard.Index));
    Span.arg(TraceArg::ofInt("begin", static_cast<int64_t>(Shard.Begin)));
    Span.arg(TraceArg::ofInt("end", static_cast<int64_t>(End)));
    Span.arg(TraceArg::ofInt("samples", R.Taxonomy.Total));
    Span.arg(TraceArg::ofInt("correct", R.Taxonomy.Correct));
    Span.arg(TraceArg::ofInt("semantic_error", R.Taxonomy.SemanticError));
    Span.arg(TraceArg::ofInt("syntax_error", R.Taxonomy.SyntaxError));
    Span.arg(TraceArg::ofInt("inconclusive", R.Taxonomy.Inconclusive));
  }
  return R;
}

EvalResult mergeShardResults(const std::string &ModelName,
                             std::vector<ShardEvalResult> Shards) {
  // Order-independent reduction: canonicalize on shard index first, so the
  // merged PerSample order equals corpus order no matter how the input was
  // produced (thread completion order, out-of-order process results, ...).
  std::sort(Shards.begin(), Shards.end(),
            [](const ShardEvalResult &A, const ShardEvalResult &B) {
              return A.Shard.Index < B.Shard.Index;
            });
  EvalResult R;
  R.ModelName = ModelName;
  for (ShardEvalResult &S : Shards) {
    R.Taxonomy.Total += S.Taxonomy.Total;
    R.Taxonomy.Correct += S.Taxonomy.Correct;
    R.Taxonomy.CorrectCopies += S.Taxonomy.CorrectCopies;
    R.Taxonomy.SemanticError += S.Taxonomy.SemanticError;
    R.Taxonomy.SyntaxError += S.Taxonomy.SyntaxError;
    R.Taxonomy.Inconclusive += S.Taxonomy.Inconclusive;
    for (SampleEval &E : S.PerSample)
      R.PerSample.push_back(E);
  }
  recomputeAggregates(R);
  return R;
}

namespace {

/// Bitwise double equality: differential checks require bit-identity, not
/// epsilon-closeness (-0.0 != 0.0, NaN == NaN, like memcmp).
bool bitEq(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

bool sameAgg(const MetricAgg &A, const MetricAgg &B) {
  return A.Better == B.Better && A.Worse == B.Worse && A.Tie == B.Tie &&
         bitEq(A.MeanRelChange, B.MeanRelChange) &&
         bitEq(A.GeoRatio, B.GeoRatio);
}

} // namespace

unsigned countResultDivergence(const EvalResult &A, const EvalResult &B) {
  unsigned D = 0;
  D += A.Taxonomy.Total != B.Taxonomy.Total;
  D += A.Taxonomy.Correct != B.Taxonomy.Correct;
  D += A.Taxonomy.CorrectCopies != B.Taxonomy.CorrectCopies;
  D += A.Taxonomy.SemanticError != B.Taxonomy.SemanticError;
  D += A.Taxonomy.SyntaxError != B.Taxonomy.SyntaxError;
  D += A.Taxonomy.Inconclusive != B.Taxonomy.Inconclusive;
  D += !sameAgg(A.Latency, B.Latency);
  D += !sameAgg(A.Size, B.Size);
  D += !sameAgg(A.ICount, B.ICount);
  D += !bitEq(A.GeoSpeedupVsO0, B.GeoSpeedupVsO0);
  D += !bitEq(A.FallbackGainOverRef, B.FallbackGainOverRef);
  D += A.VsRefBetter != B.VsRefBetter || A.VsRefWorse != B.VsRefWorse ||
       A.VsRefTie != B.VsRefTie;
  if (A.PerSample.size() != B.PerSample.size())
    return D + 1;
  for (size_t I = 0; I < A.PerSample.size(); ++I) {
    const SampleEval &X = A.PerSample[I], &Y = B.PerSample[I];
    D += X.Status != Y.Status || X.IsCopy != Y.IsCopy ||
         X.UsedFallback != Y.UsedFallback || !bitEq(X.LatOut, Y.LatOut) ||
         !bitEq(X.LatO0, Y.LatO0) || !bitEq(X.LatRef, Y.LatRef) ||
         X.ICountOut != Y.ICountOut || X.SizeOut != Y.SizeOut;
  }
  return D;
}

EvalResult evaluateModelSharded(const RewritePolicyModel &Model,
                                const std::vector<Sample> &Valid,
                                PromptMode Mode, const VerifyOptions &VOpts,
                                const EvalOptions &EOpts) {
  TraceSpan Span("eval.run");

  unsigned Shards = EOpts.Shards;
  if (Shards == 0)
    Shards = EOpts.Pool ? EOpts.Pool->numThreads() : 1;
  std::vector<EvalShard> Plan = planEvalShards(Valid.size(), Shards);

  // One verifier (and cache) for the whole run: shards are parallelized at
  // shard granularity (the group-level fan-out stays off — ThreadPool jobs
  // are not reentrant), and the cache's single-flight keeps duplicate
  // (source, candidate) pairs across shards from paying twice.
  const EvalVerifier Verifier(VOpts, EOpts);
  std::vector<ShardEvalResult> Results(Plan.size());
  auto RunShard = [&](size_t I) {
    Results[I] =
        evaluateEvalShard(Model, Valid, Mode, VOpts, Plan[I], &Verifier);
  };
  if (EOpts.Pool && EOpts.Pool->numThreads() > 1 && Plan.size() > 1)
    EOpts.Pool->parallelFor(Plan.size(), RunShard);
  else
    for (size_t I = 0; I < Plan.size(); ++I)
      RunShard(I);

  EvalResult R = mergeShardResults(Model.config().Name, std::move(Results));
  if (Span.active()) {
    Span.arg(TraceArg::ofInt("shards", static_cast<int64_t>(Plan.size())));
    Span.arg(TraceArg::ofInt("samples", R.Taxonomy.Total));
    Span.arg(TraceArg::ofInt("correct", R.Taxonomy.Correct));
    Span.arg(TraceArg::ofInt("inconclusive", R.Taxonomy.Inconclusive));
    Span.arg(TraceArg::ofStr("model", R.ModelName));
    // Pool width shapes the schedule, not the result.
    Span.meta(TraceArg::ofInt(
        "threads", EOpts.Pool ? EOpts.Pool->numThreads() : 1));
  }
  return R;
}

//===--- Shard serialization --------------------------------------------------//

namespace {

bool shardFromJsonObject(const JsonValue &O, EvalShard &S) {
  uint64_t Index = 0, Begin = 0, End = 0;
  if (!jsonCountField(O, "index", Index) ||
      !jsonCountField(O, "begin", Begin) || !jsonCountField(O, "end", End))
    return false;
  S.Index = static_cast<unsigned>(Index);
  S.Begin = static_cast<size_t>(Begin);
  S.End = static_cast<size_t>(End);
  return true;
}

void shardToJson(std::ostringstream &OS, const EvalShard &S) {
  OS << "{\"index\":" << S.Index << ",\"begin\":" << S.Begin
     << ",\"end\":" << S.End << "}";
}

} // namespace

std::string shardManifestToJson(const std::vector<EvalShard> &Plan,
                                size_t Samples) {
  std::ostringstream OS;
  OS << "{\"samples\":" << Samples << ",\"shards\":[";
  for (size_t I = 0; I < Plan.size(); ++I) {
    if (I)
      OS << ",";
    shardToJson(OS, Plan[I]);
  }
  OS << "]}\n";
  return OS.str();
}

bool shardManifestFromJson(const std::string &Text,
                           std::vector<EvalShard> &Plan, std::string *Err) {
  JsonValue V;
  if (!parseJson(Text, V, Err))
    return false;
  const JsonValue *Shards = V.get("shards");
  if (!Shards || !Shards->isArray()) {
    if (Err)
      *Err = "manifest missing 'shards' array";
    return false;
  }
  Plan.clear();
  for (const JsonValue &E : Shards->array()) {
    EvalShard S;
    if (!shardFromJsonObject(E, S)) {
      if (Err)
        *Err = "malformed shard entry";
      return false;
    }
    Plan.push_back(S);
  }
  return true;
}

std::string shardResultToJson(const ShardEvalResult &R) {
  std::ostringstream OS;
  OS << "{\"shard\":";
  shardToJson(OS, R.Shard);
  const VerifyTaxonomy &T = R.Taxonomy;
  OS << ",\"taxonomy\":{\"total\":" << T.Total << ",\"correct\":" << T.Correct
     << ",\"correct_copies\":" << T.CorrectCopies
     << ",\"semantic_error\":" << T.SemanticError
     << ",\"syntax_error\":" << T.SyntaxError
     << ",\"inconclusive\":" << T.Inconclusive << "}";
  OS << ",\"per_sample\":[";
  for (size_t I = 0; I < R.PerSample.size(); ++I) {
    const SampleEval &E = R.PerSample[I];
    if (I)
      OS << ",";
    OS << "{\"status\":" << jsonString(verifyStatusName(E.Status))
       << ",\"is_copy\":" << (E.IsCopy ? "true" : "false")
       << ",\"used_fallback\":" << (E.UsedFallback ? "true" : "false")
       << ",\"lat_o0\":" << jsonString(hexDouble(E.LatO0))
       << ",\"lat_out\":" << jsonString(hexDouble(E.LatOut))
       << ",\"lat_ref\":" << jsonString(hexDouble(E.LatRef))
       << ",\"icount_o0\":" << E.ICountO0 << ",\"icount_out\":" << E.ICountOut
       << ",\"icount_ref\":" << E.ICountRef << ",\"size_o0\":" << E.SizeO0
       << ",\"size_out\":" << E.SizeOut << ",\"size_ref\":" << E.SizeRef
       << "}";
  }
  OS << "]}\n";
  return OS.str();
}

bool shardResultFromJson(const std::string &Text, ShardEvalResult &R,
                         std::string *Err) {
  JsonValue V;
  if (!parseJson(Text, V, Err))
    return false;
  auto fail = [&](const char *Why) {
    if (Err)
      *Err = Why;
    return false;
  };
  const JsonValue *Shard = V.get("shard");
  if (!Shard || !shardFromJsonObject(*Shard, R.Shard))
    return fail("malformed 'shard' object");

  const JsonValue *Tax = V.get("taxonomy");
  if (!Tax || !Tax->isObject())
    return fail("missing 'taxonomy' object");
  uint64_t U = 0;
  auto taxField = [&](const char *Key, unsigned &Out) {
    if (!jsonCountField(*Tax, Key, U))
      return false;
    Out = static_cast<unsigned>(U);
    return true;
  };
  VerifyTaxonomy &T = R.Taxonomy;
  if (!taxField("total", T.Total) || !taxField("correct", T.Correct) ||
      !taxField("correct_copies", T.CorrectCopies) ||
      !taxField("semantic_error", T.SemanticError) ||
      !taxField("syntax_error", T.SyntaxError) ||
      !taxField("inconclusive", T.Inconclusive))
    return fail("malformed 'taxonomy' object");

  const JsonValue *Per = V.get("per_sample");
  if (!Per || !Per->isArray())
    return fail("missing 'per_sample' array");
  R.PerSample.clear();
  for (const JsonValue &EJ : Per->array()) {
    SampleEval E;
    const JsonValue *Status = EJ.get("status");
    if (!Status || !Status->isString())
      return fail("sample missing 'status'");
    if (!verifyStatusFromName(Status->str(), E.Status))
      return fail("unknown sample 'status'");
    const JsonValue *Copy = EJ.get("is_copy");
    const JsonValue *Fallback = EJ.get("used_fallback");
    if (!Copy || !Copy->isBool() || !Fallback || !Fallback->isBool())
      return fail("sample missing boolean fields");
    E.IsCopy = Copy->boolean();
    E.UsedFallback = Fallback->boolean();
    if (!jsonHexDoubleField(EJ, "lat_o0", E.LatO0) ||
        !jsonHexDoubleField(EJ, "lat_out", E.LatOut) ||
        !jsonHexDoubleField(EJ, "lat_ref", E.LatRef))
      return fail("sample missing latency bit-hex fields");
    auto u32Field = [&](const char *Key, unsigned &Out) {
      if (!jsonCountField(EJ, Key, U))
        return false;
      Out = static_cast<unsigned>(U);
      return true;
    };
    if (!u32Field("icount_o0", E.ICountO0) ||
        !u32Field("icount_out", E.ICountOut) ||
        !u32Field("icount_ref", E.ICountRef) ||
        !u32Field("size_o0", E.SizeO0) || !u32Field("size_out", E.SizeOut) ||
        !u32Field("size_ref", E.SizeRef))
      return fail("sample missing count fields");
    R.PerSample.push_back(E);
  }

  // Internal consistency: a truncated-but-still-valid-JSON file (fewer
  // per_sample entries than the taxonomy claims) or bit-rotted counts must
  // be a typed error — the driver treats it as a failed attempt, never
  // merges it.
  if (T.Total != R.PerSample.size())
    return fail("taxonomy total does not match per_sample length");
  if (T.Correct + T.SemanticError + T.SyntaxError + T.Inconclusive !=
      T.Total)
    return fail("taxonomy counts do not sum to total");
  if (T.CorrectCopies > T.Correct)
    return fail("correct_copies exceeds correct");
  if (R.Shard.End < R.Shard.Begin)
    return fail("shard range is inverted");
  return true;
}

//===--- Rendering ------------------------------------------------------------//

std::string renderTaxonomy(const std::string &Title,
                           const VerifyTaxonomy &T) {
  std::ostringstream OS;
  OS << Title << "\n";
  OS << "  Category                         Count   Proportion (%)\n";
  auto Row = [&](const char *Name, unsigned N) {
    OS << "  " << Name;
    for (size_t Pad = std::string(Name).size(); Pad < 33; ++Pad)
      OS << ' ';
    char Buf[64];
    // pct() renders an empty split as 0.0 for every row (never NaN/inf).
    snprintf(Buf, sizeof(Buf), "%5u   %5.1f\n", N, T.pct(N));
    OS << Buf;
  };
  Row("Correct (verified)", T.Correct);
  Row("- Copy of input (no optimization)", T.CorrectCopies);
  Row("Semantic Error (Not Equivalent)", T.SemanticError);
  Row("Syntax Error (Invalid IR)", T.SyntaxError);
  Row("Inconclusive", T.Inconclusive);
  return OS.str();
}

} // namespace veriopt
