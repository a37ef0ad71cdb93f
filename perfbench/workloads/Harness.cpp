//===- Harness.cpp - perfbench workload runner plumbing -------------------===//

#include "Harness.h"

#include "cost/CostModel.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "support/RNG.h"
#include "trace/Metrics.h"
#include "trace/Trace.h"
#include "verify/VerifyCache.h"

#include <sys/resource.h>

#include <thread>

using namespace veriopt;

namespace perfbench {

void JsonObject::nums(const std::string &Key, const std::vector<double> &V) {
  std::string J = "[";
  for (size_t I = 0; I < V.size(); ++I)
    J += (I ? "," : "") + jsonNumber(V[I]);
  Fields.emplace_back(Key, J + "]");
}

std::string JsonObject::json() const {
  std::string J = "{";
  for (size_t I = 0; I < Fields.size(); ++I)
    J += (I ? ",\n" : "\n") + jsonString(Fields[I].first) + ": " +
         Fields[I].second;
  return J + "\n}";
}

std::string Checks::json() const {
  std::string J = "{\"attempted\": " + std::to_string(Attempted) +
                  ", \"failures\": [";
  for (size_t I = 0; I < Failures.size(); ++I)
    J += (I ? "," : "") + jsonString(Failures[I]);
  return J + "]}";
}

std::string envJson(const std::map<std::string, unsigned> &Threads) {
  JsonObject E;
  E.num("nproc", std::thread::hardware_concurrency());
  E.str("build_type", PERFBENCH_BUILD_TYPE);
  E.str("compiler", PERFBENCH_COMPILER);
  JsonObject T;
  for (const auto &[Name, N] : Threads)
    T.num(Name, N);
  E.raw("threads", T.json());
  return E.json();
}

long peakRssKb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss;
}

std::string countersJson() {
  JsonObject O;
  for (const auto &[Name, V] : MetricsRegistry::global().snapshot().Counters)
    O.num(Name, static_cast<double>(V));
  return O.json();
}

std::string spansJson() {
  std::string J = "[";
  bool First = true;
  for (const TraceEvent &E : TraceRecorder::instance().snapshot()) {
    if (E.Phase != TracePhase::Complete)
      continue;
    std::string Name = E.Name;
    if (Name == "pipeline.stage")
      for (const TraceArg &A : E.Args)
        if (A.Key == "stage")
          Name += ":" + A.S;
    J += (First ? "\n[" : ",\n[") + jsonString(Name) + "," +
         std::to_string(E.Tid) + "," + std::to_string(E.TsNs) + "," +
         std::to_string(E.DurNs) + "]";
    First = false;
  }
  return J + "]";
}

static bool integerParams(const Function &F) {
  for (unsigned I = 0; I < F.getNumParams(); ++I)
    if (!F.getParamType(I)->isInteger())
      return false;
  return true;
}

std::string differentialMismatch(const Function &Src, const Function &Tgt,
                                 uint64_t Seed, unsigned Trials) {
  if (!integerParams(Src) || Src.getNumParams() != Tgt.getNumParams())
    return "";
  RNG R(Seed);
  for (unsigned T = 0; T < Trials; ++T) {
    std::vector<APInt64> Args;
    for (unsigned I = 0; I < Src.getNumParams(); ++I)
      Args.push_back(APInt64(Src.getParamType(I)->getBitWidth(), R.next()));
    ExecResult SR = interpret(Src, Args);
    if (SR.St != ExecResult::Ok || SR.RetPoison)
      continue;
    ExecResult TR = interpret(Tgt, Args);
    if (TR.St != ExecResult::Ok)
      return "target faults where the source is defined (" + TR.Reason + ")";
    // A poison target return is left to the verifier, as in the
    // PipelineSoundness differential test.
    if (!SR.IsVoid && !TR.RetPoison && SR.RetVal.zext() != TR.RetVal.zext())
      return "return values differ on trial " + std::to_string(T);
  }
  return "";
}

bool interpreterShowsMismatch(const Function &Src, const Function &Tgt,
                              const std::vector<uint64_t> &Args) {
  if (!integerParams(Src) || Args.size() != Src.getNumParams())
    return false;
  std::vector<APInt64> In;
  for (unsigned I = 0; I < Src.getNumParams(); ++I)
    In.push_back(APInt64(Src.getParamType(I)->getBitWidth(), Args[I]));
  ExecResult SR = interpret(Src, In);
  if (SR.St != ExecResult::Ok)
    return false; // the source is undefined here: anything refines it
  ExecResult TR = interpret(Tgt, In);
  if (TR.St != ExecResult::Ok || TR.Calls.size() != SR.Calls.size())
    return true;
  if (SR.IsVoid || SR.RetPoison)
    return false;
  return TR.RetPoison || TR.RetVal.zext() != SR.RetVal.zext();
}

void replayCandidateLayers(const std::vector<CandidateText> &Texts,
                           JsonObject &Out) {
  const VerifyOptions VO;
  double ParseS = 0, KeyS = 0, CostS = 0;
  double Sink = 0; // keeps the cost-model calls observable
  for (const CandidateText &C : Texts) {
    double T0 = nowS();
    auto M = parseModule(C.Text);
    double T1 = nowS();
    std::string Key = VerifyCache::makeKey(*C.SrcText, C.Text, VO);
    double T2 = nowS();
    if (M) {
      if (Function *F = M.value()->getMainFunction())
        Sink += estimateLatency(*F) + instructionCount(*F) + binarySize(*F);
    }
    double T3 = nowS();
    ParseS += T1 - T0;
    KeyS += T2 - T1;
    CostS += T3 - T2;
    Sink += static_cast<double>(Key.size());
  }
  Out.num("ir.parse_ms", 1e3 * ParseS);
  Out.num("verify.make_key_ms", 1e3 * KeyS);
  Out.num("cost.estimate_ms", 1e3 * CostS);
  Out.num("replay.texts", static_cast<double>(Texts.size()));
  Out.num("replay.sink", Sink);
}

} // namespace perfbench
