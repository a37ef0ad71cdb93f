//===- RunSummary.cpp - One-pass aggregation of a trace -----------------------//

#include "report/RunSummary.h"

#include <algorithm>

namespace veriopt {

namespace {

double argNum(const JsonValue &E, const char *Key, double Default = 0) {
  const JsonValue *Args = E.get("args");
  if (!Args)
    return Default;
  const JsonValue *V = Args->get(Key);
  return V && V->isNumber() ? V->number() : Default;
}

std::string argStr(const JsonValue &E, const char *Key) {
  const JsonValue *Args = E.get("args");
  if (!Args)
    return "";
  const JsonValue *V = Args->get(Key);
  return V && V->isString() ? V->str() : "";
}

std::string name(const JsonValue &E) {
  const JsonValue *N = E.get("name");
  return N && N->isString() ? N->str() : "";
}

double durMs(const JsonValue &E) {
  const JsonValue *D = E.get("dur_ns");
  return D && D->isNumber() ? D->number() / 1e6 : 0;
}

uint64_t argU64(const JsonValue &E, const char *Key) {
  return static_cast<uint64_t>(argNum(E, Key));
}

/// Canonical serialization for deterministic-plane keys: objects iterate
/// their (already sorted) std::map keys, numbers print via jsonNumber
/// (round-trips doubles), strings via jsonString. Equal JSON values always
/// produce equal text.
void canonJson(const JsonValue &V, std::string &Out) {
  switch (V.kind()) {
  case JsonValue::Kind::Null:
    Out += "null";
    break;
  case JsonValue::Kind::Bool:
    Out += V.boolean() ? "true" : "false";
    break;
  case JsonValue::Kind::Number:
    Out += jsonNumber(V.number());
    break;
  case JsonValue::Kind::String:
    Out += jsonString(V.str());
    break;
  case JsonValue::Kind::Array: {
    Out.push_back('[');
    bool First = true;
    for (const JsonValue &E : V.array()) {
      if (!First)
        Out.push_back(',');
      First = false;
      canonJson(E, Out);
    }
    Out.push_back(']');
    break;
  }
  case JsonValue::Kind::Object: {
    Out.push_back('{');
    bool First = true;
    for (const auto &[K, E] : V.object()) {
      if (!First)
        Out.push_back(',');
      First = false;
      Out += jsonString(K) + ":";
      canonJson(E, Out);
    }
    Out.push_back('}');
    break;
  }
  }
}

bool endsWith(const std::string &S, const std::string &Suffix) {
  return S.size() >= Suffix.size() &&
         S.compare(S.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

} // namespace

bool isTimingPlaneEvent(const JsonValue &Event) {
  // Metric exports are deterministic except for wall-clock instruments —
  // by the documented naming convention (docs/OBSERVABILITY.md) the `*_ms`
  // keys, whose values (and a latency histogram's bucket spread/sum)
  // measure elapsed time — and durability-plane instruments — the `io.`
  // prefix, whose values measure how the *disk* behaved (fault injections,
  // flush failures, degraded-mode gauges), so a faulty and a fault-free
  // same-seed run legitimately differ there while every correctness-plane
  // metric stays identical. Everything else about an event that can vary
  // between same-seed runs (ts_ns, dur_ns, tid, seq, meta) is already
  // outside the (name, ph, args) key.
  const std::string N = name(Event);
  if (N != "metric" && N != "metric.hist")
    return false;
  const std::string Key = argStr(Event, "key");
  return endsWith(Key, "_ms") || Key.compare(0, 3, "io.") == 0;
}

std::string deterministicEventKey(const JsonValue &Event) {
  std::string Key = name(Event);
  Key.push_back('|');
  if (const JsonValue *Ph = Event.get("ph"))
    if (Ph->isString())
      Key += Ph->str();
  Key.push_back('|');
  if (const JsonValue *Args = Event.get("args"))
    canonJson(*Args, Key);
  else
    Key += "{}";
  return Key;
}

RunSummary aggregateRun(const TraceLog &Log) {
  RunSummary S;
  S.Events = Log.Events.size();

  for (const JsonValue &E : Log.Events) {
    const std::string N = name(E);
    const std::string Ph =
        E.get("ph") && E.get("ph")->isString() ? E.get("ph")->str() : "";
    if (Ph == "X") {
      ++S.Spans;
      auto &Agg = S.SpansByName[N];
      ++Agg.Count;
      Agg.TotalMs += durMs(E);
    } else if (Ph == "C") {
      ++S.Counters;
    } else {
      ++S.Instants;
    }

    if (!isTimingPlaneEvent(E)) {
      ++S.DeterministicKeys[deterministicEventKey(E)];
      ++S.DeterministicEvents;
    }

    if (N == "grpo.step") {
      std::string Stage = argStr(E, "stage");
      if (Stage.empty())
        Stage = "(unlabeled)";
      S.Stages[Stage].push_back({argNum(E, "step"), argNum(E, "mean_reward"),
                                 argNum(E, "ema_reward"),
                                 argNum(E, "equivalent_rate")});
    } else if (N == "verify.candidate") {
      ++S.VerifyQueries;
      std::string Status = argStr(E, "status"), Diag = argStr(E, "diag");
      ++S.Verdicts[{Status, Diag}];
      ++S.StatusCounts[Status];
      ++S.DiagCounts[Diag];
      S.Candidates.push_back({durMs(E), Status, Diag, argU64(E, "conflicts"),
                              argU64(E, "fuel")});
    } else if (N == "verify.tier") {
      ++S.TierOutcomes[static_cast<int64_t>(argNum(E, "tier"))]
                      [argStr(E, "status")];
    } else if (N == "eval.run") {
      S.EvalRuns.push_back({argU64(E, "shards"), argU64(E, "samples"),
                            argU64(E, "correct"), argU64(E, "inconclusive"),
                            durMs(E)});
    } else if (N == "eval.shard") {
      S.EvalShards.push_back({argU64(E, "shard"), argU64(E, "begin"),
                              argU64(E, "end"), argU64(E, "samples"),
                              argU64(E, "correct"),
                              argU64(E, "inconclusive"), durMs(E)});
    } else if (N == "eval.driver") {
      S.DriverRuns.push_back({argU64(E, "shards"), argU64(E, "spawned"),
                              argU64(E, "retried"), argU64(E, "salvaged"),
                              argU64(E, "quarantined"), durMs(E)});
    } else if (N == "eval.worker") {
      ++S.WorkerOutcomes[argStr(E, "outcome")];
    } else if (N == "metric") {
      const std::string Key = argStr(E, "key");
      S.Metrics[Key] = argNum(E, "value");
      static const std::string RuleFire = "opt.rule_fire.";
      if (Key.compare(0, RuleFire.size(), RuleFire) == 0)
        S.RuleFires[Key.substr(RuleFire.size())] = argU64(E, "value");
    }
  }

  // Step curves render in step order regardless of emit order.
  for (auto &[_, Steps] : S.Stages)
    std::stable_sort(Steps.begin(), Steps.end(),
                     [](const RunSummary::StepRow &A,
                        const RunSummary::StepRow &B) {
                       return A.Step < B.Step;
                     });
  return S;
}

} // namespace veriopt
