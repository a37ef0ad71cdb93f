//===- TraceData.cpp - Trace loading and schema validation --------------------//

#include "report/TraceData.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace veriopt {

//===--- Loading --------------------------------------------------------------//

bool parseTraceJsonl(const std::string &Text, TraceLog &Out,
                     std::string *Err) {
  Out.Events.clear();
  size_t LineNo = 0, Pos = 0;
  while (Pos < Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string::npos)
      End = Text.size();
    std::string Line = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    ++LineNo;
    if (Line.empty())
      continue;
    JsonValue V;
    std::string JErr;
    if (!parseJson(Line, V, &JErr)) {
      if (Err)
        *Err = "line " + std::to_string(LineNo) + ": " + JErr;
      return false;
    }
    Out.Events.push_back(std::move(V));
  }
  return true;
}

bool loadTraceJsonl(const std::string &Path, TraceLog &Out,
                    std::string *Err) {
  std::ifstream IS(Path, std::ios::binary);
  if (!IS) {
    if (Err)
      *Err = "cannot open " + Path;
    return false;
  }
  std::ostringstream SS;
  SS << IS.rdbuf();
  return parseTraceJsonl(SS.str(), Out, Err);
}

//===--- Validation -----------------------------------------------------------//

const std::vector<std::string> &knownTraceEventNames() {
  static const std::vector<std::string> Names = {
      "pipeline.run",      "pipeline.stage", "pipeline.checkpoint",
      "grpo.step",         "grpo.generate",  "grpo.score",
      "verify.candidate",  "verify.falsify", "verify.encode",
      "verify.sat",        "verify.tier",    "verify.path_split",
      "batch.verify",      "eval.run",       "eval.shard",
      "eval.driver",       "eval.worker",    "store.load",
      "store.compact",     "metric",         "metric.hist",
  };
  return Names;
}

namespace {

struct ArgRule {
  const char *Key;
  JsonValue::Kind Kind;
};

/// Per-event required args (the documented schema's mandatory subset;
/// events may carry more).
const std::map<std::string, std::vector<ArgRule>> &requiredArgs() {
  static const std::map<std::string, std::vector<ArgRule>> Rules = {
      {"pipeline.run", {{"seed", JsonValue::Kind::Number}}},
      {"pipeline.stage", {{"stage", JsonValue::Kind::String}}},
      {"grpo.step",
       {{"step", JsonValue::Kind::Number},
        {"mean_reward", JsonValue::Kind::Number},
        {"ema_reward", JsonValue::Kind::Number},
        {"equivalent_rate", JsonValue::Kind::Number}}},
      {"grpo.generate", {{"step", JsonValue::Kind::Number}}},
      {"grpo.score",
       {{"step", JsonValue::Kind::Number},
        {"rollouts", JsonValue::Kind::Number}}},
      {"verify.candidate",
       {{"status", JsonValue::Kind::String},
        {"diag", JsonValue::Kind::String},
        {"conflicts", JsonValue::Kind::Number},
        {"fuel", JsonValue::Kind::Number}}},
      {"verify.sat", {{"result", JsonValue::Kind::String}}},
      {"verify.path_split",
       {{"paths", JsonValue::Kind::Number},
        {"conflicts", JsonValue::Kind::Number},
        {"result", JsonValue::Kind::String}}},
      {"batch.verify",
       {{"candidates", JsonValue::Kind::Number},
        {"unique", JsonValue::Kind::Number},
        {"cached", JsonValue::Kind::Number},
        {"computed", JsonValue::Kind::Number}}},
      {"verify.tier",
       {{"tier", JsonValue::Kind::Number},
        {"status", JsonValue::Kind::String},
        {"diag", JsonValue::Kind::String}}},
      {"eval.run",
       {{"shards", JsonValue::Kind::Number},
        {"samples", JsonValue::Kind::Number}}},
      {"eval.shard",
       {{"shard", JsonValue::Kind::Number},
        {"begin", JsonValue::Kind::Number},
        {"end", JsonValue::Kind::Number},
        {"samples", JsonValue::Kind::Number}}},
      {"eval.driver",
       {{"shards", JsonValue::Kind::Number},
        {"spawned", JsonValue::Kind::Number},
        {"retried", JsonValue::Kind::Number},
        {"salvaged", JsonValue::Kind::Number},
        {"quarantined", JsonValue::Kind::Number}}},
      {"eval.worker",
       {{"shard", JsonValue::Kind::Number},
        {"attempt", JsonValue::Kind::Number},
        {"outcome", JsonValue::Kind::String}}},
      {"store.load",
       {{"records", JsonValue::Kind::Number},
        {"live", JsonValue::Kind::Number},
        {"quarantined", JsonValue::Kind::Number}}},
      {"store.compact",
       {{"before", JsonValue::Kind::Number},
        {"after", JsonValue::Kind::Number}}},
      {"metric",
       {{"key", JsonValue::Kind::String},
        {"value", JsonValue::Kind::Number}}},
      {"metric.hist",
       {{"key", JsonValue::Kind::String},
        {"count", JsonValue::Kind::Number},
        {"sum", JsonValue::Kind::Number},
        {"bounds", JsonValue::Kind::String},
        {"counts", JsonValue::Kind::String}}},
  };
  return Rules;
}

bool validateEvent(const JsonValue &E, std::string &Why) {
  if (!E.isObject()) {
    Why = "event is not a JSON object";
    return false;
  }
  static const std::set<std::string> TopKeys = {
      "name", "ph", "ts_ns", "dur_ns", "tid", "seq", "args", "meta"};
  for (const auto &[K, _] : E.object())
    if (!TopKeys.count(K)) {
      Why = "unknown top-level field '" + K + "'";
      return false;
    }

  const JsonValue *Name = E.get("name");
  if (!Name || !Name->isString()) {
    Why = "missing/non-string 'name'";
    return false;
  }
  const auto &Known = knownTraceEventNames();
  if (std::find(Known.begin(), Known.end(), Name->str()) == Known.end()) {
    Why = "unknown event name '" + Name->str() + "'";
    return false;
  }

  const JsonValue *Ph = E.get("ph");
  if (!Ph || !Ph->isString() ||
      (Ph->str() != "X" && Ph->str() != "C" && Ph->str() != "i")) {
    Why = "'ph' must be one of \"X\", \"C\", \"i\"";
    return false;
  }
  for (const char *K : {"ts_ns", "tid", "seq"}) {
    const JsonValue *V = E.get(K);
    if (!V || !V->isNumber() || V->number() < 0) {
      Why = std::string("missing/negative numeric '") + K + "'";
      return false;
    }
  }
  if (Ph->str() == "X") {
    const JsonValue *Dur = E.get("dur_ns");
    if (!Dur || !Dur->isNumber() || Dur->number() < 0) {
      Why = "span (ph=X) without numeric 'dur_ns'";
      return false;
    }
  }
  const JsonValue *Args = E.get("args");
  if (!Args || !Args->isObject()) {
    Why = "missing 'args' object";
    return false;
  }
  if (const JsonValue *Meta = E.get("meta"))
    if (!Meta->isObject()) {
      Why = "'meta' is not an object";
      return false;
    }

  auto It = requiredArgs().find(Name->str());
  if (It != requiredArgs().end())
    for (const ArgRule &R : It->second) {
      const JsonValue *V = Args->get(R.Key);
      if (!V || V->kind() != R.Kind) {
        Why = "event '" + Name->str() + "' missing required arg '" + R.Key +
              "' of the documented type";
        return false;
      }
    }
  return true;
}

} // namespace

bool validateTraceLog(const TraceLog &Log, std::string *Err) {
  for (size_t I = 0; I < Log.Events.size(); ++I) {
    std::string Why;
    if (!validateEvent(Log.Events[I], Why)) {
      if (Err)
        *Err = "line " + std::to_string(I + 1) + ": " + Why;
      return false;
    }
  }
  return true;
}

} // namespace veriopt
