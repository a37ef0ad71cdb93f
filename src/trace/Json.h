//===- Json.h - Minimal JSON reader/writer helpers ---------------*- C++ -*-=//
//
// A small, dependency-free JSON layer for the observability subsystem: the
// JSONL/Chrome sinks need escaping-correct serialization, and the report
// renderer + schema validator need to read the files back. Covers the full
// JSON grammar except scientific-notation corner cases beyond what
// strtod handles (i.e. all of them in practice).
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_TRACE_JSON_H
#define VERIOPT_TRACE_JSON_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace veriopt {

/// Escape \p S for inclusion inside a JSON string literal (no surrounding
/// quotes). Control characters become \uXXXX; the output is plain ASCII for
/// ASCII input and passes non-ASCII bytes through (valid for UTF-8 input).
std::string jsonEscape(const std::string &S);

/// Quote + escape.
inline std::string jsonString(const std::string &S) {
  return "\"" + jsonEscape(S) + "\"";
}

/// Serialize a double so it round-trips and stays valid JSON (no inf/nan —
/// those clamp to the largest finite double, keeping writers total).
std::string jsonNumber(double V);

/// A 64-bit value as exactly 16 lowercase hex digits: the exact channel
/// for fields a JSON double cannot carry (full uint64s, and doubles as
/// their IEEE-754 bit pattern, which text formatting must never perturb).
std::string hex64(uint64_t V);
/// Inverse of hex64: accepts exactly 16 lowercase hex digits.
bool parseHex64(const std::string &S, uint64_t &Out);
std::string hexDouble(double D);
bool parseHexDouble(const std::string &S, double &Out);

/// A parsed JSON value.
class JsonValue {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool boolean() const { return B; }
  double number() const { return Num; }
  int64_t asInt() const { return static_cast<int64_t>(Num); }
  const std::string &str() const { return Str; }
  const std::vector<JsonValue> &array() const { return Arr; }
  const std::map<std::string, JsonValue> &object() const { return Obj; }

  /// Object member access; null pointer when absent or not an object.
  const JsonValue *get(const std::string &Key) const;

  Kind K = Kind::Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<JsonValue> Arr;
  std::map<std::string, JsonValue> Obj;
};

/// Parse one JSON document. Returns false (with a position-carrying message
/// in \p Err) on malformed input or trailing garbage.
bool parseJson(const std::string &Text, JsonValue &Out, std::string *Err);

/// Strict member readers for the formats that must round-trip exactly
/// (shard results, the verdict journal). Each returns false when \p Key is
/// absent or has the wrong shape; nothing is truncated or defaulted.
///
/// A non-negative integral number: 1.5 or -3 in a count field (bit rot, a
/// hand-edited file) is a typed reject, not a silent truncation.
bool jsonCountField(const JsonValue &O, const char *Key, uint64_t &Out);
/// A hex64() string.
bool jsonHex64Field(const JsonValue &O, const char *Key, uint64_t &Out);
/// A hexDouble() string.
bool jsonHexDoubleField(const JsonValue &O, const char *Key, double &Out);

} // namespace veriopt

#endif // VERIOPT_TRACE_JSON_H
