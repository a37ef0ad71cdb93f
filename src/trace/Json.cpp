//===- Json.cpp - Minimal JSON reader/writer helpers --------------------------//

#include "trace/Json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace veriopt {

std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out.push_back(static_cast<char>(C));
      }
    }
  }
  return Out;
}

std::string jsonNumber(double V) {
  if (std::isnan(V))
    V = 0;
  if (std::isinf(V))
    V = V > 0 ? std::numeric_limits<double>::max()
              : std::numeric_limits<double>::lowest();
  // Integral values print without a fraction so integer-valued fields stay
  // visually integral in the JSONL.
  if (V == static_cast<double>(static_cast<int64_t>(V)) &&
      std::fabs(V) < 9.0e15) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%lld",
                  static_cast<long long>(static_cast<int64_t>(V)));
    return Buf;
  }
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

bool parseHex64(const std::string &S, uint64_t &Out) {
  if (S.size() != 16)
    return false;
  uint64_t V = 0;
  for (char C : S) {
    V <<= 4;
    if (C >= '0' && C <= '9')
      V |= static_cast<uint64_t>(C - '0');
    else if (C >= 'a' && C <= 'f')
      V |= static_cast<uint64_t>(C - 'a' + 10);
    else
      return false;
  }
  Out = V;
  return true;
}

std::string hexDouble(double D) {
  uint64_t Bits;
  std::memcpy(&Bits, &D, sizeof(Bits));
  return hex64(Bits);
}

bool parseHexDouble(const std::string &S, double &Out) {
  uint64_t Bits;
  if (!parseHex64(S, Bits))
    return false;
  std::memcpy(&Out, &Bits, sizeof(Out));
  return true;
}

bool jsonCountField(const JsonValue &O, const char *Key, uint64_t &Out) {
  const JsonValue *V = O.get(Key);
  if (!V || !V->isNumber() || V->number() < 0 ||
      V->number() != std::floor(V->number()))
    return false;
  Out = static_cast<uint64_t>(V->number());
  return true;
}

bool jsonHex64Field(const JsonValue &O, const char *Key, uint64_t &Out) {
  const JsonValue *V = O.get(Key);
  return V && V->isString() && parseHex64(V->str(), Out);
}

bool jsonHexDoubleField(const JsonValue &O, const char *Key, double &Out) {
  const JsonValue *V = O.get(Key);
  return V && V->isString() && parseHexDouble(V->str(), Out);
}

const JsonValue *JsonValue::get(const std::string &Key) const {
  if (K != Kind::Object)
    return nullptr;
  auto It = Obj.find(Key);
  return It == Obj.end() ? nullptr : &It->second;
}

namespace {

class Parser {
public:
  Parser(const std::string &Text) : S(Text) {}

  bool parse(JsonValue &Out, std::string *Err) {
    skipWs();
    if (!value(Out))
      return fail(Err);
    skipWs();
    if (Pos != S.size()) {
      Msg = "trailing characters";
      return fail(Err);
    }
    return true;
  }

private:
  bool fail(std::string *Err) {
    if (Msg.empty())
      return true; // parse succeeded
    if (Err)
      *Err = Msg + " at offset " + std::to_string(Pos);
    return false;
  }

  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                              S[Pos] == '\n' || S[Pos] == '\r'))
      ++Pos;
  }

  bool literal(const char *Lit) {
    size_t N = std::char_traits<char>::length(Lit);
    if (S.compare(Pos, N, Lit) != 0) {
      Msg = std::string("expected '") + Lit + "'";
      return false;
    }
    Pos += N;
    return true;
  }

  bool value(JsonValue &Out) {
    if (Pos >= S.size()) {
      Msg = "unexpected end of input";
      return false;
    }
    switch (S[Pos]) {
    case 'n':
      Out.K = JsonValue::Kind::Null;
      return literal("null");
    case 't':
      Out.K = JsonValue::Kind::Bool;
      Out.B = true;
      return literal("true");
    case 'f':
      Out.K = JsonValue::Kind::Bool;
      Out.B = false;
      return literal("false");
    case '"':
      Out.K = JsonValue::Kind::String;
      return string(Out.Str);
    case '[':
      return array(Out);
    case '{':
      return object(Out);
    default:
      return number(Out);
    }
  }

  bool number(JsonValue &Out) {
    size_t Start = Pos;
    if (Pos < S.size() && S[Pos] == '-')
      ++Pos;
    while (Pos < S.size() &&
           (std::isdigit(static_cast<unsigned char>(S[Pos])) ||
            S[Pos] == '.' || S[Pos] == 'e' || S[Pos] == 'E' ||
            S[Pos] == '+' || S[Pos] == '-'))
      ++Pos;
    if (Pos == Start) {
      Msg = "expected a value";
      return false;
    }
    std::string Tok = S.substr(Start, Pos - Start);
    char *End = nullptr;
    double V = std::strtod(Tok.c_str(), &End);
    if (End != Tok.c_str() + Tok.size()) {
      Msg = "malformed number";
      Pos = Start;
      return false;
    }
    Out.K = JsonValue::Kind::Number;
    Out.Num = V;
    return true;
  }

  bool hex4(unsigned &Out) {
    Out = 0;
    for (int I = 0; I < 4; ++I) {
      if (Pos >= S.size()) {
        Msg = "truncated \\u escape";
        return false;
      }
      char C = S[Pos++];
      Out <<= 4;
      if (C >= '0' && C <= '9')
        Out |= static_cast<unsigned>(C - '0');
      else if (C >= 'a' && C <= 'f')
        Out |= static_cast<unsigned>(C - 'a' + 10);
      else if (C >= 'A' && C <= 'F')
        Out |= static_cast<unsigned>(C - 'A' + 10);
      else {
        Msg = "bad \\u escape digit";
        return false;
      }
    }
    return true;
  }

  void appendUtf8(std::string &Out, unsigned CP) {
    if (CP < 0x80) {
      Out.push_back(static_cast<char>(CP));
    } else if (CP < 0x800) {
      Out.push_back(static_cast<char>(0xC0 | (CP >> 6)));
      Out.push_back(static_cast<char>(0x80 | (CP & 0x3F)));
    } else {
      Out.push_back(static_cast<char>(0xE0 | (CP >> 12)));
      Out.push_back(static_cast<char>(0x80 | ((CP >> 6) & 0x3F)));
      Out.push_back(static_cast<char>(0x80 | (CP & 0x3F)));
    }
  }

  bool string(std::string &Out) {
    ++Pos; // opening quote
    Out.clear();
    while (true) {
      if (Pos >= S.size()) {
        Msg = "unterminated string";
        return false;
      }
      char C = S[Pos++];
      if (C == '"')
        return true;
      if (C != '\\') {
        Out.push_back(C);
        continue;
      }
      if (Pos >= S.size()) {
        Msg = "unterminated escape";
        return false;
      }
      char E = S[Pos++];
      switch (E) {
      case '"':
        Out.push_back('"');
        break;
      case '\\':
        Out.push_back('\\');
        break;
      case '/':
        Out.push_back('/');
        break;
      case 'b':
        Out.push_back('\b');
        break;
      case 'f':
        Out.push_back('\f');
        break;
      case 'n':
        Out.push_back('\n');
        break;
      case 'r':
        Out.push_back('\r');
        break;
      case 't':
        Out.push_back('\t');
        break;
      case 'u': {
        unsigned CP;
        if (!hex4(CP))
          return false;
        appendUtf8(Out, CP); // surrogate pairs unneeded for our schema
        break;
      }
      default:
        Msg = "unknown escape";
        return false;
      }
    }
  }

  bool array(JsonValue &Out) {
    Out.K = JsonValue::Kind::Array;
    ++Pos; // '['
    skipWs();
    if (Pos < S.size() && S[Pos] == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      JsonValue Elt;
      skipWs();
      if (!value(Elt))
        return false;
      Out.Arr.push_back(std::move(Elt));
      skipWs();
      if (Pos >= S.size()) {
        Msg = "unterminated array";
        return false;
      }
      if (S[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (S[Pos] == ']') {
        ++Pos;
        return true;
      }
      Msg = "expected ',' or ']'";
      return false;
    }
  }

  bool object(JsonValue &Out) {
    Out.K = JsonValue::Kind::Object;
    ++Pos; // '{'
    skipWs();
    if (Pos < S.size() && S[Pos] == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWs();
      if (Pos >= S.size() || S[Pos] != '"') {
        Msg = "expected object key";
        return false;
      }
      std::string Key;
      if (!string(Key))
        return false;
      skipWs();
      if (Pos >= S.size() || S[Pos] != ':') {
        Msg = "expected ':'";
        return false;
      }
      ++Pos;
      skipWs();
      JsonValue V;
      if (!value(V))
        return false;
      Out.Obj.emplace(std::move(Key), std::move(V));
      skipWs();
      if (Pos >= S.size()) {
        Msg = "unterminated object";
        return false;
      }
      if (S[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (S[Pos] == '}') {
        ++Pos;
        return true;
      }
      Msg = "expected ',' or '}'";
      return false;
    }
  }

  const std::string &S;
  size_t Pos = 0;
  std::string Msg;
};

} // namespace

bool parseJson(const std::string &Text, JsonValue &Out, std::string *Err) {
  return Parser(Text).parse(Out, Err);
}

} // namespace veriopt
