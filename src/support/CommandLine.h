//===- CommandLine.h - Strict numeric flag values ----------------*- C++ -*-===//
//
// The one reader of numeric command-line values for the tools and
// examples. atoi-style parsing reads "0xBEEF" as 0 and "1x" as 1 without
// a word; a seed or shard index that silently changes meaning is worse
// than a usage error.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_SUPPORT_COMMANDLINE_H
#define VERIOPT_SUPPORT_COMMANDLINE_H

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>

namespace veriopt {

/// Parse \p S as an unsigned integer in [Min, Max]: decimal, 0x-hex or
/// 0-octal (strtoull base 0), no sign or whitespace, every character
/// consumed. Returns false, leaving \p Out untouched, on anything else.
template <typename T>
bool parseUnsignedArg(const char *S, T &Out, uint64_t Min = 0,
                      uint64_t Max = std::numeric_limits<T>::max()) {
  if (!S || *S < '0' || *S > '9')
    return false;
  errno = 0;
  char *End = nullptr;
  const unsigned long long V = std::strtoull(S, &End, 0);
  if (errno == ERANGE || *End != '\0' || V < Min || V > Max)
    return false;
  Out = static_cast<T>(V);
  return true;
}

} // namespace veriopt

#endif // VERIOPT_SUPPORT_COMMANDLINE_H
