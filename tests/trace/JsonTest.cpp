//===- JsonTest.cpp - The shared 64-bit hex codec -------------------------===//
//
// hex64 / hexDouble are the exact channel of every on-disk format that
// carries full uint64s or doubles (checkpoints, shard results, the verdict
// store, bench JSON): round trips must be bit-exact, and anything but
// exactly 16 lowercase hex digits must be rejected.
//
//===----------------------------------------------------------------------===//

#include "trace/Json.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

namespace veriopt {
namespace {

uint64_t bitsOf(double D) {
  uint64_t B;
  std::memcpy(&B, &D, sizeof(B));
  return B;
}

TEST(HexCodec, RoundTripsEdgeValuesBitExactly) {
  double PayloadNaN;
  const uint64_t NaNBits = 0x7ff8000000c0ffeeULL;
  std::memcpy(&PayloadNaN, &NaNBits, sizeof(PayloadNaN));
  const struct {
    double D;
    const char *Hex;
  } Doubles[] = {
      {0.0, "0000000000000000"},
      {-0.0, "8000000000000000"},
      {std::numeric_limits<double>::infinity(), "7ff0000000000000"},
      {-std::numeric_limits<double>::infinity(), "fff0000000000000"},
      {PayloadNaN, "7ff8000000c0ffee"},
      {std::numeric_limits<double>::denorm_min(), "0000000000000001"},
      {1.0, "3ff0000000000000"},
  };
  for (const auto &Row : Doubles) {
    EXPECT_EQ(hexDouble(Row.D), Row.Hex);
    double Back = 1.5;
    ASSERT_TRUE(parseHexDouble(Row.Hex, Back)) << Row.Hex;
    EXPECT_EQ(bitsOf(Back), bitsOf(Row.D)) << Row.Hex;
  }

  const struct {
    uint64_t V;
    const char *Hex;
  } Words[] = {
      {0, "0000000000000000"},
      {UINT64_MAX, "ffffffffffffffff"},
      {0x0123456789abcdefULL, "0123456789abcdef"},
  };
  for (const auto &Row : Words) {
    EXPECT_EQ(hex64(Row.V), Row.Hex);
    uint64_t Back = 7;
    ASSERT_TRUE(parseHex64(Row.Hex, Back)) << Row.Hex;
    EXPECT_EQ(Back, Row.V);
  }
}

TEST(HexCodec, RejectsWrongLengthsAndNonHex) {
  const char *Bad[] = {
      "",
      "0",
      "000000000000000",   // 15 digits
      "00000000000000000", // 17 digits
      "3FF0000000000000",  // upper case: every writer emits lower case
      "3ff000000000000g",
      "3ff0 00000000000",
      "-3ff000000000000",
      "0x3ff00000000000",
  };
  for (const char *S : Bad) {
    uint64_t U = 42;
    double D = 4.2;
    EXPECT_FALSE(parseHex64(S, U)) << '"' << S << '"';
    EXPECT_FALSE(parseHexDouble(S, D)) << '"' << S << '"';
    EXPECT_EQ(U, 42u) << "a rejected parse must not write its output";
    EXPECT_EQ(D, 4.2);
  }
}

} // namespace
} // namespace veriopt
