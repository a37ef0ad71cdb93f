//===- Golden.h - Golden files for the test suite ----------------*- C++ -*-===//
//
// The one home of the tests' golden files.
//
// expectGolden() compares a rendered text with a golden file byte for
// byte. With VERIOPT_REGEN_GOLDEN=1 in the environment it rewrites the
// file instead and skips the comparison; a missing golden fails the test.
//
// MetricsDelta pins the deterministic work a test does. It snapshots the
// process-wide MetricsRegistry when constructed — after the test's lazily
// built fixtures, so the delta does not depend on test order — and renders
// the change since then as one sorted `name value` line per instrument:
//  - a counter with a non-zero delta is its exact delta;
//  - a `*_ms` histogram holds wall-clock observations, so only its count;
//  - any other histogram: its count, sum and per-bucket counts, exactly;
//  - pin() adds an exact value of the test's own (e.g. a final gauge).
// Gauges are last-written values rather than deltas, so only pin() puts
// one in. MetricsDelta::expectGolden() compares against
// `$VERIOPT_TEST_DATA_DIR/golden/<Suite>.<Test>.txt`.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_TESTS_GOLDEN_H
#define VERIOPT_TESTS_GOLDEN_H

#include "trace/Json.h"
#include "trace/Metrics.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#ifndef VERIOPT_TEST_DATA_DIR
#error "VERIOPT_TEST_DATA_DIR must point at the test binary's source dir"
#endif

namespace veriopt {

inline void expectGolden(const std::string &Actual, const std::string &Path) {
  if (std::getenv("VERIOPT_REGEN_GOLDEN")) {
    std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
    OS << Actual;
    ASSERT_TRUE(OS.good()) << "cannot write golden file " << Path;
    GTEST_SKIP() << "regenerated " << Path;
  }
  std::ifstream IS(Path, std::ios::binary);
  ASSERT_TRUE(IS.good()) << "missing golden file " << Path;
  std::stringstream Golden;
  Golden << IS.rdbuf();
  // Golden first, so gtest's diff reads `-golden` / `+actual`.
  EXPECT_EQ(Golden.str(), Actual)
      << Path << " drifted; if the change is intended, regenerate it with "
      << "VERIOPT_REGEN_GOLDEN=1 (docs/COMPARISON.md)";
}

class MetricsDelta {
public:
  MetricsDelta() : Before(MetricsRegistry::global().snapshot()) {}

  void pin(const std::string &Name, double Value) {
    Pinned[Name] = jsonNumber(Value);
  }

  std::string render() const {
    const MetricsRegistry::Snapshot After =
        MetricsRegistry::global().snapshot();
    std::map<std::string, std::string> Lines = Pinned;
    for (const auto &[Name, V] : After.Counters) {
      auto It = Before.Counters.find(Name);
      const uint64_t Delta =
          V - (It == Before.Counters.end() ? 0 : It->second);
      if (Delta)
        Lines[Name] = std::to_string(Delta);
    }
    for (const auto &[Name, H] : After.Histograms) {
      auto It = Before.Histograms.find(Name);
      const MetricsRegistry::HistogramSnapshot Zero;
      const auto &B = It == Before.Histograms.end() ? Zero : It->second;
      const uint64_t Count = H.Count - B.Count;
      if (!Count)
        continue;
      std::string Line = "count=" + std::to_string(Count);
      const bool WallClock =
          Name.size() >= 3 && Name.compare(Name.size() - 3, 3, "_ms") == 0;
      if (!WallClock) {
        Line += " sum=" + jsonNumber(H.Sum - B.Sum) + " buckets=";
        for (size_t I = 0; I < H.Counts.size(); ++I)
          Line += (I ? "," : "") +
                  std::to_string(H.Counts[I] -
                                 (B.Counts.empty() ? 0 : B.Counts[I]));
      }
      Lines[Name] = Line;
    }
    std::string Out;
    for (const auto &[Name, Line] : Lines)
      Out += Name + " " + Line + "\n";
    return Out;
  }

  void expectGolden() const {
    const ::testing::TestInfo *T =
        ::testing::UnitTest::GetInstance()->current_test_info();
    veriopt::expectGolden(render(), std::string(VERIOPT_TEST_DATA_DIR) +
                                        "/golden/" + T->test_suite_name() +
                                        "." + T->name() + ".txt");
  }

private:
  MetricsRegistry::Snapshot Before;
  std::map<std::string, std::string> Pinned;
};

} // namespace veriopt

#endif // VERIOPT_TESTS_GOLDEN_H
