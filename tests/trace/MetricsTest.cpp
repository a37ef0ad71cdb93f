//===- MetricsTest.cpp - Counter/gauge/histogram registry tests ------------===//

#include "trace/Metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace veriopt {
namespace {

TEST(Metrics, CounterBasics) {
  Counter C;
  EXPECT_EQ(C.value(), 0u);
  C.inc();
  C.inc(41);
  EXPECT_EQ(C.value(), 42u);
  C.reset();
  EXPECT_EQ(C.value(), 0u);
}

TEST(Metrics, GaugeHoldsLastValue) {
  Gauge G;
  G.set(3.5);
  G.set(-1.25);
  EXPECT_DOUBLE_EQ(G.value(), -1.25);
  G.reset();
  EXPECT_DOUBLE_EQ(G.value(), 0.0);
}

TEST(Metrics, HistogramInclusiveUpperEdge) {
  // Prometheus `le` semantics: x lands in the first bucket whose bound
  // satisfies x <= bound; values above every bound go to the overflow
  // bucket.
  Histogram H({1.0, 10.0, 100.0});
  H.observe(1.0);    // == bound 0 -> bucket 0 (inclusive edge)
  H.observe(0.0);    // below everything -> bucket 0
  H.observe(-5.0);   // negative -> bucket 0
  H.observe(1.0001); // just past the edge -> bucket 1
  H.observe(10.0);   // == bound 1 -> bucket 1
  H.observe(100.0);  // == last bound -> bucket 2
  H.observe(100.5);  // past the last bound -> overflow bucket
  H.observe(1e18);   // far past -> overflow bucket

  std::vector<uint64_t> Counts = H.counts();
  ASSERT_EQ(Counts.size(), 4u); // 3 bounds + overflow
  EXPECT_EQ(Counts[0], 3u);
  EXPECT_EQ(Counts[1], 2u);
  EXPECT_EQ(Counts[2], 1u);
  EXPECT_EQ(Counts[3], 2u);
  EXPECT_EQ(H.count(), 8u);
}

TEST(Metrics, HistogramSumAndReset) {
  Histogram H({2.0});
  H.observe(1.0);
  H.observe(3.0);
  EXPECT_DOUBLE_EQ(H.sum(), 4.0);
  H.reset();
  EXPECT_EQ(H.count(), 0u);
  EXPECT_DOUBLE_EQ(H.sum(), 0.0);
  ASSERT_EQ(H.counts().size(), 2u);
  EXPECT_EQ(H.counts()[0], 0u);
  EXPECT_EQ(H.counts()[1], 0u);
}

TEST(Metrics, BoundFactoriesAreSortedAndNonEmpty) {
  for (const std::vector<double> &B : {latencyMsBounds(), workUnitBounds()}) {
    ASSERT_FALSE(B.empty());
    for (size_t I = 1; I < B.size(); ++I)
      EXPECT_LT(B[I - 1], B[I]);
  }
}

TEST(Metrics, RegistryReturnsSameInstrumentByName) {
  MetricsRegistry R;
  Counter &A = R.counter("x");
  Counter &B = R.counter("x");
  EXPECT_EQ(&A, &B);
  A.inc();
  EXPECT_EQ(B.value(), 1u);
  EXPECT_NE(&R.counter("y"), &A);
}

TEST(Metrics, ResetZeroesButKeepsRegistrations) {
  // The hot-path idiom caches `static Counter &C = ...counter("...")`;
  // reset() must zero values without invalidating those references.
  MetricsRegistry R;
  Counter &C = R.counter("c");
  Gauge &G = R.gauge("g");
  Histogram &H = R.histogram("h", {1.0});
  C.inc(5);
  G.set(2.0);
  H.observe(0.5);
  R.reset();
  EXPECT_EQ(C.value(), 0u);
  EXPECT_DOUBLE_EQ(G.value(), 0.0);
  EXPECT_EQ(H.count(), 0u);
  C.inc(); // the cached reference is still live and registered
  EXPECT_EQ(&R.counter("c"), &C);
  EXPECT_EQ(R.snapshot().Counters.at("c"), 1u);
}

TEST(Metrics, SnapshotAndJson) {
  MetricsRegistry R;
  R.counter("a.count").inc(3);
  R.gauge("b.rate").set(0.5);
  R.histogram("c.ms", {1.0, 2.0}).observe(1.5);

  MetricsRegistry::Snapshot S = R.snapshot();
  EXPECT_EQ(S.Counters.at("a.count"), 3u);
  EXPECT_DOUBLE_EQ(S.Gauges.at("b.rate"), 0.5);
  ASSERT_EQ(S.Histograms.at("c.ms").Counts.size(), 3u);
  EXPECT_EQ(S.Histograms.at("c.ms").Counts[1], 1u);
}

TEST(Metrics, ConcurrentIncrementsDoNotLose) {
  MetricsRegistry R;
  Counter &C = R.counter("hits");
  Histogram &H = R.histogram("lat", {10.0});
  constexpr int Threads = 8, PerThread = 5000;
  std::vector<std::thread> Ts;
  for (int T = 0; T < Threads; ++T)
    Ts.emplace_back([&] {
      for (int I = 0; I < PerThread; ++I) {
        C.inc();
        H.observe(static_cast<double>(I % 20));
      }
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(C.value(), static_cast<uint64_t>(Threads) * PerThread);
  EXPECT_EQ(H.count(), static_cast<uint64_t>(Threads) * PerThread);
}

} // namespace
} // namespace veriopt
