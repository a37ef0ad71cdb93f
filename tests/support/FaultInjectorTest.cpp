//===- FaultInjectorTest.cpp - Deterministic fault injection ------------------//

#include "support/FaultInjector.h"

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <vector>

using namespace veriopt;

TEST(FaultInjector, DisabledByDefault) {
  FaultInjector FI(42);
  for (unsigned S = static_cast<unsigned>(FaultSite::WorkerCrash);
       S < static_cast<unsigned>(FaultSite::NumSites); ++S)
    for (uint64_t K = 0; K < 100; ++K)
      EXPECT_FALSE(FI.shouldInject(static_cast<FaultSite>(S), K));
  EXPECT_EQ(FI.counters().totalInjected(), 0u);
}

TEST(FaultInjector, RateOneAlwaysFires) {
  FaultInjector FI(42);
  FI.enable(FaultSite::IoWrite, 1.0);
  for (uint64_t K = 0; K < 100; ++K)
    EXPECT_TRUE(FI.shouldInject(FaultSite::IoWrite, K));
  EXPECT_EQ(FI.counters().injected(FaultSite::IoWrite), 100u);
  EXPECT_EQ(FI.counters().checked(FaultSite::IoWrite), 100u);
}

TEST(FaultInjector, DecisionIsPureFunctionOfSeedSiteKey) {
  FaultInjector A(7), B(7);
  A.enable(FaultSite::IoFsync, 0.3);
  B.enable(FaultSite::IoFsync, 0.3);
  for (uint64_t K = 0; K < 1000; ++K)
    EXPECT_EQ(A.shouldInject(FaultSite::IoFsync, K),
              B.shouldInject(FaultSite::IoFsync, K));
  // Re-asking the same key gives the same answer (no counter dependence).
  for (uint64_t K = 0; K < 50; ++K) {
    bool First = A.shouldInject(FaultSite::IoFsync, K);
    EXPECT_EQ(First, A.shouldInject(FaultSite::IoFsync, K));
  }
}

TEST(FaultInjector, DifferentSeedsDiffer) {
  FaultInjector A(1), B(2);
  A.enable(FaultSite::IoOpen, 0.5);
  B.enable(FaultSite::IoOpen, 0.5);
  unsigned Diffs = 0;
  for (uint64_t K = 0; K < 1000; ++K)
    Diffs += A.shouldInject(FaultSite::IoOpen, K) !=
             B.shouldInject(FaultSite::IoOpen, K);
  EXPECT_GT(Diffs, 100u);
}

TEST(FaultInjector, SitesAreIndependent) {
  FaultInjector FI(9);
  FI.enable(FaultSite::IoWrite, 1.0);
  // Other sites stay silent.
  EXPECT_TRUE(FI.shouldInject(FaultSite::IoWrite, 5));
  EXPECT_FALSE(FI.shouldInject(FaultSite::IoFsync, 5));
  EXPECT_FALSE(FI.shouldInject(FaultSite::IoRename, 5));
}

TEST(FaultInjector, RateControlsFrequencyRoughly) {
  FaultInjector FI(1234);
  FI.enable(FaultSite::IoOpen, 0.25);
  unsigned Fired = 0;
  const unsigned N = 4000;
  for (uint64_t K = 0; K < N; ++K)
    Fired += FI.shouldInject(FaultSite::IoOpen, K);
  double Rate = static_cast<double>(Fired) / N;
  EXPECT_NEAR(Rate, 0.25, 0.05);
}

TEST(FaultInjector, StringKeysHashStably) {
  FaultInjector FI(3);
  FI.enable(FaultSite::IoRename, 0.5);
  bool A = FI.shouldInject(FaultSite::IoRename, std::string("alpha"));
  EXPECT_EQ(A, FI.shouldInject(FaultSite::IoRename,
                               FaultInjector::hashKey("alpha")));
}

TEST(FaultInjector, ThreadSafeAndScheduleIndependent) {
  FaultInjector FI(77);
  FI.enable(FaultSite::IoOpen, 0.5);

  // Reference decisions, computed serially.
  std::vector<char> Expected(2000);
  {
    FaultInjector Ref(77);
    Ref.enable(FaultSite::IoOpen, 0.5);
    for (uint64_t K = 0; K < Expected.size(); ++K)
      Expected[K] = Ref.shouldInject(FaultSite::IoOpen, K);
  }

  std::vector<char> Got(Expected.size());
  ThreadPool Pool(4);
  Pool.parallelFor(Got.size(), [&](size_t K) {
    Got[K] = FI.shouldInject(FaultSite::IoOpen, K);
  });
  EXPECT_EQ(Got, Expected);
  EXPECT_EQ(FI.counters().checked(FaultSite::IoOpen), Expected.size());
}

TEST(FaultInjector, SiteNamesAreDistinct) {
  EXPECT_STRNE(faultSiteName(FaultSite::IoWrite),
               faultSiteName(FaultSite::IoFsync));
  EXPECT_STRNE(faultSiteName(FaultSite::IoOpen),
               faultSiteName(FaultSite::IoRename));
  EXPECT_STRNE(faultSiteName(FaultSite::WorkerCrash),
               faultSiteName(FaultSite::WorkerHang));
}
