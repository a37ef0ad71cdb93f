//===- DatasetTest.cpp - Corpus construction tests --------------------------===//

#include "data/Dataset.h"

#include "cost/CostModel.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "support/Stats.h"
#include "verify/AliveLite.h"

#include <gtest/gtest.h>

#include <set>

namespace veriopt {
namespace {

DatasetOptions smallOpts() {
  DatasetOptions Opts;
  Opts.TrainCount = 30;
  Opts.ValidCount = 15;
  Opts.Seed = 7;
  return Opts;
}

TEST(Dataset, BuildsRequestedSizes) {
  auto DS = buildDataset(smallOpts());
  EXPECT_EQ(DS.Train.size(), 30u);
  EXPECT_EQ(DS.Valid.size(), 15u);
  EXPECT_GE(DS.Stats.Generated, DS.Stats.Kept);
  EXPECT_EQ(DS.Stats.Kept, 45u);
}

TEST(Dataset, Deterministic) {
  auto A = buildDataset(smallOpts());
  auto B = buildDataset(smallOpts());
  ASSERT_EQ(A.Train.size(), B.Train.size());
  for (size_t I = 0; I < A.Train.size(); ++I)
    EXPECT_EQ(A.Train[I].SrcText, B.Train[I].SrcText);
}

TEST(Dataset, SplitsAreDisjoint) {
  auto DS = buildDataset(smallOpts());
  std::set<std::string> TrainTexts;
  for (const auto &S : DS.Train)
    TrainTexts.insert(S.SrcText);
  for (const auto &S : DS.Valid)
    EXPECT_FALSE(TrainTexts.count(S.SrcText))
        << "validation sample leaked from training split";
}

TEST(Dataset, AllPairsVerified) {
  auto DS = buildDataset(smallOpts());
  for (const auto &S : DS.Train) {
    ASSERT_TRUE(S.source());
    ASSERT_TRUE(S.Reference);
    EXPECT_TRUE(isWellFormed(*S.source()));
    EXPECT_TRUE(isWellFormed(*S.Reference));
    // Spot-check the invariant the builder enforces.
    auto VR = verifyRefinement(*S.source(), *S.Reference);
    EXPECT_EQ(VR.Status, VerifyStatus::Equivalent) << S.SrcText;
  }
}

TEST(Dataset, TokenLimitRespected) {
  auto Opts = smallOpts();
  Opts.TokenLimit = 2048;
  auto DS = buildDataset(Opts);
  for (const auto &S : DS.Train)
    EXPECT_LE(S.TokenCount, 2048u);
}

TEST(Dataset, TinyTokenLimitFiltersEverything) {
  auto Opts = smallOpts();
  Opts.TrainCount = 3;
  Opts.ValidCount = 0;
  Opts.TokenLimit = 5;
  auto DS = buildDataset(Opts);
  EXPECT_TRUE(DS.Train.empty());
  EXPECT_GT(DS.Stats.RejectedTokenLimit, 0u);
}

TEST(Dataset, ReferencePassActuallyOptimizes) {
  // The corpus must give instcombine real headroom: the paper's reference
  // pass achieves ~2.4x latency geomean over -O0. Require a clearly
  // positive aggregate improvement on our corpus.
  auto DS = buildDataset(smallOpts());
  std::vector<double> Ratios;
  unsigned ChangedCount = 0;
  for (const auto &S : DS.Train) {
    double L0 = estimateLatency(*S.source());
    double L1 = estimateLatency(*S.Reference);
    if (L1 > 0)
      Ratios.push_back(L0 / L1);
    ChangedCount += S.SrcText != S.RefText;
  }
  EXPECT_GT(geomean(Ratios), 1.5) << "corpus lacks peephole headroom";
  // Paper: instcombine changed every sample in their test set.
  EXPECT_GT(ChangedCount, DS.Train.size() * 9 / 10);
}

TEST(Dataset, TracesNonEmptyForChangedSamples) {
  auto DS = buildDataset(smallOpts());
  for (const auto &S : DS.Train)
    if (S.SrcText != S.RefText) {
      EXPECT_FALSE(S.RefTrace.empty());
    }
}

// The policy, the GRPO trainer and the copy reward read Sample::SrcText
// instead of re-printing the prompt, so it must be exactly the printed
// source. Checked on train_mini's default and --tiny corpora.
TEST(Dataset, SrcTextIsThePrintedSource) {
  for (bool Tiny : {false, true}) {
    DatasetOptions Opts;
    Opts.TrainCount = Tiny ? 8 : 30;
    Opts.ValidCount = Tiny ? 6 : 24;
    Opts.Seed = 123;
    auto DS = buildDataset(Opts);
    ASSERT_EQ(DS.Train.size() + DS.Valid.size(),
              Opts.TrainCount + Opts.ValidCount);
    for (const std::vector<Sample> *Split : {&DS.Train, &DS.Valid})
      for (const Sample &S : *Split)
        EXPECT_EQ(S.SrcText, printFunction(*S.source())) << S.Name;
  }
}

TEST(Dataset, CSourceProvenanceAttached) {
  auto DS = buildDataset(smallOpts());
  for (const auto &S : DS.Train) {
    EXPECT_NE(S.CSource.find("return"), std::string::npos);
    EXPECT_FALSE(S.Name.empty());
  }
}

} // namespace
} // namespace veriopt
