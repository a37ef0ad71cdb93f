//===- EvaluationTest.cpp - Metric aggregation and fallback semantics ------===//

#include "pipeline/Evaluation.h"

#include "cost/CostModel.h"
#include "rl/Reward.h"

#include "Golden.h"

#include <gtest/gtest.h>

namespace veriopt {
namespace {

const Dataset &ds() {
  static Dataset DS = [] {
    DatasetOptions O;
    O.TrainCount = 0;
    O.ValidCount = 20;
    O.Seed = 55;
    return buildDataset(O);
  }();
  return DS;
}

TEST(Evaluation, PerSampleMetricsAreConsistent) {
  RewritePolicyModel Base(presetQwen3B());
  auto E = evaluateModel(Base, ds().Valid, PromptMode::Generic);
  ASSERT_EQ(E.PerSample.size(), ds().Valid.size());
  for (size_t I = 0; I < E.PerSample.size(); ++I) {
    const SampleEval &S = E.PerSample[I];
    const Sample &Orig = ds().Valid[I];
    EXPECT_DOUBLE_EQ(S.LatO0, estimateLatency(*Orig.source()));
    EXPECT_DOUBLE_EQ(S.LatRef, estimateLatency(*Orig.Reference));
    // Fallback invariant: a failed verification keeps the -O0 metrics.
    if (S.UsedFallback) {
      EXPECT_DOUBLE_EQ(S.LatOut, S.LatO0);
      EXPECT_EQ(S.ICountOut, S.ICountO0);
      EXPECT_EQ(S.SizeOut, S.SizeO0);
    }
    // Only verified outputs may differ from -O0.
    if (S.Status != VerifyStatus::Equivalent) {
      EXPECT_TRUE(S.UsedFallback);
    }
  }
}

TEST(Evaluation, BetterWorseTieSumsToTotal) {
  RewritePolicyModel Base(presetQwen3B());
  auto E = evaluateModel(Base, ds().Valid, PromptMode::Generic);
  unsigned N = static_cast<unsigned>(E.PerSample.size());
  EXPECT_EQ(E.Latency.Better + E.Latency.Worse + E.Latency.Tie, N);
  EXPECT_EQ(E.Size.Better + E.Size.Worse + E.Size.Tie, N);
  EXPECT_EQ(E.ICount.Better + E.ICount.Worse + E.ICount.Tie, N);
  EXPECT_EQ(E.VsRefBetter + E.VsRefWorse + E.VsRefTie, N);
}

TEST(Evaluation, TaxonomySumsToTotal) {
  RewritePolicyModel Base(presetQwen3B());
  auto E = evaluateModel(Base, ds().Valid, PromptMode::Generic);
  EXPECT_EQ(E.Taxonomy.Correct + E.Taxonomy.SemanticError +
                E.Taxonomy.SyntaxError + E.Taxonomy.Inconclusive,
            E.Taxonomy.Total);
  EXPECT_LE(E.Taxonomy.CorrectCopies, E.Taxonomy.Correct);
}

TEST(Evaluation, GreedyEvaluationIsReproducible) {
  RewritePolicyModel Base(presetQwen3B());
  auto A = evaluateModel(Base, ds().Valid, PromptMode::Generic);
  auto B = evaluateModel(Base, ds().Valid, PromptMode::Generic);
  EXPECT_EQ(A.Taxonomy.Correct, B.Taxonomy.Correct);
  EXPECT_EQ(A.Taxonomy.SyntaxError, B.Taxonomy.SyntaxError);
  EXPECT_DOUBLE_EQ(A.GeoSpeedupVsO0, B.GeoSpeedupVsO0);
}

TEST(Evaluation, FallbackGainIsNonNegative) {
  // min(model, reference) can never be slower than reference.
  RewritePolicyModel Base(presetQwen3B());
  auto E = evaluateModel(Base, ds().Valid, PromptMode::Generic);
  EXPECT_GE(E.FallbackGainOverRef, 0.0);
}

TEST(Evaluation, LyingVerifierVerdictIsDowngradedToInconclusive) {
  // Regression: the reparse after an Equivalent verdict used to be guarded
  // by assert() only — under NDEBUG, takeValue() on the failed ErrorOr was
  // UB. An Equivalent verdict for an answer with no parsed function must
  // be downgraded to Inconclusive and keep the -O0 fallback.
  const Sample &S = ds().Valid.front();
  Completion C;
  C.FormatOk = true;
  C.AnswerIR = "this is not IR at all (";
  CandidateVerifier Lying = [](const Sample &, const Candidate &) {
    VerifyResult VR;
    VR.Status = VerifyStatus::Equivalent; // claims correctness, lies
    return VR;
  };
  VerifyTaxonomy Tax;
  SampleEval E = evaluateCandidate(S, C, Lying, Tax);
  EXPECT_EQ(E.Status, VerifyStatus::Inconclusive);
  EXPECT_TRUE(E.UsedFallback);
  EXPECT_DOUBLE_EQ(E.LatOut, E.LatO0);
  EXPECT_EQ(Tax.Inconclusive, 1u);
  EXPECT_EQ(Tax.Correct, 0u);
}

TEST(Evaluation, EmptyCorpusAggregatesFollowConventions) {
  // Regression: aggregate() used to feed empty vectors to mean()/geomean(),
  // yielding 0 geomeans (and a -100% "fallback gain"). The documented
  // convention: 0.0 relative change, neutral 1.0 geo ratios, 0.0 gain.
  RewritePolicyModel Base(presetQwen3B());
  std::vector<Sample> Empty;
  auto E = evaluateModel(Base, Empty, PromptMode::Generic);
  EXPECT_EQ(E.Taxonomy.Total, 0u);
  EXPECT_DOUBLE_EQ(E.Latency.MeanRelChange, 0.0);
  EXPECT_DOUBLE_EQ(E.Latency.GeoRatio, 1.0);
  EXPECT_DOUBLE_EQ(E.Size.GeoRatio, 1.0);
  EXPECT_DOUBLE_EQ(E.ICount.GeoRatio, 1.0);
  EXPECT_DOUBLE_EQ(E.GeoSpeedupVsO0, 1.0);
  EXPECT_DOUBLE_EQ(E.FallbackGainOverRef, 0.0);

  EvalResult R;
  recomputeAggregates(R);
  EXPECT_DOUBLE_EQ(R.GeoSpeedupVsO0, 1.0);
  EXPECT_DOUBLE_EQ(R.FallbackGainOverRef, 0.0);
}

TEST(Evaluation, EmptySplitRendersZeroPercentRows) {
  // An empty validation split must render 0.0% rows, never NaN/inf. The
  // exact bytes are pinned by a golden file (regenerate with
  // VERIOPT_REGEN_GOLDEN=1).
  VerifyTaxonomy T;
  EXPECT_DOUBLE_EQ(T.pct(0), 0.0);
  EXPECT_DOUBLE_EQ(T.differentCorrectRate(), 0.0);
  std::string Table = renderTaxonomy("Empty split", T);
  EXPECT_EQ(Table.find("nan"), std::string::npos) << Table;
  EXPECT_EQ(Table.find("inf"), std::string::npos) << Table;

  expectGolden(Table, std::string(VERIOPT_TEST_DATA_DIR) +
                          "/golden_empty_taxonomy.txt");
}

TEST(Evaluation, ReferenceRowMatchesSampleReferences) {
  auto R = evaluateReferencePass(ds().Valid);
  for (size_t I = 0; I < R.PerSample.size(); ++I) {
    EXPECT_FALSE(R.PerSample[I].UsedFallback);
    EXPECT_DOUBLE_EQ(R.PerSample[I].LatOut, R.PerSample[I].LatRef);
  }
  EXPECT_EQ(R.VsRefWorse, 0u);
  EXPECT_EQ(R.VsRefBetter, 0u);
}

} // namespace
} // namespace veriopt
