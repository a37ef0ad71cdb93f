//===- TrainerTest.cpp - GRPO and SFT trainer tests ------------------------===//

#include "rl/Trainer.h"

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "trace/Metrics.h"

#include "Golden.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

namespace veriopt {
namespace {

const Dataset &tinyDataset() {
  static Dataset DS = [] {
    DatasetOptions O;
    O.TrainCount = 16;
    O.ValidCount = 0;
    O.Seed = 21;
    return buildDataset(O);
  }();
  return DS;
}

/// Eq. (1) over the trainer's verdicts (the pipeline's stage-1 reward).
RolloutScore eq1Score(const Sample &S, const Completion &C,
                      const RolloutVerdicts &V) {
  RewardBreakdown B = answerReward(S, C, *V.Answer, V.AnswerVerify);
  RolloutScore Sc;
  Sc.Reward = B.Total;
  Sc.Equivalent = B.Equivalent;
  Sc.IsCopy = B.IsCopy;
  Sc.AnswerVerify = B.Verify;
  return Sc;
}

RolloutScore flatScore(const Sample &, const Completion &,
                       const RolloutVerdicts &) {
  RolloutScore Sc;
  Sc.Reward = 1.0;
  return Sc;
}

TEST(Trainer, ClipGradientScalesDown) {
  std::vector<double> G = {3.0, 4.0}; // norm 5
  double Norm = clipGradient(G, 1.0);
  EXPECT_DOUBLE_EQ(Norm, 5.0);
  EXPECT_NEAR(std::sqrt(G[0] * G[0] + G[1] * G[1]), 1.0, 1e-12);
  std::vector<double> Small = {0.1, 0.1};
  clipGradient(Small, 1.0);
  EXPECT_DOUBLE_EQ(Small[0], 0.1); // untouched below the cap
}

TEST(Trainer, GRPOImprovesRewardAndKillsCorruption) {
  const Dataset &DS = tinyDataset();
  MetricsDelta Delta;
  RewritePolicyModel Model(presetQwen3B());
  GRPOOptions G;
  G.GroupSize = 6;
  G.PromptsPerStep = 3;
  G.Seed = 7;
  G.Verify.Base.FalsifyTrials = 8;
  G.Verify.Base.SolverConflictBudget = 20000;
  G.Verify.MaxTiers = 1;
  GRPOTrainer Trainer(Model, eq1Score, G);
  auto Logs = Trainer.train(DS.Train, 40);
  ASSERT_EQ(Logs.size(), 40u);
  // Early vs late mean rewards (coarse but robust).
  double Early = 0, Late = 0, EarlyEq = 0, LateEq = 0;
  for (int I = 0; I < 8; ++I) {
    Early += Logs[I].MeanReward;
    Late += Logs[Logs.size() - 1 - I].MeanReward;
    EarlyEq += Logs[I].EquivalentRate;
    LateEq += Logs[Logs.size() - 1 - I].EquivalentRate;
  }
  EXPECT_GT(Late, Early) << "GRPO failed to improve the answer reward";
  // Equivalence must at least hold its ground (copies start equivalent, so
  // it does not have to rise while the policy learns to optimize instead).
  EXPECT_GT(LateEq, EarlyEq - 1.0);
  // EMA is a smoothed version of the raw series.
  EXPECT_NE(Logs.back().EMAReward, 0.0);
  Delta.expectGolden();
}

TEST(Trainer, GroupRelativeAdvantageNeedsVariation) {
  // A constant reward yields zero advantage and must not move parameters.
  const Dataset &DS = tinyDataset();
  RewritePolicyModel Model(presetQwen3B());
  auto Before = Model.params();
  GRPOOptions G;
  G.GroupSize = 4;
  G.PromptsPerStep = 2;
  GRPOTrainer Trainer(Model, flatScore, G);
  Trainer.train(DS.Train, 5);
  EXPECT_EQ(Model.params(), Before);
}

TEST(Trainer, ParallelScoringIsBitIdenticalToSerial) {
  // The determinism guarantee of the restructured step(): generation is
  // sequential with per-rollout RNGs, scoring writes only per-rollout
  // slots, so every reward/equivalence value in the log — and the trained
  // parameters — must be bit-identical at any thread count, with or
  // without the verification memo. The work all four runs did is pinned
  // by a metrics golden.
  const Dataset &DS = tinyDataset();
  MetricsDelta Delta;

  VerifyCache::Counters ParallelCache;
  auto runConfig = [&](unsigned Threads, bool UseCache,
                       std::vector<double> &ParamsOut) {
    RewritePolicyModel Model(presetQwen3B());
    auto Cache = UseCache ? std::make_unique<VerifyCache>(512) : nullptr;
    ThreadPool Pool(Threads);
    GRPOOptions G;
    G.GroupSize = 6;
    G.PromptsPerStep = 3;
    G.Seed = 7;
    G.Pool = &Pool;
    G.Verify.Base.FalsifyTrials = 8;
    G.Verify.Base.SolverConflictBudget = 20000;
    G.Verify.MaxTiers = 1;
    G.Verify.Cache = Cache.get();
    GRPOTrainer Trainer(Model, eq1Score, G);
    auto Logs = Trainer.train(DS.Train, 12);
    ParamsOut = Model.params();
    if (Cache && Threads > 1)
      ParallelCache = Cache->counters();
    return Logs;
  };

  std::vector<double> SerialParams, ParallelParams, CachedParams,
      ThreadsOnlyParams;
  auto Serial = runConfig(1, /*UseCache=*/false, SerialParams);
  auto Parallel = runConfig(4, /*UseCache=*/true, ParallelParams);
  auto CacheOnly = runConfig(1, /*UseCache=*/true, CachedParams);
  auto ThreadsOnly = runConfig(4, /*UseCache=*/false, ThreadsOnlyParams);

  ASSERT_EQ(Serial.size(), Parallel.size());
  for (size_t I = 0; I < Serial.size(); ++I) {
    EXPECT_EQ(Serial[I].Step, Parallel[I].Step);
    EXPECT_EQ(Serial[I].MeanReward, Parallel[I].MeanReward) << "step " << I;
    EXPECT_EQ(Serial[I].EMAReward, Parallel[I].EMAReward) << "step " << I;
    EXPECT_EQ(Serial[I].EquivalentRate, Parallel[I].EquivalentRate);
    EXPECT_EQ(Serial[I].CopyRate, Parallel[I].CopyRate);
    EXPECT_EQ(Serial[I].GradNorm, Parallel[I].GradNorm) << "step " << I;
    EXPECT_EQ(Serial[I].MeanReward, CacheOnly[I].MeanReward) << "step " << I;
    EXPECT_EQ(Serial[I].GradNorm, CacheOnly[I].GradNorm) << "step " << I;
    EXPECT_EQ(Serial[I].MeanReward, ThreadsOnly[I].MeanReward)
        << "step " << I;
    EXPECT_EQ(Serial[I].GradNorm, ThreadsOnly[I].GradNorm) << "step " << I;
  }
  EXPECT_EQ(SerialParams, ParallelParams);
  EXPECT_EQ(SerialParams, CachedParams);
  EXPECT_EQ(SerialParams, ThreadsOnlyParams);
  // The memo must actually have been exercised on GRPO's repetitive groups.
  EXPECT_GT(ParallelCache.hitRate(), 0.0)
      << "verify cache never hit during training";

  // The exported gauge is the logged EMA, and the golden pins it exactly.
  EXPECT_EQ(MetricsRegistry::global().gauge("grpo.ema_reward").value(),
            Serial.back().EMAReward);
  Delta.pin("grpo.ema_reward", Serial.back().EMAReward);
  Delta.expectGolden();
}

TEST(Trainer, BatchVerificationIsBitIdenticalToSequential) {
  // Group verification (one shared encoding per prompt group, canonical
  // dedupe, cache) against the sequential oracle: a reward that ignores the
  // trainer's verdicts and re-verifies each answer on fresh encodings. The
  // trajectories — every logged value and the trained parameters — must
  // match, at 1 and 4 threads, and so must every verdict, down to its
  // solver conflicts and retry tier.
  const Dataset &DS = tinyDataset();
  LadderOptions Ladder;
  Ladder.Base.FalsifyTrials = 8;
  Ladder.Base.SolverConflictBudget = 20000;
  Ladder.MaxTiers = 2;

  struct Run {
    std::vector<TrainLogEntry> Logs;
    std::vector<double> Params;
    std::vector<VerifyResult> Verdicts; ///< format-passing answers, in order
  };
  auto runConfig = [&](unsigned Threads, bool FreshOracle) {
    Run Out;
    RewritePolicyModel Model(presetQwen3B());
    VerifyCache Cache(512);
    ThreadPool Pool(Threads);
    GRPOOptions G;
    G.GroupSize = 6;
    G.PromptsPerStep = 3;
    G.Seed = 7;
    G.Pool = &Pool;
    G.Verify = Ladder;
    G.Verify.Cache = &Cache;
    G.OnRollout = [&Out](const Sample &, const Completion &C,
                         const RolloutScore &Sc) {
      if (C.FormatOk)
        Out.Verdicts.push_back(Sc.AnswerVerify);
    };
    RewardFn Reward = eq1Score;
    if (FreshOracle)
      Reward = [&](const Sample &S, const Completion &C,
                   const RolloutVerdicts &V) {
        RolloutVerdicts Fresh = V;
        if (C.FormatOk)
          Fresh.AnswerVerify =
              verifyWithLadder(Ladder, S.SrcText, *S.source(), C.AnswerIR)
                  .Result;
        return eq1Score(S, C, Fresh);
      };
    GRPOTrainer Trainer(Model, Reward, G);
    Out.Logs = Trainer.train(DS.Train, 10);
    Out.Params = Model.params();
    return Out;
  };

  const Run Oracle = runConfig(1, /*FreshOracle=*/true);
  ASSERT_FALSE(Oracle.Verdicts.empty());
  for (const Run &R : {runConfig(1, false), runConfig(4, false),
                       runConfig(4, /*FreshOracle=*/true)}) {
    ASSERT_EQ(R.Logs.size(), Oracle.Logs.size());
    for (size_t I = 0; I < R.Logs.size(); ++I) {
      EXPECT_EQ(R.Logs[I].MeanReward, Oracle.Logs[I].MeanReward) << I;
      EXPECT_EQ(R.Logs[I].EMAReward, Oracle.Logs[I].EMAReward) << I;
      EXPECT_EQ(R.Logs[I].EquivalentRate, Oracle.Logs[I].EquivalentRate);
      EXPECT_EQ(R.Logs[I].GradNorm, Oracle.Logs[I].GradNorm) << I;
    }
    EXPECT_EQ(R.Params, Oracle.Params);
    ASSERT_EQ(R.Verdicts.size(), Oracle.Verdicts.size());
    for (size_t I = 0; I < R.Verdicts.size(); ++I) {
      const VerifyResult &Got = R.Verdicts[I], &Want = Oracle.Verdicts[I];
      EXPECT_EQ(Got.Status, Want.Status) << "rollout " << I;
      EXPECT_EQ(Got.Kind, Want.Kind) << "rollout " << I;
      EXPECT_EQ(Got.Diagnostic, Want.Diagnostic) << "rollout " << I;
      EXPECT_EQ(Got.SolverConflicts, Want.SolverConflicts) << "rollout " << I;
      EXPECT_EQ(Got.FuelSpent, Want.FuelSpent) << "rollout " << I;
      EXPECT_EQ(Got.RetryTier, Want.RetryTier) << "rollout " << I;
      EXPECT_EQ(Got.Counterexample.size(), Want.Counterexample.size());
    }
  }
}

TEST(Trainer, VerifiesEachRequestOnceAndScoresWithoutLookups) {
  // Augmented mode: every format-passing answer and every think-attempt is
  // one verification request. Duplicates within a group share one ladder,
  // but the retry telemetry counts requests; and the scoring pass is pure
  // reward math, so it makes no cache lookups at all.
  const Dataset &DS = tinyDataset();
  RewritePolicyModel Model(presetQwen3B());
  VerifyCache Cache(512);
  std::vector<uint64_t> LookupsSeenByReward;
  unsigned Requests = 0;
  GRPOOptions G;
  G.GroupSize = 8;
  G.PromptsPerStep = 3;
  G.Seed = 5;
  G.Mode = PromptMode::Augmented;
  G.Verify.Cache = &Cache;
  G.OnRollout = [&Requests](const Sample &, const Completion &C,
                            const RolloutScore &) {
    Requests += C.FormatOk + 1;
  };
  RewardFn Reward = [&](const Sample &S, const Completion &C,
                        const RolloutVerdicts &V) {
    LookupsSeenByReward.push_back(Cache.counters().lookups());
    return eq1Score(S, C, V);
  };
  GRPOTrainer Trainer(Model, Reward, G);

  MetricsRegistry &M = MetricsRegistry::global();
  uint64_t Queries0 = M.counter("verify.retry.queries").value();
  uint64_t Cands0 = M.counter("batch.candidates").value();
  uint64_t Unique0 = M.counter("batch.unique").value();
  Trainer.train(DS.Train, 1);

  EXPECT_EQ(M.counter("verify.retry.queries").value() - Queries0, Requests);
  EXPECT_EQ(M.counter("batch.candidates").value() - Cands0, Requests);
  EXPECT_LT(M.counter("batch.unique").value() - Unique0, Requests)
      << "no duplicate candidates: the test no longer exercises dedupe";
  ASSERT_EQ(LookupsSeenByReward.size(), G.GroupSize * G.PromptsPerStep);
  for (uint64_t L : LookupsSeenByReward)
    EXPECT_EQ(L, Cache.counters().lookups());
}

/// The cache key as it was built before Candidate existed: parse, strip
/// every value and block name, reprint. Keys in existing verdict journals
/// were made this way.
std::string referenceKey(const std::string &SrcText, const std::string &Tgt,
                         const VerifyOptions &Opts) {
  std::string Canon = Tgt;
  if (auto M = parseModule(Tgt)) {
    for (const auto &F : M.value()->functions()) {
      for (unsigned I = 0; I < F->getNumParams(); ++I)
        F->getArg(I)->setName("");
      for (auto &BB : *F) {
        BB->setName("");
        for (auto &Inst : *BB)
          Inst->setName("");
      }
    }
    Canon = printModule(*M.value());
  }
  std::ostringstream OS;
  OS << Opts.MaxPaths << '|' << Opts.MaxBlockVisitsPerPath << '|'
     << Opts.MaxStepsPerPath << '|' << Opts.SolverConflictBudget << '|'
     << Opts.StrictLoops << '|' << Opts.FalsifyTrials << '|'
     << Opts.FuelBudget << '|' << Opts.MaxCandidateBytes << '|'
     << Opts.MaxCandidateInsts;
  return OS.str() + '\x1f' + SrcText + '\x1f' + Canon;
}

TEST(Trainer, CandidateKeysMatchTextKeysOnRolloutTexts) {
  const Dataset &DS = tinyDataset();
  RewritePolicyModel Model(presetQwen3B());
  std::vector<std::pair<const Sample *, std::string>> Texts;
  for (const Sample &S : DS.Train)
    for (PromptMode Mode : {PromptMode::Generic, PromptMode::Augmented})
      for (uint64_t Seed = 0; Seed < 4; ++Seed) {
        RNG R(Seed);
        Completion C = Model.generate(*S.source(), Mode, R, /*Greedy=*/false,
                                      /*Temperature=*/1.5);
        Texts.push_back({&S, C.AnswerIR});
        Texts.push_back({&S, C.ThinkAttemptIR});
        Texts.push_back({&S, C.AnswerIR.substr(0, C.AnswerIR.size() / 2)});
      }

  LadderOptions L;
  L.MaxTiers = 3;
  unsigned Unparseable = 0;
  for (const auto &[S, Text] : Texts) {
    Candidate C(Text);
    Unparseable += C.M == nullptr;
    for (unsigned Tier = 0; Tier < L.MaxTiers; ++Tier) {
      VerifyOptions O = L.tierOptions(Tier);
      std::string Want = referenceKey(S->SrcText, Text, O);
      EXPECT_EQ(VerifyCache::makeKey(S->SrcText, C, O), Want);
      EXPECT_EQ(VerifyCache::makeKey(S->SrcText, Text, O), Want);
    }
  }
  EXPECT_GT(Unparseable, 0u);
  EXPECT_LT(Unparseable, Texts.size());
}

TEST(Trainer, RolloutHookSeesEveryRolloutInOrder) {
  const Dataset &DS = tinyDataset();
  RewritePolicyModel Model(presetQwen3B());
  GRPOOptions G;
  G.GroupSize = 4;
  G.PromptsPerStep = 2;
  std::vector<const Sample *> SerialOrder, ParallelOrder;
  for (auto *Order : {&SerialOrder, &ParallelOrder}) {
    ThreadPool Pool(Order == &SerialOrder ? 1 : 4);
    G.Pool = &Pool;
    G.OnRollout = [Order](const Sample &S, const Completion &,
                          const RolloutScore &) { Order->push_back(&S); };
    RewritePolicyModel M(presetQwen3B());
    GRPOTrainer Trainer(M, flatScore, G);
    Trainer.train(DS.Train, 3);
  }
  EXPECT_EQ(SerialOrder.size(), 3u * 2 * 4);
  EXPECT_EQ(SerialOrder, ParallelOrder);
}

TEST(Trainer, SFTReducesLossAndTeachesOracle) {
  const Dataset &DS = tinyDataset();
  RewritePolicyModel Model(presetQwen3B());

  std::vector<SFTExample> Data;
  for (const Sample &S : DS.Train) {
    SFTExample Ex;
    Ex.S = &S;
    Ex.TargetActions = oracleActions(S.RefTrace, Model);
    Ex.DiagClassTarget = 0;
    Data.push_back(Ex);
    // A synthetic correction example.
    SFTExample Corr = Data.back();
    Corr.IsCorrection = true;
    Corr.AttemptActions = {Action::CorruptConstant, Action::Stop};
    Corr.DiagClassTarget = 3;
    Data.push_back(Corr);
  }

  double Before = sftLoss(Model, Data);
  SFTOptions Opts;
  Opts.Epochs = 6;
  sftTrain(Model, Data, Opts);
  double After = sftLoss(Model, Data);
  EXPECT_LT(After, Before) << "SFT failed to reduce the loss";

  // The trained diagnosis head must map the corruption to its class.
  double LpRight = Model.diagLogProb({Action::CorruptConstant, Action::Stop},
                                     3);
  double LpWrong = Model.diagLogProb({Action::CorruptConstant, Action::Stop},
                                     1);
  EXPECT_GT(LpRight, LpWrong);

  // And the fix gate should have moved toward "fix".
  EXPECT_GT(Model.fixLogProb(true), Model.fixLogProb(false));
}

TEST(Trainer, SFTRaisesOracleSequenceProbability) {
  const Dataset &DS = tinyDataset();
  RewritePolicyModel Model(presetQwen3B());
  const Sample &S = DS.Train.front();
  auto Target = oracleActions(S.RefTrace, Model);
  double Before = Model.sequenceLogProb(*S.source(), Target);
  std::vector<SFTExample> Data;
  SFTExample Ex;
  Ex.S = &S;
  Ex.TargetActions = Target;
  Data.push_back(Ex);
  SFTOptions Opts;
  Opts.Epochs = 10;
  sftTrain(Model, Data, Opts);
  double After = Model.sequenceLogProb(*S.source(), Target);
  EXPECT_GT(After, Before);
}

} // namespace
} // namespace veriopt
