//===- CheckpointTest.cpp - Checkpoint save/load round-trips --------------===//

#include "pipeline/Checkpoint.h"

#include "model/Policy.h"
#include "support/IoEnv.h"
#include "trace/Json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>

namespace veriopt {
namespace {

/// Unique-ish per-test scratch path inside the build tree's cwd.
std::string scratchPath(const char *Name) {
  return std::string("ckpt_test_") + Name + ".bin";
}

bool bitEqual(double A, double B) {
  uint64_t X, Y;
  std::memcpy(&X, &A, sizeof(X));
  std::memcpy(&Y, &B, sizeof(Y));
  return X == Y;
}

PipelineCheckpoint makeRichCheckpoint() {
  PipelineCheckpoint CP;
  CP.Seed = 2026;
  CP.StageIdx = 1;
  CP.Trainer.StepCount = 17;
  CP.Trainer.RNGState = 0xDEADBEEFCAFEF00DULL;
  CP.Trainer.EMAValue = 1.0 / 3.0; // not exactly representable in decimal
  CP.Trainer.EMAPrimed = true;

  CP.ModelZeroParams = {0.1, -0.0, 1.0 / 3.0,
                        std::numeric_limits<double>::min(),
                        std::numeric_limits<double>::denorm_min(), -17.25};
  CP.WarmUpParams = {2.5, -3.75};
  // Correctness intentionally empty (= not built yet); latency has one.
  CP.LatencyParams = {1e-300};

  TrainLogEntry E;
  E.Step = 3;
  E.MeanReward = 0.123456789012345;
  E.EMAReward = -0.25;
  E.EquivalentRate = 2.0 / 3.0;
  E.CopyRate = 0.5;
  E.GradNorm = 1e-9;
  CP.Stage1Log = {E, E};
  E.Step = 9;
  CP.Stage2Log = {E};
  // Stage3Log empty.

  AugmentedRecord R1;
  R1.SampleIdx = 5;
  R1.TargetActions = {1, 2, 3, 0};
  R1.IsCorrection = true;
  R1.AttemptActions = {7, 0};
  R1.DiagClass = 4;
  AugmentedRecord R2;
  R2.SampleIdx = 0;
  R2.TargetActions = {0};
  CP.Augmented = {R1, R2};
  return CP;
}

TEST(Checkpoint, RoundTripIsBitExact) {
  const std::string Path = scratchPath("roundtrip");
  PipelineCheckpoint CP = makeRichCheckpoint();
  ASSERT_TRUE(saveCheckpoint(Path, CP));

  PipelineCheckpoint L;
  ASSERT_TRUE(loadCheckpoint(Path, L));
  EXPECT_EQ(L.Version, CP.Version);
  EXPECT_EQ(L.Seed, CP.Seed);
  EXPECT_EQ(L.StageIdx, CP.StageIdx);
  EXPECT_EQ(L.Trainer.StepCount, CP.Trainer.StepCount);
  EXPECT_EQ(L.Trainer.RNGState, CP.Trainer.RNGState);
  EXPECT_TRUE(bitEqual(L.Trainer.EMAValue, CP.Trainer.EMAValue));
  EXPECT_EQ(L.Trainer.EMAPrimed, CP.Trainer.EMAPrimed);

  ASSERT_EQ(L.ModelZeroParams.size(), CP.ModelZeroParams.size());
  for (size_t I = 0; I < CP.ModelZeroParams.size(); ++I)
    EXPECT_TRUE(bitEqual(L.ModelZeroParams[I], CP.ModelZeroParams[I]))
        << "param " << I;
  EXPECT_EQ(L.WarmUpParams.size(), 2u);
  EXPECT_TRUE(L.CorrectnessParams.empty());
  ASSERT_EQ(L.LatencyParams.size(), 1u);
  EXPECT_TRUE(bitEqual(L.LatencyParams[0], 1e-300));

  ASSERT_EQ(L.Stage1Log.size(), 2u);
  ASSERT_EQ(L.Stage2Log.size(), 1u);
  EXPECT_TRUE(L.Stage3Log.empty());
  const TrainLogEntry &A = L.Stage1Log[0], &B = CP.Stage1Log[0];
  EXPECT_EQ(A.Step, B.Step);
  EXPECT_TRUE(bitEqual(A.MeanReward, B.MeanReward));
  EXPECT_TRUE(bitEqual(A.EMAReward, B.EMAReward));
  EXPECT_TRUE(bitEqual(A.EquivalentRate, B.EquivalentRate));
  EXPECT_TRUE(bitEqual(A.CopyRate, B.CopyRate));
  EXPECT_TRUE(bitEqual(A.GradNorm, B.GradNorm));

  ASSERT_EQ(L.Augmented.size(), 2u);
  EXPECT_EQ(L.Augmented[0].SampleIdx, 5u);
  EXPECT_EQ(L.Augmented[0].TargetActions, CP.Augmented[0].TargetActions);
  EXPECT_TRUE(L.Augmented[0].IsCorrection);
  EXPECT_EQ(L.Augmented[0].AttemptActions, CP.Augmented[0].AttemptActions);
  EXPECT_EQ(L.Augmented[0].DiagClass, 4u);
  EXPECT_FALSE(L.Augmented[1].IsCorrection);

  std::remove(Path.c_str());
}

TEST(Checkpoint, MissingFileFailsCleanly) {
  PipelineCheckpoint L;
  L.Seed = 99;
  EXPECT_FALSE(loadCheckpoint("ckpt_test_does_not_exist.bin", L));
  // The output is untouched on failure.
  EXPECT_EQ(L.Seed, 99u);
}

TEST(Checkpoint, TruncatedFileFailsCleanly) {
  const std::string Path = scratchPath("truncated");
  PipelineCheckpoint CP = makeRichCheckpoint();
  ASSERT_TRUE(saveCheckpoint(Path, CP));
  // Chop the file roughly in half.
  std::string Contents;
  {
    std::ifstream F(Path, std::ios::binary);
    Contents.assign(std::istreambuf_iterator<char>(F),
                    std::istreambuf_iterator<char>());
  }
  {
    std::ofstream F(Path, std::ios::binary | std::ios::trunc);
    F << Contents.substr(0, Contents.size() / 2);
  }
  PipelineCheckpoint L;
  L.Seed = 99;
  EXPECT_FALSE(loadCheckpoint(Path, L));
  EXPECT_EQ(L.Seed, 99u);
  std::remove(Path.c_str());
}

TEST(Checkpoint, BadMagicOrVersionFails) {
  const std::string Path = scratchPath("badmagic");
  {
    std::ofstream F(Path, std::ios::binary | std::ios::trunc);
    F << "not-a-checkpoint 1\n";
  }
  PipelineCheckpoint L;
  EXPECT_FALSE(loadCheckpoint(Path, L));
  {
    std::ofstream F(Path, std::ios::binary | std::ios::trunc);
    F << "veriopt-ckpt 999\nseed 1\n";
  }
  EXPECT_FALSE(loadCheckpoint(Path, L));
  std::remove(Path.c_str());
}

TEST(Checkpoint, RejectsVersion1) {
  // A complete version-1 checkpoint: its log rows carry seven per-step
  // telemetry columns and it ends with a sample-count line. Version 2
  // dropped both, so the pipeline starts fresh instead of resuming it.
  const std::string Path = scratchPath("version1");
  const std::string H = hexDouble(0.5);
  {
    std::ofstream F(Path, std::ios::binary | std::ios::trunc);
    F << "veriopt-ckpt 1\nseed 2026\nstage 0\n"
      << "trainer 1 7 " << H << " 1\n"
      << "model zero 1 " << H << "\nmodel warmup 0\n"
      << "model correctness 0\nmodel latency 0\n"
      << "log 1 1\n1 " << H << ' ' << H << ' ' << H << ' ' << H << ' ' << H
      << ' ' << H << ' ' << H << " 4 123 2 1 2\n"
      << "log 2 0\nlog 3 0\n"
      << "aug 1\n3 1 2 2 4 0 1 0\n"
      << "counts 1 0\nend\n";
  }
  PipelineCheckpoint L;
  L.Seed = 99;
  EXPECT_FALSE(loadCheckpoint(Path, L));
  EXPECT_EQ(L.Seed, 99u);
  std::remove(Path.c_str());
}

TEST(Checkpoint, RejectsOutOfRangeActionAndDiagnosisCodes) {
  // Action codes index the policy's action heads (and a bit mask during
  // warm-up SFT), diagnosis classes index its diagnosis head: a code past
  // either vocabulary makes the whole checkpoint incompatible.
  struct Case {
    const char *Name;
    void (*Edit)(AugmentedRecord &);
  };
  const Case Cases[] = {
      {"target action = NumActions",
       [](AugmentedRecord &R) { R.TargetActions[0] = NumActions; }},
      {"attempt action 31",
       [](AugmentedRecord &R) { R.AttemptActions[0] = 31; }},
      {"attempt action 32",
       [](AugmentedRecord &R) { R.AttemptActions[0] = 32; }},
      {"diagnosis class = NumDiagClasses",
       [](AugmentedRecord &R) { R.DiagClass = NumDiagClasses; }},
  };
  const std::string Path = scratchPath("badcodes");
  for (const Case &C : Cases) {
    PipelineCheckpoint CP = makeRichCheckpoint();
    C.Edit(CP.Augmented[0]);
    ASSERT_TRUE(saveCheckpoint(Path, CP)) << C.Name;
    PipelineCheckpoint L;
    L.Seed = 99;
    EXPECT_FALSE(loadCheckpoint(Path, L)) << C.Name;
    EXPECT_EQ(L.Seed, 99u) << C.Name;
  }
  // The largest valid codes still load.
  PipelineCheckpoint CP = makeRichCheckpoint();
  CP.Augmented[0].TargetActions[0] = NumActions - 1;
  CP.Augmented[0].DiagClass = NumDiagClasses - 1;
  ASSERT_TRUE(saveCheckpoint(Path, CP));
  PipelineCheckpoint L;
  EXPECT_TRUE(loadCheckpoint(Path, L));
  std::remove(Path.c_str());
}

TEST(Checkpoint, SaveOverwritesAtomically) {
  const std::string Path = scratchPath("overwrite");
  PipelineCheckpoint CP = makeRichCheckpoint();
  ASSERT_TRUE(saveCheckpoint(Path, CP));
  CP.StageIdx = 2;
  CP.Trainer.StepCount = 99;
  ASSERT_TRUE(saveCheckpoint(Path, CP));
  // No stale temp file left behind.
  std::ifstream Tmp(Path + ".tmp");
  EXPECT_FALSE(Tmp.good());
  PipelineCheckpoint L;
  ASSERT_TRUE(loadCheckpoint(Path, L));
  EXPECT_EQ(L.StageIdx, 2u);
  EXPECT_EQ(L.Trainer.StepCount, 99u);
  std::remove(Path.c_str());
}

TEST(Checkpoint, InjectedWriteFailureLeavesPreviousCheckpoint) {
  const std::string Path = scratchPath("faultwrite");
  PipelineCheckpoint CP = makeRichCheckpoint();
  ASSERT_TRUE(saveCheckpoint(Path, CP));

  FaultInjector FI(11);
  armIoFaults(FI, 1.0);
  FaultyIoEnv Env(FI);
  PipelineCheckpoint Next = CP;
  Next.StageIdx = 2;
  {
    ScopedIoEnv Install(&Env);
    EXPECT_FALSE(saveCheckpoint(Path, Next));
  }
  EXPECT_GT(FI.counters().totalInjected(), 0u);

  // The previous checkpoint still stands, bit for bit.
  PipelineCheckpoint L;
  ASSERT_TRUE(loadCheckpoint(Path, L));
  EXPECT_EQ(L.StageIdx, CP.StageIdx);
  std::remove(Path.c_str());
}

} // namespace
} // namespace veriopt
