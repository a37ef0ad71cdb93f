//===- FaultToleranceTest.cpp - Checkpoint/resume + fault injection -------===//
//
// The acceptance bar for the fault-tolerant runtime:
//  * killing the pipeline at an arbitrary step and resuming from the
//    checkpoint yields artifacts bit-identical to an uninterrupted run;
//  * the trainer survives a starved verifier and a hostile disk without
//    hanging, and I/O faults never change its trajectory;
//  * results are independent of thread count.
//
//===----------------------------------------------------------------------===//

#include "pipeline/Pipeline.h"

#include "store/VerdictStore.h"
#include "support/IoEnv.h"
#include "trace/Json.h"
#include "trace/Metrics.h"
#include "trace/Trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

namespace veriopt {
namespace {

const Dataset &smallDataset() {
  static Dataset DS = [] {
    DatasetOptions O;
    O.TrainCount = 12;
    O.ValidCount = 4;
    O.Seed = 77;
    return buildDataset(O);
  }();
  return DS;
}

PipelineOptions smallOptions() {
  PipelineOptions P;
  P.Stage1Steps = 4;
  P.Stage2Steps = 4;
  P.Stage3Steps = 4;
  P.GRPO.GroupSize = 4;
  P.GRPO.PromptsPerStep = 2;
  P.Seed = 2026;
  return P;
}

uint64_t counterValue(const char *Name) {
  return MetricsRegistry::global().counter(Name).value();
}

/// One pipeline run plus the deterministic plane of its grpo.step spans:
/// per step, the reward curve and the verifier telemetry (falsification
/// wins, solver conflicts, retry escalations, terminal Inconclusives, top
/// retry tier), as one canonical string each.
struct TracedRun {
  PipelineArtifacts Art;
  std::multiset<std::string> Steps;
};

TracedRun tracedRun(const Dataset &DS, const PipelineOptions &P) {
  TraceRecorder &R = TraceRecorder::instance();
  R.clear();
  R.enable();
  TracedRun Out;
  Out.Art = runTrainingPipeline(DS, P);
  R.disable();
  for (const TraceEvent &E : R.snapshot()) {
    if (E.Name != "grpo.step")
      continue;
    std::string K;
    for (const TraceArg &A : E.Args) {
      K += A.Key + '=';
      if (A.K == TraceArg::Kind::Float)
        K += jsonNumber(A.F);
      else if (A.K == TraceArg::Kind::Str)
        K += A.S;
      else
        K += std::to_string(A.I);
      K += ' ';
    }
    Out.Steps.insert(std::move(K));
  }
  R.clear();
  return Out;
}

/// The deterministic slice of two runs must match exactly: parameters,
/// logs, harvested samples and every grpo.step's deterministic args.
void expectIdenticalRuns(const TracedRun &RA, const TracedRun &RB) {
  const PipelineArtifacts &A = RA.Art, &B = RB.Art;
  ASSERT_NE(A.Latency, nullptr);
  ASSERT_NE(B.Latency, nullptr);
  EXPECT_EQ(A.ModelZero->params(), B.ModelZero->params());
  EXPECT_EQ(A.WarmUp->params(), B.WarmUp->params());
  EXPECT_EQ(A.Correctness->params(), B.Correctness->params());
  EXPECT_EQ(A.Latency->params(), B.Latency->params());

  auto expectSameLog = [](const std::vector<TrainLogEntry> &X,
                          const std::vector<TrainLogEntry> &Y) {
    ASSERT_EQ(X.size(), Y.size());
    for (size_t I = 0; I < X.size(); ++I) {
      EXPECT_EQ(X[I].Step, Y[I].Step);
      EXPECT_EQ(X[I].MeanReward, Y[I].MeanReward) << "step " << I;
      EXPECT_EQ(X[I].EMAReward, Y[I].EMAReward);
      EXPECT_EQ(X[I].EquivalentRate, Y[I].EquivalentRate);
      EXPECT_EQ(X[I].CopyRate, Y[I].CopyRate);
      EXPECT_EQ(X[I].GradNorm, Y[I].GradNorm);
    }
  };
  expectSameLog(A.Stage1Log, B.Stage1Log);
  expectSameLog(A.Stage2Log, B.Stage2Log);
  expectSameLog(A.Stage3Log, B.Stage3Log);

  EXPECT_EQ(A.Augmented.size(), B.Augmented.size());
  EXPECT_EQ(A.correctionSamples(), B.correctionSamples());
  EXPECT_EQ(A.firstTimeSamples(), B.firstTimeSamples());

  EXPECT_EQ(RA.Steps.size(), A.Stage1Log.size() + A.Stage2Log.size() +
                                 A.Stage3Log.size());
  EXPECT_EQ(RA.Steps, RB.Steps);
}

TEST(FaultTolerance, KillResumeYieldsIdenticalArtifacts) {
  const Dataset &DS = smallDataset();

  // Reference: one uninterrupted run, no checkpointing at all.
  TracedRun Ref = tracedRun(DS, smallOptions());
  ASSERT_FALSE(Ref.Art.Halted);

  // Interrupted: kill after every 5 GRPO steps, resume from the checkpoint
  // until the pipeline reports completion. The halt points land in
  // different stages, so this also exercises stage-boundary resumes. Every
  // step runs in exactly one leg, so the legs' grpo.step spans together
  // must equal the uninterrupted run's.
  const std::string Path = "ckpt_test_killresume.bin";
  std::remove(Path.c_str());
  TracedRun Res;
  unsigned Legs = 0;
  for (;; ++Legs) {
    ASSERT_LT(Legs, 20u) << "resume loop did not converge";
    PipelineOptions P = smallOptions();
    P.CheckpointPath = Path;
    P.CheckpointEveryNSteps = 2; // also exercise periodic checkpoints
    P.Resume = true;             // first leg: no file yet -> fresh start
    P.HaltAfterSteps = 5;
    const uint64_t Written0 = counterValue("io.checkpoint.written");
    TracedRun Leg = tracedRun(DS, P);
    Res.Steps.insert(Leg.Steps.begin(), Leg.Steps.end());
    Res.Art = std::move(Leg.Art);
    if (!Res.Art.Halted)
      break;
    EXPECT_GT(counterValue("io.checkpoint.written"), Written0);
  }
  EXPECT_GE(Legs, 2u) << "test misconfigured: nothing was interrupted";

  expectIdenticalRuns(Ref, Res);
  std::remove(Path.c_str());
}

TEST(FaultTolerance, ResumeIgnoresCheckpointFromDifferentSeed) {
  const Dataset &DS = smallDataset();
  const std::string Path = "ckpt_test_wrongseed.bin";
  std::remove(Path.c_str());

  PipelineOptions P = smallOptions();
  P.CheckpointPath = Path;
  P.HaltAfterSteps = 3;
  P.Resume = true;
  PipelineArtifacts Halted = runTrainingPipeline(DS, P);
  ASSERT_TRUE(Halted.Halted);

  // A different seed must not adopt this checkpoint: the run starts fresh
  // (and therefore completes all stages rather than resuming mid-stage-1).
  PipelineOptions Q = smallOptions();
  Q.Seed = 4711;
  Q.CheckpointPath = Path;
  Q.Resume = true;
  PipelineArtifacts Fresh = runTrainingPipeline(DS, Q);
  EXPECT_FALSE(Fresh.Halted);
  EXPECT_EQ(Fresh.Stage1Log.size(), smallOptions().Stage1Steps);
  std::remove(Path.c_str());
}

TEST(FaultTolerance, ResumeRejectsIncompatibleCheckpoints) {
  // A checkpoint whose contents do not fit this run — a model of the wrong
  // size, a harvested sample past the training split, an action code past
  // the policy's vocabulary — is not resumed from: the run starts fresh and
  // runs every GRPO step itself.
  const Dataset &DS = smallDataset();
  const PipelineOptions Small = smallOptions();
  const unsigned AllSteps =
      Small.Stage1Steps + Small.Stage2Steps + Small.Stage3Steps;
  const std::string Path = "ckpt_test_incompatible.bin";
  std::remove(Path.c_str());

  // Halt one step into stage 2: the checkpoint then holds the stage-1 and
  // warm-up models and the harvested samples.
  PipelineOptions P = Small;
  P.CheckpointPath = Path;
  P.HaltAfterSteps = Small.Stage1Steps + 1;
  ASSERT_TRUE(runTrainingPipeline(DS, P).Halted);
  PipelineCheckpoint Good;
  ASSERT_TRUE(loadCheckpoint(Path, Good));
  ASSERT_EQ(Good.StageIdx, 1u);
  ASSERT_FALSE(Good.Augmented.empty());
  ASSERT_FALSE(Good.Augmented[0].TargetActions.empty());

  struct Case {
    const char *Name;
    void (*Edit)(PipelineCheckpoint &, const Dataset &);
    bool Resumes;
  };
  const Case Cases[] = {
      {"unedited", [](PipelineCheckpoint &, const Dataset &) {}, true},
      {"stage-1 model one parameter short",
       [](PipelineCheckpoint &CP, const Dataset &) {
         CP.ModelZeroParams.pop_back();
       },
       false},
      {"warm-up model one parameter long",
       [](PipelineCheckpoint &CP, const Dataset &) {
         CP.WarmUpParams.push_back(0.0);
       },
       false},
      {"sample index past the training split",
       [](PipelineCheckpoint &CP, const Dataset &DS) {
         CP.Augmented.back().SampleIdx =
             static_cast<unsigned>(DS.Train.size());
       },
       false},
      // Rejected by loadCheckpoint itself; the out-of-range codes are
      // tabled in Checkpoint.RejectsOutOfRangeActionAndDiagnosisCodes.
      {"action code 32",
       [](PipelineCheckpoint &CP, const Dataset &) {
         CP.Augmented[0].TargetActions[0] = 32;
       },
       false},
  };
  Counter &Steps = MetricsRegistry::global().counter("grpo.steps");
  for (const Case &C : Cases) {
    PipelineCheckpoint Edited = Good;
    C.Edit(Edited, DS);
    ASSERT_TRUE(saveCheckpoint(Path, Edited)) << C.Name;
    PipelineOptions Q = Small;
    Q.CheckpointPath = Path;
    Q.Resume = true;
    const uint64_t Steps0 = Steps.value();
    PipelineArtifacts Art = runTrainingPipeline(DS, Q);
    EXPECT_FALSE(Art.Halted) << C.Name;
    EXPECT_EQ(Steps.value() - Steps0,
              C.Resumes ? AllSteps - P.HaltAfterSteps : AllSteps)
        << C.Name;
  }
  std::remove(Path.c_str());
}

/// Options whose tier-0 verification budget is too small for many real
/// queries: they run out of conflicts and the ladder must re-ask them.
PipelineOptions starvedOptions() {
  PipelineOptions P = smallOptions();
  P.GRPO.Verify.Base.FalsifyTrials = 0;
  P.GRPO.Verify.Base.SolverConflictBudget = 1;
  return P;
}

TEST(FaultTolerance, SurvivesFaultStormWithoutHanging) {
  // A starved verifier and a disk that fails half of its syscalls, at once.
  const Dataset &DS = smallDataset();
  FaultInjector IoFI(1234);
  armIoFaults(IoFI, 0.5);
  FaultyIoEnv Env(IoFI);

  const std::string Path = "ckpt_test_faultstorm.bin";
  std::remove(Path.c_str());
  PipelineOptions P = starvedOptions();
  P.CheckpointPath = Path;
  P.CheckpointEveryNSteps = 1;
  const uint64_t Written0 = counterValue("io.checkpoint.written");
  const uint64_t Failures0 = counterValue("io.checkpoint.write_failures");
  const uint64_t Escalations0 = counterValue("verify.retry.escalations");
  PipelineArtifacts Art;
  {
    ScopedIoEnv Install(&Env);
    Art = runTrainingPipeline(DS, P);
  }
  const uint64_t Written = counterValue("io.checkpoint.written") - Written0;
  const uint64_t Failures =
      counterValue("io.checkpoint.write_failures") - Failures0;

  // The run completes every stage despite the storm.
  EXPECT_FALSE(Art.Halted);
  ASSERT_NE(Art.Latency, nullptr);
  EXPECT_EQ(Art.Stage1Log.size(), P.Stage1Steps);
  EXPECT_EQ(Art.Stage2Log.size(), P.Stage2Steps);
  EXPECT_EQ(Art.Stage3Log.size(), P.Stage3Steps);

  // Faults actually fired and were logged, not silently swallowed.
  EXPECT_GT(IoFI.counters().totalInjected(), 0u);
  EXPECT_GT(Failures, 0u);
  EXPECT_GT(Written + Failures,
            P.Stage1Steps + P.Stage2Steps + P.Stage3Steps - 1);
  // Budget exhaustion is recovered through the retry ladder.
  EXPECT_GT(counterValue("verify.retry.escalations"), Escalations0);
  std::remove(Path.c_str());
}

TEST(FaultTolerance, SingleTierLadderNeverEscalates) {
  // GRPO.Verify.MaxTiers is the run's one retry-ladder setting: with one
  // tier, budget exhaustion is terminal instead of re-asked.
  const Dataset &DS = smallDataset();
  PipelineOptions P = starvedOptions();
  P.GRPO.Verify.MaxTiers = 1;
  const uint64_t Escalations0 = counterValue("verify.retry.escalations");
  const uint64_t Terminal0 =
      counterValue("verify.retry.terminal_inconclusive");
  runTrainingPipeline(DS, P);

  EXPECT_EQ(counterValue("verify.retry.escalations"), Escalations0);
  EXPECT_GE(counterValue("verify.retry.terminal_inconclusive"),
            Terminal0 + 1);
}

TEST(FaultTolerance, CheckpointRetriesRecoverTransientWriteFaults) {
  // I/O fault keys carry each path's operation ordinal, so a retry of a
  // failed checkpoint write decides independently of the first attempt:
  // most checkpoints land, the telemetry records the retries, and the
  // trajectory is bit-identical to the fault-free run (durability work
  // never feeds back into training). The checkpoint is the only file this
  // run writes, so it takes every fault.
  const Dataset &DS = smallDataset();
  TracedRun Plain = tracedRun(DS, smallOptions());

  FaultInjector FI(7001);
  armIoFaults(FI, 0.1);
  FaultyIoEnv Env(FI);
  const std::string Path = "ckpt_test_retry.bin";
  std::remove(Path.c_str());
  PipelineOptions P = smallOptions();
  P.CheckpointPath = Path;
  P.CheckpointEveryNSteps = 1;
  const uint64_t Retries0 = counterValue("io.checkpoint.retries");
  const uint64_t Written0 = counterValue("io.checkpoint.written");
  const uint64_t Failures0 = counterValue("io.checkpoint.write_failures");
  TracedRun Faulted;
  {
    ScopedIoEnv Install(&Env);
    Faulted = tracedRun(DS, P);
  }

  EXPECT_FALSE(Faulted.Art.Halted);
  EXPECT_GT(counterValue("io.checkpoint.retries"), Retries0)
      << "no retry ever fired";
  // A retried write only counts as a failure when every attempt loses, so
  // retries must strictly improve on a no-retry storm: most checkpoints
  // land.
  EXPECT_GT(counterValue("io.checkpoint.written") - Written0,
            counterValue("io.checkpoint.write_failures") - Failures0);
  expectIdenticalRuns(Plain, Faulted);
  std::remove(Path.c_str());
}

TEST(FaultTolerance, IoFaultStormPreservesTrajectory) {
  // The tentpole invariant end to end: run the pipeline with every durable
  // subsystem it touches (periodic checkpoints + the verdict-store
  // journal) behind a hostile disk — injected open/write/short-write/
  // fsync/rename/flock failures — and require the training trajectory to
  // be bit-identical to the fault-free same-seed run. I/O faults may cost
  // durability, never correctness or determinism.
  const Dataset &DS = smallDataset();
  TracedRun Plain = tracedRun(DS, smallOptions());

  const std::string Ckpt = "ckpt_test_iostorm.bin";
  const std::string Journal = "store_test_iostorm.vstore";
  std::remove(Ckpt.c_str());
  std::remove(Journal.c_str());
  std::remove((Journal + ".lock").c_str());

  VerdictStore::Options SO;
  SO.FlushEveryN = 4; // plenty of journal traffic for the storm to hit
  std::string Err;
  auto Store = VerdictStore::open(Journal, &Err, SO);
  ASSERT_NE(Store, nullptr) << Err;

  FaultInjector IoFI(0xFA11);
  armIoFaults(IoFI, 0.25);
  FaultyIoEnv Env(IoFI);

  PipelineOptions P = smallOptions();
  P.CheckpointPath = Ckpt;
  P.CheckpointEveryNSteps = 1;
  P.VerdictTier = Store.get();
  TracedRun Stormy;
  {
    ScopedIoEnv Install(&Env);
    Stormy = tracedRun(DS, P);
  }

  EXPECT_FALSE(Stormy.Art.Halted);
  EXPECT_GT(IoFI.counters().totalInjected(), 0u) << "storm never fired";
  expectIdenticalRuns(Plain, Stormy);
  // Degradation (if the storm tripped the store) is visible, typed state —
  // not silence, not an abort.
  if (Store->degraded()) {
    EXPECT_FALSE(Store->stats().DegradedReason.empty());
  }

  std::remove(Ckpt.c_str());
  std::remove(Journal.c_str());
  std::remove((Journal + ".lock").c_str());
}

TEST(FaultTolerance, ThreadCountInvariantWithInjectionDisabled) {
  const Dataset &DS = smallDataset();
  PipelineOptions P1 = smallOptions();
  P1.Threads = 1;
  PipelineOptions P4 = smallOptions();
  P4.Threads = 4;
  expectIdenticalRuns(tracedRun(DS, P1), tracedRun(DS, P4));
}

} // namespace
} // namespace veriopt
