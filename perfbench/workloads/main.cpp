//===- main.cpp - perfbench workload runner -------------------------------===//
//
// Runs one benchmark workload and writes its raw report as JSON:
//
//   perfbench_workloads --workload <train|verify_hard|eval_store> --seed <n>
//                    --seconds <s> --trace <0|1> --out <report.json>
//                    --tmp <scratch-dir>
//
// perfbench/run.py builds this binary, runs it and turns the report into
// the benchmark's metrics; see perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/AtomicFile.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>

using namespace perfbench;

int main(int argc, char **argv) {
  RunArgs A;
  bool HaveSeed = false;
  for (int I = 1; I + 1 < argc; I += 2) {
    const char *Flag = argv[I], *Val = argv[I + 1];
    if (!std::strcmp(Flag, "--workload")) {
      A.Workload = Val;
    } else if (!std::strcmp(Flag, "--seed")) {
      A.Seed = std::strtoull(Val, nullptr, 10);
      HaveSeed = true;
    } else if (!std::strcmp(Flag, "--seconds")) {
      A.Seconds = std::atof(Val);
    } else if (!std::strcmp(Flag, "--trace")) {
      A.Trace = std::atoi(Val) != 0;
    } else if (!std::strcmp(Flag, "--out")) {
      A.OutPath = Val;
    } else if (!std::strcmp(Flag, "--tmp")) {
      A.TmpDir = Val;
    } else {
      std::fprintf(stderr, "perfbench_workloads: unknown flag %s\n", Flag);
      return 2;
    }
  }
  if (argc % 2 == 0 || A.Workload.empty() || !HaveSeed ||
      A.OutPath.empty() || A.TmpDir.empty() || A.Seconds <= 0) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --out <report.json> --tmp <dir>\n",
                 argv[0]);
    return 2;
  }

  JsonObject Out;
  Checks C;
  Out.str("workload", A.Workload);
  Out.num("seed", static_cast<double>(A.Seed));
  Out.num("trace", A.Trace ? 1 : 0);
  try {
    if (A.Workload == "train")
      runTrain(A, Out, C);
    else if (A.Workload == "verify_hard")
      runVerifyHard(A, Out, C);
    else if (A.Workload == "eval_store")
      runEvalStore(A, Out, C);
    else {
      std::fprintf(stderr, "perfbench_workloads: unknown workload %s\n",
                   A.Workload.c_str());
      return 2;
    }
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench_workloads: %s\n", E.what());
    return 1;
  }
  Out.num("peak_rss_kb", static_cast<double>(peakRssKb()));
  Out.raw("checks", C.json());
  if (!veriopt::writeFileAtomic(A.OutPath, Out.json() + "\n")) {
    std::fprintf(stderr, "perfbench_workloads: cannot write %s\n",
                 A.OutPath.c_str());
    return 1;
  }
  return 0;
}
