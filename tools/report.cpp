//===- report.cpp - Run reports and A/B run diffs -------------------------===//
//
// The comparison CLI (workflow doc: docs/COMPARISON.md):
//
//   report <trace.jsonl> [--top N]           validate, then print the report
//   report <trace.jsonl> --validate          schema validation only
//   report --diff A.jsonl B.jsonl [--top N] [--gate-deterministic]
//   report --help
//
// Exit codes (stable — CI scripts key on them):
//   0   success / no regression
//   64  usage error (unknown flag, missing operand)
//   2   input failure: unreadable file, malformed JSON/JSONL (including a
//       truncated trace), or a schema violation
//   3   regression: --gate-deterministic found a deterministic-plane
//       divergence
//
//===----------------------------------------------------------------------===//

#include "report/RunDiff.h"
#include "report/RunReport.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace veriopt;

namespace {

constexpr int ExitOk = 0;
constexpr int ExitUsage = 64;
constexpr int ExitInput = 2;
constexpr int ExitRegression = 3;

const char *HelpText = R"(usage:
  report <trace.jsonl> [--top N]      render the run report for one trace
  report <trace.jsonl> --validate     schema-validate only (CI gate)
  report --diff A.jsonl B.jsonl [--top N] [--gate-deterministic]
                                      compare two runs: deterministic-plane
                                      identity, reward curves, verdict/diag
                                      mix, retry ladder, cache efficacy, and
                                      per-span wall-time deltas
  report --help                       this text

exit codes:
  0   success / no regression
  64  usage error
  2   unreadable or schema-invalid input (including truncated JSONL)
  3   regression (--gate-deterministic with diverged deterministic planes)

docs: docs/COMPARISON.md (workflow), docs/OBSERVABILITY.md (schemas)
)";

int usage(const char *Argv0, const char *Why) {
  if (Why)
    std::fprintf(stderr, "%s: %s\n", Argv0, Why);
  std::fprintf(stderr, "usage: %s --help\n", Argv0);
  return ExitUsage;
}

/// Load + schema-validate one trace, mapping both failure kinds to the
/// input exit code with a path-prefixed message.
bool loadRun(const std::string &Path, TraceLog &Log) {
  std::string Err;
  if (!loadTraceJsonl(Path, Log, &Err)) {
    std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Err.c_str());
    return false;
  }
  if (!validateTraceLog(Log, &Err)) {
    std::fprintf(stderr, "error: %s: schema violation: %s\n", Path.c_str(),
                 Err.c_str());
    return false;
  }
  return true;
}

int runReport(const std::string &Path, bool ValidateOnly, unsigned TopN) {
  TraceLog Log;
  if (!loadRun(Path, Log))
    return ExitInput;
  if (ValidateOnly) {
    std::printf("OK: %zu events conform to the trace schema\n",
                Log.Events.size());
    return ExitOk;
  }
  std::fputs(renderRunReport(Log, TopN).c_str(), stdout);
  return ExitOk;
}

int runDiff(const std::string &PathA, const std::string &PathB, unsigned TopN,
            bool GateDeterministic) {
  TraceLog LogA, LogB;
  if (!loadRun(PathA, LogA) || !loadRun(PathB, LogB))
    return ExitInput;
  RunDiff D = diffRuns(aggregateRun(LogA), aggregateRun(LogB));
  std::fputs(renderRunDiff(D, TopN).c_str(), stdout);
  if (GateDeterministic && !D.deterministicPlaneIdentical()) {
    std::fprintf(stderr,
                 "error: deterministic planes diverged (%zu keys differ); "
                 "same-seed runs must match\n",
                 D.DeterministicDeltas.size());
    return ExitRegression;
  }
  return ExitOk;
}

} // namespace

int main(int argc, char **argv) {
  std::vector<std::string> Positional;
  bool ValidateOnly = false, DiffMode = false, GateDeterministic = false;
  unsigned TopN = 10;

  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    if (std::strcmp(Arg, "--help") == 0 || std::strcmp(Arg, "-h") == 0) {
      std::fputs(HelpText, stdout);
      return ExitOk;
    } else if (std::strcmp(Arg, "--validate") == 0) {
      ValidateOnly = true;
    } else if (std::strcmp(Arg, "--diff") == 0) {
      DiffMode = true;
    } else if (std::strcmp(Arg, "--gate-deterministic") == 0) {
      GateDeterministic = true;
    } else if (std::strcmp(Arg, "--top") == 0) {
      if (I + 1 >= argc)
        return usage(argv[0], "--top needs a count");
      TopN = static_cast<unsigned>(std::atoi(argv[++I]));
      if (TopN == 0)
        return usage(argv[0], "--top needs a positive count");
    } else if (Arg[0] == '-' && Arg[1] != '\0') {
      std::string Why = std::string("unknown flag '") + Arg + "'";
      return usage(argv[0], Why.c_str());
    } else {
      Positional.push_back(Arg);
    }
  }

  if (DiffMode) {
    if (ValidateOnly)
      return usage(argv[0], "flag does not apply to --diff");
    if (Positional.size() != 2)
      return usage(argv[0], "--diff needs A.jsonl B.jsonl");
    return runDiff(Positional[0], Positional[1], TopN, GateDeterministic);
  }
  if (GateDeterministic)
    return usage(argv[0], "flag requires --diff");
  if (Positional.size() != 1)
    return usage(argv[0], "need exactly one <trace.jsonl>");
  return runReport(Positional[0], ValidateOnly, TopN);
}
