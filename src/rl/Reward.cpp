//===- Reward.cpp - Verifier-guided reward functions ---------------------------//

#include "rl/Reward.h"

#include "cost/CostModel.h"
#include "ir/Printer.h"
#include "support/Stats.h"
#include "textgen/Bleu.h"

#include <algorithm>
#include <cmath>

namespace veriopt {

/// A copy that has been re-wrapped in whitespace or renumbered values must
/// still count as a copy, or the copy penalty / CopyRate stat is evaded by
/// cosmetic edits. Compare the re-printed answer (value names included)
/// with the printed source; fall back to the raw byte compare when the
/// answer does not parse.
static bool isCopyOfSource(const Sample &S, const Candidate &Answer) {
  if (Answer.Text == S.SrcText)
    return true;
  const Function *F = Answer.function();
  return F && printFunction(*F) == S.SrcText;
}

RewardBreakdown answerReward(const Sample &S, const Completion &C,
                             const Candidate &Answer,
                             const VerifyResult &AnswerVerify) {
  RewardBreakdown Out;
  Out.FormatOk = C.FormatOk;
  Out.IsCopy = isCopyOfSource(S, Answer);

  if (Out.FormatOk) {
    Out.Verify = AnswerVerify;
    Out.Equivalent = Out.Verify.equivalent();
  } else {
    Out.Verify.Status = VerifyStatus::SyntaxError;
    Out.Verify.Kind = DiagKind::ParseError;
    Out.Verify.Diagnostic = "ERROR: completion violates the answer format";
  }
  Out.ExactMatch = Out.Equivalent && C.AnswerIR == S.RefText;
  Out.Bleu = bleu(S.RefTokens, tokenizeIR(C.AnswerIR));

  double T = Out.FormatOk ? 1.0 : 0.0;
  double A = Out.Equivalent ? 1.0 : 0.0;
  double M = Out.ExactMatch ? 1.0 : 0.0;
  Out.Total = T * (1.0 + A * (1.0 + M)) + Out.Bleu; // Eq. (1)
  return Out;
}

double cotReward(const Completion &C, const VerifyResult &AttemptVerify) {
  bool ModelSaysOk = C.PredictedDiagClass == 0;
  bool AliveSaysOk = AttemptVerify.equivalent();
  if (ModelSaysOk && AliveSaysOk)
    return 1.0; // agreement on OK
  if (!ModelSaysOk && !AliveSaysOk)
    return 0.5 + 0.5 * bleuText(AttemptVerify.Diagnostic,
                                C.PredictedMessage); // agreement on ERR
  return 0.0; // disagreement
}

double latencyReward(const Sample &S, const Candidate &Answer, bool Equivalent,
                     const LatencyRewardParams &P) {
  if (!Equivalent)
    return 0.0; // S = 0
  if (P.UMax <= 1.0)
    return 0.0; // saturation band is empty: Eq. (4) would divide by zero
  const Function *F = Answer.function();
  if (!F)
    return 0.0;
  double T0 = estimateLatency(*S.source());
  if (T0 <= 0)
    return 0.0; // zero-latency source: no speedup is expressible
  double T1 = estimateLatency(*F);
  if (T1 <= 0)
    T1 = 0.5; // fully-folded function: credit the maximum
  double U = T0 / T1;
  if (U <= 1.0)
    return 0.0;
  double Norm = std::min(1.0, (U - 1.0) / (P.UMax - 1.0));
  return std::pow(Norm, P.Gamma); // Eq. (4)
}

double computeUMax(const std::vector<Sample> &Train) {
  std::vector<double> Speedups;
  for (const Sample &S : Train) {
    double T0 = estimateLatency(*S.source());
    double T1 = estimateLatency(*S.Reference);
    if (T1 > 0)
      Speedups.push_back(T0 / T1);
  }
  return std::max(1.5, percentile(Speedups, 80.0));
}

} // namespace veriopt
