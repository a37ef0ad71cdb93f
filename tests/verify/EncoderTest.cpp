//===- EncoderTest.cpp - Symbolic-executor soundness properties ------------===//
//
// The verifier is only as sound as its encoder. These property tests pin
// the symbolic semantics against the concrete interpreter:
//  - differential: for random generated functions and random inputs, the
//    encoding evaluated at those inputs must agree with the interpreter on
//    the return value, poison flag, and UB;
//  - mutation soundness: corrupting a verified-equivalent pair must never
//    produce a false "Equivalent" when concrete execution disagrees.
//
//===----------------------------------------------------------------------===//

#include "verify/Encoder.h"

#include "data/MiniC.h"
#include "interp/Interpreter.h"
#include "ir/Printer.h"
#include "opt/Pass.h"
#include "verify/AliveLite.h"

#include <gtest/gtest.h>

namespace veriopt {
namespace {

class EncoderDifferential : public ::testing::TestWithParam<int> {};

TEST_P(EncoderDifferential, MatchesInterpreter) {
  uint64_t Seed = 5000 + GetParam();
  RNG R(Seed);
  auto MC = generateMiniC(R, "f");
  auto M = lowerToO0(*MC);
  Function *F = M->getMainFunction();

  BVContext Ctx;
  ExternalWorld World;
  std::vector<const BVExpr *> ArgVars;
  for (unsigned I = 0; I < F->getNumParams(); ++I)
    ArgVars.push_back(Ctx.var(F->getParamType(I)->getBitWidth(),
                              "a" + std::to_string(I)));
  EncodeLimits Limits;
  FnEncoding Enc = encodeFunction(*F, Ctx, ArgVars, World, Limits);
  ASSERT_FALSE(Enc.Unsupported) << Enc.UnsupportedWhy;

  RNG InputR(Seed ^ 0xBEEF);
  for (int Trial = 0; Trial < 10; ++Trial) {
    std::vector<APInt64> Args;
    std::unordered_map<unsigned, APInt64> Model;
    for (unsigned I = 0; I < F->getNumParams(); ++I) {
      APInt64 V(F->getParamType(I)->getBitWidth(), InputR.next());
      Args.push_back(V);
      Model[ArgVars[I]->VarId] = V;
    }
    ExecResult Concrete = interpret(*F, Args);
    if (Concrete.St == ExecResult::Timeout ||
        Concrete.St == ExecResult::Unsupported)
      continue;

    // Skip inputs outside the unroll bound.
    if (Ctx.evaluate(Enc.Truncated, Model).isOne())
      continue;

    bool SymUB = Ctx.evaluate(Enc.UB, Model).isOne();
    // External calls: the interpreter's synthetic world differs from the
    // all-zeros default valuation of the encoder's call variables, so only
    // call-free functions are compared on values. UB agreement still holds
    // when UB precedes any call.
    bool HasCalls = !Enc.Calls.empty();
    if (Concrete.St == ExecResult::UndefinedBehavior) {
      if (!HasCalls) {
        EXPECT_TRUE(SymUB)
            << "interpreter hit UB (" << Concrete.Reason
            << ") but the encoding claims defined, seed " << Seed << "\n"
            << printFunction(*F);
      }
      continue;
    }
    if (HasCalls)
      continue;
    EXPECT_FALSE(SymUB) << "encoding claims UB where the interpreter is "
                           "defined, seed "
                        << Seed;
    if (SymUB || F->getReturnType()->isVoid())
      continue;

    const BVExpr *Ret = Enc.returnTerm(Ctx);
    const BVExpr *Poison = Enc.returnPoison(Ctx);
    ASSERT_NE(Ret, nullptr);
    EXPECT_EQ(Ctx.evaluate(Poison, Model).isOne(), Concrete.RetPoison)
        << "poison flag mismatch, seed " << Seed;
    if (!Concrete.RetPoison) {
      EXPECT_EQ(Ctx.evaluate(Ret, Model), Concrete.RetVal)
          << "return value mismatch, seed " << Seed << " trial " << Trial
          << "\n"
          << printFunction(*F);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncoderDifferential, ::testing::Range(0, 30));

/// Mutation soundness: break a correct pair in a known-semantic way; the
/// verifier must never say Equivalent when the interpreter can already
/// tell the two apart.
class MutationSoundness : public ::testing::TestWithParam<int> {};

TEST_P(MutationSoundness, NoFalseEquivalence) {
  uint64_t Seed = 8000 + GetParam();
  RNG R(Seed);
  auto MC = generateMiniC(R, "f");
  auto M = lowerToO0(*MC);
  Function *Src = M->getMainFunction();
  auto Mutant = Src->clone();
  runReferencePipeline(*Mutant);

  // Mutate: flip the first icmp predicate, else perturb a constant.
  bool Mutated = false;
  for (auto &BB : *Mutant) {
    for (auto &I : *BB) {
      if (auto *C = dyn_cast<ICmpInst>(I.get())) {
        C->setPredicate(invertedPred(C->getPredicate()));
        Mutated = true;
        break;
      }
    }
    if (Mutated)
      break;
  }
  if (!Mutated) {
    for (auto &BB : *Mutant) {
      for (auto &I : *BB) {
        for (unsigned Op = 0; Op < I->getNumOperands(); ++Op)
          if (auto *C = dyn_cast<ConstantInt>(I->getOperand(Op))) {
            I->setOperand(
                Op, Mutant->getConstant(
                        C->getType(),
                        C->getValue().add(APInt64::one(
                            C->getValue().width()))));
            Mutated = true;
            break;
          }
        if (Mutated)
          break;
      }
      if (Mutated)
        break;
    }
  }
  if (!Mutated)
    GTEST_SKIP() << "nothing to mutate";

  // Does concrete execution distinguish them?
  bool ConcretelyDifferent = false;
  RNG InputR(Seed ^ 0xF00D);
  for (int Trial = 0; Trial < 40 && !ConcretelyDifferent; ++Trial) {
    std::vector<APInt64> Args;
    for (unsigned I = 0; I < Src->getNumParams(); ++I)
      Args.push_back(
          APInt64(Src->getParamType(I)->getBitWidth(), InputR.next()));
    auto A = interpret(*Src, Args);
    auto B = interpret(*Mutant, Args);
    if (A.St != ExecResult::Ok || A.RetPoison || B.St != ExecResult::Ok)
      continue;
    if (!A.IsVoid && !B.RetPoison && A.RetVal != B.RetVal)
      ConcretelyDifferent = true;
    if (B.RetPoison && !A.RetPoison)
      ConcretelyDifferent = true;
  }

  auto VR = verifyRefinement(*Src, *Mutant);
  if (ConcretelyDifferent) {
    EXPECT_NE(VR.Status, VerifyStatus::Equivalent)
        << "FALSE EQUIVALENCE on seed " << Seed << "\nsource:\n"
        << printFunction(*Src) << "mutant:\n"
        << printFunction(*Mutant);
  }
  // Either way, the verifier must return *something* coherent.
  EXPECT_NE(VR.Diagnostic, "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationSoundness, ::testing::Range(0, 25));

TEST(ExternalWorldTest, SharedReturnVariables) {
  BVContext Ctx;
  ExternalWorld W;
  const BVExpr *A = W.callReturn(Ctx, "foo", 0, 32);
  const BVExpr *B = W.callReturn(Ctx, "foo", 0, 32);
  const BVExpr *C = W.callReturn(Ctx, "foo", 1, 32);
  const BVExpr *D = W.callReturn(Ctx, "bar", 0, 32);
  EXPECT_EQ(A, B); // same callee+index: the same world
  EXPECT_NE(A, C);
  EXPECT_NE(A, D);
  EXPECT_EQ(W.vars().size(), 3u);
}

} // namespace
} // namespace veriopt
