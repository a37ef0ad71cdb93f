//===- BVExprTest.cpp - Term construction, folding, evaluation ------------===//

#include "smt/BVExpr.h"

#include "support/RNG.h"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <memory>
#include <sstream>

namespace veriopt {
namespace {

TEST(BVExpr, HashConsing) {
  BVContext C;
  const BVExpr *X = C.var(32, "x");
  const BVExpr *Y = C.var(32, "y");
  EXPECT_EQ(C.add(X, Y), C.add(X, Y));
  EXPECT_NE(C.add(X, Y), C.add(Y, X)); // add is not canonicalized over vars
  EXPECT_EQ(C.constant(32, 5), C.constant(32, 5));
}

TEST(BVExpr, ConstantFolding) {
  BVContext C;
  EXPECT_TRUE(C.add(C.constant(32, 2), C.constant(32, 3))->isConst(5));
  EXPECT_TRUE(C.mul(C.constant(8, 16), C.constant(8, 16))->isConst(0));
  EXPECT_TRUE(C.eq(C.constant(16, 7), C.constant(16, 7))->isTrue());
  EXPECT_TRUE(C.ult(C.constant(8, 200), C.constant(8, 100))->isFalse());
  EXPECT_TRUE(
      C.slt(C.constant(8, 200), C.constant(8, 100))->isTrue()); // -56 < 100
}

TEST(BVExpr, IdentitySimplifications) {
  BVContext C;
  const BVExpr *X = C.var(32, "x");
  const BVExpr *Zero = C.constant(32, 0);
  EXPECT_EQ(C.add(X, Zero), X);
  EXPECT_EQ(C.sub(X, Zero), X);
  EXPECT_TRUE(C.sub(X, X)->isConst(0));
  EXPECT_TRUE(C.mul(X, Zero)->isConst(0));
  EXPECT_EQ(C.mul(X, C.constant(32, 1)), X);
  EXPECT_TRUE(C.bvxor(X, X)->isConst(0));
  EXPECT_EQ(C.bvand(X, X), X);
  EXPECT_EQ(C.bvnot(C.bvnot(X)), X);
  EXPECT_EQ(C.neg(C.neg(X)), X);
  EXPECT_TRUE(C.eq(X, X)->isTrue());
  EXPECT_TRUE(C.ult(X, X)->isFalse());
  EXPECT_TRUE(C.ult(X, Zero)->isFalse());
  EXPECT_EQ(C.shl(X, Zero), X);
}

TEST(BVExpr, BooleanIteSimplifications) {
  BVContext C;
  const BVExpr *P = C.var(1, "p");
  const BVExpr *X = C.var(32, "x");
  const BVExpr *Y = C.var(32, "y");
  EXPECT_EQ(C.ite(C.trueVal(), X, Y), X);
  EXPECT_EQ(C.ite(C.falseVal(), X, Y), Y);
  EXPECT_EQ(C.ite(P, X, X), X);
  EXPECT_EQ(C.ite(P, C.trueVal(), C.falseVal()), P);
  EXPECT_EQ(C.ite(P, C.falseVal(), C.trueVal()), C.bvnot(P));
}

TEST(BVExpr, ExtractConcatCollapse) {
  BVContext C;
  const BVExpr *X = C.var(64, "x");
  // Store-then-load shape: split a 64-bit value into bytes, reconcatenate.
  std::vector<const BVExpr *> Bytes;
  for (unsigned B = 0; B < 8; ++B)
    Bytes.push_back(C.extract(X, B * 8, 8));
  const BVExpr *Whole = Bytes[7];
  for (int B = 6; B >= 0; --B)
    Whole = C.concat(Whole, Bytes[B]);
  EXPECT_EQ(Whole, X) << "byte split+merge must collapse to the source";
}

TEST(BVExpr, ExtractThroughZext) {
  BVContext C;
  const BVExpr *X = C.var(16, "x");
  const BVExpr *Wide = C.zext(X, 64);
  EXPECT_EQ(C.extract(Wide, 0, 16), X);
  EXPECT_EQ(C.trunc(Wide, 16), X);
}

TEST(BVExpr, EvaluateMatchesAPIntSemantics) {
  BVContext C;
  RNG R(77);
  const BVExpr *X = C.var(32, "x");
  const BVExpr *Y = C.var(32, "y");
  for (int Trial = 0; Trial < 200; ++Trial) {
    APInt64 XV(32, R.next()), YV(32, R.next());
    std::unordered_map<unsigned, APInt64> M = {{X->VarId, XV},
                                               {Y->VarId, YV}};
    EXPECT_EQ(C.evaluate(C.add(X, Y), M), XV.add(YV));
    EXPECT_EQ(C.evaluate(C.bvxor(X, Y), M), XV.xorOp(YV));
    EXPECT_EQ(C.evaluate(C.shl(X, Y), M), XV.shl(YV));
    EXPECT_EQ(C.evaluate(C.ashr(X, Y), M), XV.ashr(YV));
    if (!YV.isZero()) {
      EXPECT_EQ(C.evaluate(C.udiv(X, Y), M), XV.udiv(YV));
      if (!(XV.isSignedMin() && YV.isAllOnes()))
        EXPECT_EQ(C.evaluate(C.sdiv(X, Y), M), XV.sdiv(YV));
    }
    EXPECT_EQ(C.evaluate(C.slt(X, Y), M).isOne(), XV.slt(YV));
  }
}

TEST(BVExpr, SdivByZeroMatchesSMTLib) {
  BVContext C;
  std::unordered_map<unsigned, APInt64> M;
  const BVExpr *X = C.var(8, "x");
  M[X->VarId] = APInt64(8, 10);
  // bvudiv by 0 = all ones; bvurem by 0 = dividend.
  EXPECT_TRUE(C.evaluate(C.udiv(X, C.constant(8, 0)), M).isAllOnes());
  EXPECT_EQ(C.evaluate(C.urem(X, C.constant(8, 0)), M).zext(), 10u);
}

TEST(BVExpr, NodeCountReflectsSharing) {
  BVContext C;
  const BVExpr *X = C.var(32, "x");
  size_t Before = C.numNodes();
  const BVExpr *S1 = C.add(X, C.constant(32, 1));
  const BVExpr *S2 = C.add(X, C.constant(32, 1));
  EXPECT_EQ(S1, S2);
  EXPECT_EQ(C.numNodes(), Before + 2); // the constant + one add node
}

//===--- Fold soundness ---------------------------------------------------===//
//
// Every constructor fold must preserve value. Random terms are built twice:
// through the BVContext constructors (folded, hash-consed) and as a plain
// tree of the requested operations. Under random models, evaluate() on the
// folded term must equal a reference evaluator that walks the unfolded tree
// with APInt64 ops and the SMT-LIB conventions the header documents. The
// generator leans on what the folds look for: the constants 0, 1, all-ones
// and powers of two, `x op x`, nested constants, and ite on constants.

/// One requested operation, before any fold.
struct RefTerm {
  BVOp Op;
  unsigned Width;
  APInt64 Val;        ///< Const
  unsigned VarId = 0; ///< Var
  unsigned Lo = 0;    ///< Extract
  std::vector<std::shared_ptr<const RefTerm>> Ops;
};
using RefPtr = std::shared_ptr<const RefTerm>;

APInt64 refUDiv(const APInt64 &A, const APInt64 &B) {
  return B.isZero() ? APInt64::allOnes(A.width()) : A.udiv(B);
}
APInt64 refURem(const APInt64 &A, const APInt64 &B) {
  return B.isZero() ? A : A.urem(B);
}

APInt64 refEval(const RefTerm &T,
                const std::unordered_map<unsigned, APInt64> &Model) {
  auto V = [&](unsigned I) { return refEval(*T.Ops[I], Model); };
  auto Bool = [](bool B) { return APInt64(1, B ? 1 : 0); };
  switch (T.Op) {
  case BVOp::Const:
    return T.Val;
  case BVOp::Var:
    return Model.at(T.VarId);
  case BVOp::Not:
    return V(0).notOp();
  case BVOp::Neg:
    return V(0).neg();
  case BVOp::Add:
    return V(0).add(V(1));
  case BVOp::Sub:
    return V(0).sub(V(1));
  case BVOp::Mul:
    return V(0).mul(V(1));
  case BVOp::UDiv:
    return refUDiv(V(0), V(1));
  case BVOp::URem:
    return refURem(V(0), V(1));
  case BVOp::SDiv: { // bvsdiv: the quotient of magnitudes, sign-adjusted
    APInt64 A = V(0), B = V(1);
    APInt64 Q = refUDiv(A.isNegative() ? A.neg() : A,
                        B.isNegative() ? B.neg() : B);
    return A.isNegative() != B.isNegative() ? Q.neg() : Q;
  }
  case BVOp::SRem: { // bvsrem: the sign follows the dividend
    APInt64 A = V(0), B = V(1);
    APInt64 R = refURem(A.isNegative() ? A.neg() : A,
                        B.isNegative() ? B.neg() : B);
    return A.isNegative() ? R.neg() : R;
  }
  case BVOp::Shl:
    return V(0).shl(V(1));
  case BVOp::LShr:
    return V(0).lshr(V(1));
  case BVOp::AShr:
    return V(0).ashr(V(1));
  case BVOp::And:
    return V(0).andOp(V(1));
  case BVOp::Or:
    return V(0).orOp(V(1));
  case BVOp::Xor:
    return V(0).xorOp(V(1));
  case BVOp::Eq:
    return Bool(V(0).eq(V(1)));
  case BVOp::Ult:
    return Bool(V(0).ult(V(1)));
  case BVOp::Slt:
    return Bool(V(0).slt(V(1)));
  case BVOp::ITE:
    return V(0).isOne() ? V(1) : V(2);
  case BVOp::ZExt:
    return V(0).zextTo(T.Width);
  case BVOp::SExt:
    return V(0).sextTo(T.Width);
  case BVOp::Extract:
    return APInt64(T.Width, V(0).zext() >> T.Lo);
  case BVOp::Concat:
    return APInt64(T.Width, (V(0).zext() << T.Ops[1]->Width) | V(1).zext());
  }
  return APInt64();
}

std::string show(const RefTerm &T) {
  static const char *Names[] = {
      "const", "var", "not",  "neg",  "add", "sub", "mul",  "udiv", "sdiv",
      "urem",  "srem", "shl", "lshr", "ashr", "and", "or", "xor",  "eq",
      "ult",   "slt", "ite",  "zext", "sext", "extract", "concat"};
  std::ostringstream OS;
  if (T.Op == BVOp::Const)
    return "i" + std::to_string(T.Width) + ":" + std::to_string(T.Val.zext());
  if (T.Op == BVOp::Var)
    return "v" + std::to_string(T.VarId) + ":i" + std::to_string(T.Width);
  OS << "(" << Names[static_cast<unsigned>(T.Op)];
  if (T.Op == BVOp::Extract)
    OS << "@" << T.Lo;
  if (T.Op == BVOp::ZExt || T.Op == BVOp::SExt || T.Op == BVOp::Extract)
    OS << ":i" << T.Width;
  for (const RefPtr &Op : T.Ops)
    OS << " " << show(*Op);
  return OS.str() + ")";
}

/// Builds each random term both ways at once.
class FoldFuzzer {
public:
  struct Term {
    RefPtr Ref;
    const BVExpr *Folded;
  };

  FoldFuzzer(BVContext &C, RNG &R) : C(C), R(R) {}

  Term gen(unsigned W, unsigned Depth) {
    if (Depth == 0 || R.below(4) == 0)
      return leaf(W);
    switch (R.below(W == 1 ? 10 : 8)) {
    case 0:
    case 1:
    case 2:
      return binary(W, Depth);
    case 3:
      return shift(W, Depth);
    case 4: {
      Term A = gen(W, Depth - 1);
      return R.below(2) ? make(BVOp::Not, W, C.bvnot(A.Folded), {A})
                        : make(BVOp::Neg, W, C.neg(A.Folded), {A});
    }
    case 5: {
      Term Cond = gen(1, Depth - 1), T = gen(W, Depth - 1);
      Term F = R.below(4) == 0 ? T : gen(W, Depth - 1);
      return make(BVOp::ITE, W, C.ite(Cond.Folded, T.Folded, F.Folded),
                  {Cond, T, F});
    }
    case 6:
      return resize(W, Depth);
    case 7:
      return W > 1 ? concat(W, Depth) : resize(W, Depth);
    default:
      return compare(Depth);
    }
  }

  /// A model for every variable created so far, biased to corner values.
  std::unordered_map<unsigned, APInt64> model() {
    std::unordered_map<unsigned, APInt64> M;
    for (const BVExpr *V : Vars)
      M[V->VarId] = corner(V->Width);
    return M;
  }

private:
  Term make(BVOp Op, unsigned W, const BVExpr *Folded,
            std::vector<Term> Ops, unsigned Lo = 0) {
    auto T = std::make_shared<RefTerm>();
    T->Op = Op;
    T->Width = W;
    T->Lo = Lo;
    for (const Term &O : Ops)
      T->Ops.push_back(O.Ref);
    return {T, Folded};
  }

  APInt64 corner(unsigned W) {
    switch (R.below(7)) {
    case 0:
      return APInt64::zero(W);
    case 1:
      return APInt64::one(W);
    case 2:
      return APInt64::allOnes(W);
    case 3:
      return APInt64::signedMin(W);
    case 4:
      return APInt64(W, 1ULL << R.below(W)); // a power of two
    case 5:
      return APInt64(W, R.below(8));
    default:
      return APInt64(W, R.next());
    }
  }

  Term leaf(unsigned W) {
    if (R.below(3))
      return constant(corner(W));
    // Two variables per width, so `x op x` is common.
    const unsigned Slot = static_cast<unsigned>(R.below(2));
    const BVExpr *&V = VarSlots[{W, Slot}];
    if (!V) {
      V = C.var(W, "v" + std::to_string(Vars.size()));
      Vars.push_back(V);
    }
    auto T = std::make_shared<RefTerm>();
    T->Op = BVOp::Var;
    T->Width = W;
    T->VarId = V->VarId;
    return {T, V};
  }

  Term constant(APInt64 V) {
    auto T = std::make_shared<RefTerm>();
    T->Op = BVOp::Const;
    T->Width = V.width();
    T->Val = V;
    return {T, C.constant(V)};
  }

  /// `x op K` for a fresh x and constant K: the inner half of the nested
  /// constant folds.
  Term withConstant(BVOp Op, unsigned W, unsigned Depth, Term K) {
    Term X = gen(W, Depth - 1);
    return make(Op, W, fold(Op, X.Folded, K.Folded), {X, K});
  }

  Term binary(unsigned W, unsigned Depth) {
    static const BVOp Ops[] = {BVOp::Add,  BVOp::Sub,  BVOp::Mul,
                               BVOp::UDiv, BVOp::SDiv, BVOp::URem,
                               BVOp::SRem, BVOp::And,  BVOp::Or,
                               BVOp::Xor};
    const BVOp Op = Ops[R.below(std::size(Ops))];
    if (R.below(4) == 0) { // (x op c1) op c2
      Term A = withConstant(Op, W, Depth, constant(corner(W)));
      Term B = constant(corner(W));
      return make(Op, W, fold(Op, A.Folded, B.Folded), {A, B});
    }
    Term A = gen(W, Depth - 1);
    Term B = R.below(5) == 0 ? A : gen(W, Depth - 1);
    return make(Op, W, fold(Op, A.Folded, B.Folded), {A, B});
  }

  /// Shifts by a small constant half the time; then, a third of the time,
  /// of a term shifted the other way by the same (interned) amount, which
  /// is what the constructors' mask folds look for.
  Term shift(unsigned W, unsigned Depth) {
    static const BVOp Ops[] = {BVOp::Shl, BVOp::LShr, BVOp::AShr};
    const BVOp Op = Ops[R.below(3)];
    if (R.below(2)) {
      const uint64_t Amounts[] = {0, 1, 2, 3, W - 1u, W};
      Term B = constant(APInt64(W, Amounts[R.below(6)]));
      Term A = R.below(3) == 0
                   ? withConstant(Op == BVOp::Shl ? BVOp::LShr : BVOp::Shl,
                                  W, Depth, B)
                   : gen(W, Depth - 1);
      return make(Op, W, fold(Op, A.Folded, B.Folded), {A, B});
    }
    Term A = gen(W, Depth - 1), B = gen(W, Depth - 1);
    return make(Op, W, fold(Op, A.Folded, B.Folded), {A, B});
  }

  Term resize(unsigned W, unsigned Depth) {
    if (W > 1 && R.below(2)) { // widen a narrower term
      const unsigned From = 1 + static_cast<unsigned>(R.below(W - 1));
      Term A = gen(From, Depth - 1);
      return R.below(2) ? make(BVOp::ZExt, W, C.zext(A.Folded, W), {A})
                        : make(BVOp::SExt, W, C.sext(A.Folded, W), {A});
    }
    if (W == 64)
      return gen(W, Depth - 1);
    // Extract from a wider term, often one built by zext, sext or concat.
    const unsigned From = W + 1 + static_cast<unsigned>(R.below(64 - W));
    const unsigned Lo = static_cast<unsigned>(R.below(From - W + 1));
    Term A = gen(From, Depth - 1);
    return make(BVOp::Extract, W, C.extract(A.Folded, Lo, W), {A}, Lo);
  }

  Term concat(unsigned W, unsigned Depth) {
    const unsigned LoW = 1 + static_cast<unsigned>(R.below(W - 1));
    Term Hi = gen(W - LoW, Depth - 1), Lo = gen(LoW, Depth - 1);
    return make(BVOp::Concat, W, C.concat(Hi.Folded, Lo.Folded), {Hi, Lo});
  }

  Term compare(unsigned Depth) {
    static const unsigned Widths[] = {1, 8, 16, 32, 64};
    static const BVOp Ops[] = {BVOp::Eq, BVOp::Ult, BVOp::Slt};
    const unsigned W = Widths[R.below(5)];
    const BVOp Op = Ops[R.below(3)];
    if (R.below(4) == 0) { // (x + c1) == c2 and (x ^ c1) == c2
      Term A = withConstant(R.below(2) ? BVOp::Add : BVOp::Xor, W, Depth,
                            constant(corner(W)));
      Term B = constant(corner(W));
      return make(Op, 1, fold(Op, A.Folded, B.Folded), {A, B});
    }
    Term A = gen(W, Depth - 1);
    Term B = R.below(5) == 0 ? A : gen(W, Depth - 1);
    return make(Op, 1, fold(Op, A.Folded, B.Folded), {A, B});
  }

  const BVExpr *fold(BVOp Op, const BVExpr *A, const BVExpr *B) {
    switch (Op) {
    case BVOp::Add:
      return C.add(A, B);
    case BVOp::Sub:
      return C.sub(A, B);
    case BVOp::Mul:
      return C.mul(A, B);
    case BVOp::UDiv:
      return C.udiv(A, B);
    case BVOp::SDiv:
      return C.sdiv(A, B);
    case BVOp::URem:
      return C.urem(A, B);
    case BVOp::SRem:
      return C.srem(A, B);
    case BVOp::Shl:
      return C.shl(A, B);
    case BVOp::LShr:
      return C.lshr(A, B);
    case BVOp::AShr:
      return C.ashr(A, B);
    case BVOp::And:
      return C.bvand(A, B);
    case BVOp::Or:
      return C.bvor(A, B);
    case BVOp::Xor:
      return C.bvxor(A, B);
    case BVOp::Eq:
      return C.eq(A, B);
    case BVOp::Ult:
      return C.ult(A, B);
    default:
      return C.slt(A, B);
    }
  }

  BVContext &C;
  RNG &R;
  std::map<std::pair<unsigned, unsigned>, const BVExpr *> VarSlots;
  std::vector<const BVExpr *> Vars;
};

TEST(BVExpr, ConstructorFoldsPreserveValue) {
  for (unsigned W : {1u, 8u, 16u, 32u, 64u}) {
    BVContext C;
    RNG R(0xF01D + W);
    FoldFuzzer Fuzz(C, R);
    unsigned Failures = 0;
    for (int Trial = 0; Trial < 1000 && Failures < 5; ++Trial) {
      FoldFuzzer::Term T = Fuzz.gen(W, 4);
      for (int M = 0; M < 6; ++M) {
        auto Model = Fuzz.model();
        APInt64 Want = refEval(*T.Ref, Model);
        APInt64 Got = C.evaluate(T.Folded, Model);
        if (Got == Want)
          continue;
        ++Failures;
        ADD_FAILURE() << "fold changed the value of " << show(*T.Ref)
                      << ": got " << Got.zext() << ", want " << Want.zext();
        break;
      }
    }
  }
}

} // namespace
} // namespace veriopt
