//===- BVExpr.cpp - Hash-consed bit-vector terms ------------------------------//

#include "smt/BVExpr.h"

#include "trace/Metrics.h"

#include <cassert>

namespace veriopt {

namespace {

/// Total-function constant semantics shared with the bit-blaster.
APInt64 foldUDiv(const APInt64 &A, const APInt64 &B) {
  if (B.isZero())
    return APInt64::allOnes(A.width()); // SMT-LIB bvudiv convention
  return A.udiv(B);
}

APInt64 foldURem(const APInt64 &A, const APInt64 &B) {
  if (B.isZero())
    return A; // SMT-LIB bvurem convention
  return A.urem(B);
}

} // namespace

const BVExpr *BVContext::intern(BVExpr E) {
  // Structural key: op|width|payload|operand pointers.
  std::string Key;
  Key.reserve(16 + E.Ops.size() * 8);
  auto put = [&Key](uint64_t V) {
    Key.append(reinterpret_cast<const char *>(&V), sizeof(V));
  };
  put(static_cast<uint64_t>(E.Op));
  put(E.Width);
  put(E.ConstVal.zext());
  put(E.VarId);
  put(E.Lo);
  for (const BVExpr *Op : E.Ops)
    put(reinterpret_cast<uint64_t>(Op));

  // CSE accounting: a hit means a structurally identical operator term
  // already exists in this context, so its circuit is shared instead of
  // re-emitted. Constant lookups are not sharing and never count as hits.
  // Totals are schedule-independent: they depend only on what was built,
  // not on order.
  static Counter &Hits = MetricsRegistry::global().counter("encode.cse_hits");
  static Counter &Misses =
      MetricsRegistry::global().counter("encode.cse_misses");

  auto It = Interned.find(Key);
  if (It != Interned.end()) {
    if (E.Op != BVOp::Const) {
      ++CseHits;
      Hits.inc();
    }
    return It->second;
  }
  Pool.push_back(std::move(E));
  const BVExpr *Out = &Pool.back();
  Interned.emplace(std::move(Key), Out);
  ++CseMisses;
  Misses.inc();
  return Out;
}

const BVExpr *BVContext::constant(APInt64 V) {
  BVExpr E;
  E.Op = BVOp::Const;
  E.Width = V.width();
  E.ConstVal = V;
  return intern(std::move(E));
}

const BVExpr *BVContext::var(unsigned Width, const std::string &Name) {
  BVExpr E;
  E.Op = BVOp::Var;
  E.Width = Width;
  E.VarId = static_cast<unsigned>(VarNames.size());
  VarNames.push_back(Name);
  return intern(std::move(E));
}

const BVExpr *BVContext::binary(BVOp Op, const BVExpr *A, const BVExpr *B,
                                unsigned Width) {
  BVExpr E;
  E.Op = Op;
  E.Width = Width;
  E.Ops = {A, B};
  return intern(std::move(E));
}

const BVExpr *BVContext::add(const BVExpr *A, const BVExpr *B) {
  assert(A->Width == B->Width && "width mismatch");
  if (A->isConst() && B->isConst())
    return constant(A->ConstVal.add(B->ConstVal));
  if (A->isConst(0))
    return B;
  if (B->isConst(0))
    return A;
  if (A->isConst())
    std::swap(A, B); // canonical: constant on the right
  // (x + c1) + c2 -> x + (c1+c2): mirrors the reference peephole pass so
  // that unchanged code normalizes to identical terms (proof by hashing).
  if (B->isConst() && A->Op == BVOp::Add && A->Ops[1]->isConst())
    return add(A->Ops[0], constant(A->Ops[1]->ConstVal.add(B->ConstVal)));
  return binary(BVOp::Add, A, B, A->Width);
}

const BVExpr *BVContext::sub(const BVExpr *A, const BVExpr *B) {
  assert(A->Width == B->Width && "width mismatch");
  if (A->isConst() && B->isConst())
    return constant(A->ConstVal.sub(B->ConstVal));
  if (B->isConst(0))
    return A;
  if (A == B)
    return constant(APInt64::zero(A->Width));
  if (A->isConst(0))
    return neg(B);
  // x - c -> x + (-c): canonical constant-add form.
  if (B->isConst())
    return add(A, constant(B->ConstVal.neg()));
  return binary(BVOp::Sub, A, B, A->Width);
}

const BVExpr *BVContext::mul(const BVExpr *A, const BVExpr *B) {
  assert(A->Width == B->Width && "width mismatch");
  if (A->isConst() && B->isConst())
    return constant(A->ConstVal.mul(B->ConstVal));
  if (A->isConst())
    std::swap(A, B);
  if (B->isConst(0))
    return B;
  if (B->isConst(1))
    return A;
  // (x * c1) * c2 -> x * (c1*c2).
  if (B->isConst() && A->Op == BVOp::Mul && A->Ops[1]->isConst())
    return mul(A->Ops[0], constant(A->Ops[1]->ConstVal.mul(B->ConstVal)));
  // x * 2^k -> x << k (strength reduction matching the reference pass;
  // also a far cheaper circuit).
  if (B->isConst() && B->ConstVal.isPowerOf2())
    return shl(A, constant(A->Width, B->ConstVal.exactLog2()));
  return binary(BVOp::Mul, A, B, A->Width);
}

const BVExpr *BVContext::udiv(const BVExpr *A, const BVExpr *B) {
  assert(A->Width == B->Width && "width mismatch");
  if (A->isConst() && B->isConst())
    return constant(foldUDiv(A->ConstVal, B->ConstVal));
  if (B->isConst(1))
    return A;
  // Division by a power of two is a logical shift: avoids the expensive
  // divider circuit for the most common strength-reduction verifications.
  if (B->isConst() && B->ConstVal.isPowerOf2())
    return lshr(A, constant(A->Width, B->ConstVal.exactLog2()));
  return binary(BVOp::UDiv, A, B, A->Width);
}

const BVExpr *BVContext::urem(const BVExpr *A, const BVExpr *B) {
  assert(A->Width == B->Width && "width mismatch");
  if (A->isConst() && B->isConst())
    return constant(foldURem(A->ConstVal, B->ConstVal));
  if (B->isConst(1))
    return constant(APInt64::zero(A->Width));
  // Remainder by a power of two is a mask.
  if (B->isConst() && B->ConstVal.isPowerOf2())
    return bvand(A, constant(B->ConstVal.sub(APInt64::one(A->Width))));
  return binary(BVOp::URem, A, B, A->Width);
}

const BVExpr *BVContext::sdiv(const BVExpr *A, const BVExpr *B) {
  // Derived construction (SMT-LIB definition): sign-adjusted udiv. The
  // div-by-zero / overflow corners inherit udiv's total semantics; the
  // verifier guards them as UB separately.
  unsigned W = A->Width;
  const BVExpr *Zero = constant(APInt64::zero(W));
  const BVExpr *ANeg = slt(A, Zero);
  const BVExpr *BNeg = slt(B, Zero);
  const BVExpr *AbsA = ite(ANeg, neg(A), A);
  const BVExpr *AbsB = ite(BNeg, neg(B), B);
  const BVExpr *Q = udiv(AbsA, AbsB);
  return ite(bvxor(ANeg, BNeg), neg(Q), Q);
}

const BVExpr *BVContext::srem(const BVExpr *A, const BVExpr *B) {
  unsigned W = A->Width;
  const BVExpr *Zero = constant(APInt64::zero(W));
  const BVExpr *ANeg = slt(A, Zero);
  const BVExpr *BNeg = slt(B, Zero);
  const BVExpr *AbsA = ite(ANeg, neg(A), A);
  const BVExpr *AbsB = ite(BNeg, neg(B), B);
  const BVExpr *R = urem(AbsA, AbsB);
  return ite(ANeg, neg(R), R);
}

const BVExpr *BVContext::shl(const BVExpr *A, const BVExpr *B) {
  assert(A->Width == B->Width && "width mismatch");
  if (A->isConst() && B->isConst())
    return constant(A->ConstVal.shl(B->ConstVal));
  if (B->isConst(0))
    return A;
  if (A->isConst(0))
    return A;
  // (x >>u c) << c -> x & (allones << c).
  if (B->isConst() && B->ConstVal.ult(APInt64(A->Width, A->Width)) &&
      A->Op == BVOp::LShr && A->Ops[1] == B)
    return bvand(A->Ops[0],
                 constant(APInt64::allOnes(A->Width).shl(B->ConstVal)));
  return binary(BVOp::Shl, A, B, A->Width);
}

const BVExpr *BVContext::lshr(const BVExpr *A, const BVExpr *B) {
  assert(A->Width == B->Width && "width mismatch");
  if (A->isConst() && B->isConst())
    return constant(A->ConstVal.lshr(B->ConstVal));
  if (B->isConst(0))
    return A;
  if (A->isConst(0))
    return A;
  // (x << c) >>u c -> x & (allones >> c), matching the peephole pass.
  if (B->isConst() && B->ConstVal.ult(APInt64(A->Width, A->Width)) &&
      A->Op == BVOp::Shl && A->Ops[1] == B)
    return bvand(A->Ops[0],
                 constant(APInt64::allOnes(A->Width).lshr(B->ConstVal)));
  return binary(BVOp::LShr, A, B, A->Width);
}

const BVExpr *BVContext::ashr(const BVExpr *A, const BVExpr *B) {
  assert(A->Width == B->Width && "width mismatch");
  if (A->isConst() && B->isConst())
    return constant(A->ConstVal.ashr(B->ConstVal));
  if (B->isConst(0))
    return A;
  if (A->isConst(0))
    return A;
  return binary(BVOp::AShr, A, B, A->Width);
}

const BVExpr *BVContext::bvand(const BVExpr *A, const BVExpr *B) {
  assert(A->Width == B->Width && "width mismatch");
  if (A->isConst() && B->isConst())
    return constant(A->ConstVal.andOp(B->ConstVal));
  if (A->isConst())
    std::swap(A, B);
  if (B->isConst(0))
    return B;
  if (B->isConst() && B->ConstVal.isAllOnes())
    return A;
  if (A == B)
    return A;
  if (B->isConst() && A->Op == BVOp::And && A->Ops[1]->isConst())
    return bvand(A->Ops[0],
                 constant(A->Ops[1]->ConstVal.andOp(B->ConstVal)));
  return binary(BVOp::And, A, B, A->Width);
}

const BVExpr *BVContext::bvor(const BVExpr *A, const BVExpr *B) {
  assert(A->Width == B->Width && "width mismatch");
  if (A->isConst() && B->isConst())
    return constant(A->ConstVal.orOp(B->ConstVal));
  if (A->isConst())
    std::swap(A, B);
  if (B->isConst(0))
    return A;
  if (B->isConst() && B->ConstVal.isAllOnes())
    return B;
  if (A == B)
    return A;
  if (B->isConst() && A->Op == BVOp::Or && A->Ops[1]->isConst())
    return bvor(A->Ops[0], constant(A->Ops[1]->ConstVal.orOp(B->ConstVal)));
  return binary(BVOp::Or, A, B, A->Width);
}

const BVExpr *BVContext::bvxor(const BVExpr *A, const BVExpr *B) {
  assert(A->Width == B->Width && "width mismatch");
  if (A->isConst() && B->isConst())
    return constant(A->ConstVal.xorOp(B->ConstVal));
  if (A->isConst())
    std::swap(A, B);
  if (B->isConst(0))
    return A;
  if (B->isConst() && B->ConstVal.isAllOnes())
    return bvnot(A);
  if (A == B)
    return constant(APInt64::zero(A->Width));
  // (x ^ y) ^ y -> x (covers the constant-pair case too).
  if (A->Op == BVOp::Xor) {
    if (A->Ops[0] == B)
      return A->Ops[1];
    if (A->Ops[1] == B)
      return A->Ops[0];
    if (B->isConst() && A->Ops[1]->isConst())
      return bvxor(A->Ops[0],
                   constant(A->Ops[1]->ConstVal.xorOp(B->ConstVal)));
  }
  return binary(BVOp::Xor, A, B, A->Width);
}

const BVExpr *BVContext::bvnot(const BVExpr *A) {
  if (A->isConst())
    return constant(A->ConstVal.notOp());
  if (A->Op == BVOp::Not)
    return A->Ops[0];
  BVExpr E;
  E.Op = BVOp::Not;
  E.Width = A->Width;
  E.Ops = {A};
  return intern(std::move(E));
}

const BVExpr *BVContext::neg(const BVExpr *A) {
  if (A->isConst())
    return constant(A->ConstVal.neg());
  if (A->Op == BVOp::Neg)
    return A->Ops[0];
  BVExpr E;
  E.Op = BVOp::Neg;
  E.Width = A->Width;
  E.Ops = {A};
  return intern(std::move(E));
}

const BVExpr *BVContext::zext(const BVExpr *A, unsigned NewWidth) {
  assert(NewWidth >= A->Width && "zext must widen");
  if (NewWidth == A->Width)
    return A;
  if (A->isConst())
    return constant(A->ConstVal.zextTo(NewWidth));
  BVExpr E;
  E.Op = BVOp::ZExt;
  E.Width = NewWidth;
  E.Ops = {A};
  return intern(std::move(E));
}

const BVExpr *BVContext::sext(const BVExpr *A, unsigned NewWidth) {
  assert(NewWidth >= A->Width && "sext must widen");
  if (NewWidth == A->Width)
    return A;
  if (A->isConst())
    return constant(A->ConstVal.sextTo(NewWidth));
  BVExpr E;
  E.Op = BVOp::SExt;
  E.Width = NewWidth;
  E.Ops = {A};
  return intern(std::move(E));
}

const BVExpr *BVContext::extract(const BVExpr *A, unsigned Lo,
                                 unsigned Width) {
  assert(Lo + Width <= A->Width && "extract out of range");
  if (Lo == 0 && Width == A->Width)
    return A;
  if (A->isConst())
    return constant(APInt64(Width, A->ConstVal.zext() >> Lo));
  // extract(extract(x)) composes.
  if (A->Op == BVOp::Extract)
    return extract(A->Ops[0], A->Lo + Lo, Width);
  // Extract confined to one side of a concat looks through it.
  if (A->Op == BVOp::Concat) {
    const BVExpr *Hi = A->Ops[0], *LoPart = A->Ops[1];
    if (Lo + Width <= LoPart->Width)
      return extract(LoPart, Lo, Width);
    if (Lo >= LoPart->Width)
      return extract(Hi, Lo - LoPart->Width, Width);
  }
  // Low extract of zext/sext looks through when confined to the source.
  if ((A->Op == BVOp::ZExt || A->Op == BVOp::SExt) &&
      Lo + Width <= A->Ops[0]->Width)
    return extract(A->Ops[0], Lo, Width);
  BVExpr E;
  E.Op = BVOp::Extract;
  E.Width = Width;
  E.Lo = Lo;
  E.Ops = {A};
  return intern(std::move(E));
}

const BVExpr *BVContext::concat(const BVExpr *Hi, const BVExpr *Lo) {
  assert(Hi->Width + Lo->Width <= 64 && "concat exceeds 64 bits");
  if (Hi->isConst() && Lo->isConst())
    return constant(APInt64(Hi->Width + Lo->Width,
                            (Hi->ConstVal.zext() << Lo->Width) |
                                Lo->ConstVal.zext()));
  // Adjacent extracts of the same base merge (store-then-load collapse).
  if (Hi->Op == BVOp::Extract && Lo->Op == BVOp::Extract &&
      Hi->Ops[0] == Lo->Ops[0] && Lo->Lo + Lo->Width == Hi->Lo)
    return extract(Hi->Ops[0], Lo->Lo, Lo->Width + Hi->Width);
  // Zero high part of an extract-from-bit-0 is a zext of the extract.
  if (Hi->isConst(0))
    return zext(Lo, Hi->Width + Lo->Width);
  BVExpr E;
  E.Op = BVOp::Concat;
  E.Width = Hi->Width + Lo->Width;
  E.Ops = {Hi, Lo};
  return intern(std::move(E));
}

const BVExpr *BVContext::eq(const BVExpr *A, const BVExpr *B) {
  assert(A->Width == B->Width && "width mismatch");
  if (A == B)
    return trueVal();
  if (A->isConst() && B->isConst())
    return boolVal(A->ConstVal == B->ConstVal);
  if (A->isConst())
    std::swap(A, B);
  if (A->Width == 1 && B->isConst())
    return B->ConstVal.isOne() ? A : bvnot(A);
  // Invertible ops against constants: (x ^ c1) == c2 -> x == c1^c2;
  // (x + c1) == c2 -> x == c2-c1 (mirrors the peephole pass).
  if (B->isConst()) {
    if (A->Op == BVOp::Xor && A->Ops[1]->isConst())
      return eq(A->Ops[0],
                constant(A->Ops[1]->ConstVal.xorOp(B->ConstVal)));
    if (A->Op == BVOp::Add && A->Ops[1]->isConst())
      return eq(A->Ops[0],
                constant(B->ConstVal.sub(A->Ops[1]->ConstVal)));
  }
  return binary(BVOp::Eq, A, B, 1);
}

const BVExpr *BVContext::ult(const BVExpr *A, const BVExpr *B) {
  assert(A->Width == B->Width && "width mismatch");
  if (A == B)
    return falseVal();
  if (A->isConst() && B->isConst())
    return boolVal(A->ConstVal.ult(B->ConstVal));
  if (B->isConst(0))
    return falseVal(); // nothing is below zero
  if (A->isConst() && A->ConstVal.isAllOnes())
    return falseVal(); // nothing is above all-ones
  return binary(BVOp::Ult, A, B, 1);
}

const BVExpr *BVContext::slt(const BVExpr *A, const BVExpr *B) {
  assert(A->Width == B->Width && "width mismatch");
  if (A == B)
    return falseVal();
  if (A->isConst() && B->isConst())
    return boolVal(A->ConstVal.slt(B->ConstVal));
  return binary(BVOp::Slt, A, B, 1);
}

const BVExpr *BVContext::ite(const BVExpr *C, const BVExpr *T,
                             const BVExpr *F) {
  assert(C->Width == 1 && "ite condition must be width 1");
  assert(T->Width == F->Width && "ite arm width mismatch");
  if (C->isTrue())
    return T;
  if (C->isFalse())
    return F;
  if (T == F)
    return T;
  // ite(!c, a, b) -> ite(c, b, a): canonical polarity so symbolic paths and
  // select-based encodings of the same diamond unify.
  if (C->Op == BVOp::Not)
    return ite(C->Ops[0], F, T);
  if (T->Width == 1) {
    if (T->isTrue() && F->isFalse())
      return C;
    if (T->isFalse() && F->isTrue())
      return bvnot(C);
    if (T->isTrue())
      return bvor(C, F);
    if (T->isFalse())
      return bvand(bvnot(C), F);
    if (F->isFalse())
      return bvand(C, T);
    if (F->isTrue())
      return bvor(bvnot(C), T);
  }
  BVExpr E;
  E.Op = BVOp::ITE;
  E.Width = T->Width;
  E.Ops = {C, T, F};
  return intern(std::move(E));
}

namespace {

/// The memoized rebuild behind BVContext::simplifyUnder. The memo starts
/// out holding the guard's conjuncts, so they rewrite to constants.
class GuardRewriter {
public:
  GuardRewriter(BVContext &C, const BVExpr *Guard) : C(C) { assume(Guard); }

  const BVExpr *rewrite(const BVExpr *E) {
    auto It = Memo.find(E);
    if (It != Memo.end())
      return It->second;
    const BVExpr *Out = rebuild(E);
    Memo.emplace(E, Out);
    return Out;
  }

private:
  void assume(const BVExpr *G) {
    if (G->Width == 1 && G->Op == BVOp::And) {
      assume(G->Ops[0]);
      assume(G->Ops[1]);
      return;
    }
    if (G->isConst())
      return;
    Memo[G] = C.trueVal();
    if (G->Op == BVOp::Not)
      Memo[G->Ops[0]] = C.falseVal();
  }

  const BVExpr *rebuild(const BVExpr *E) {
    if (E->Ops.empty())
      return E;
    if (E->Op == BVOp::ITE) {
      const BVExpr *Cond = rewrite(E->Ops[0]);
      if (Cond->isConst())
        return rewrite(E->Ops[Cond->isTrue() ? 1 : 2]);
    }
    std::vector<const BVExpr *> Ops;
    bool Changed = false;
    for (const BVExpr *Op : E->Ops) {
      Ops.push_back(rewrite(Op));
      Changed |= Ops.back() != Op;
    }
    if (!Changed)
      return E;
    switch (E->Op) {
    case BVOp::Const:
    case BVOp::Var:
      break;
    case BVOp::Not:
      return C.bvnot(Ops[0]);
    case BVOp::Neg:
      return C.neg(Ops[0]);
    case BVOp::Add:
      return C.add(Ops[0], Ops[1]);
    case BVOp::Sub:
      return C.sub(Ops[0], Ops[1]);
    case BVOp::Mul:
      return C.mul(Ops[0], Ops[1]);
    case BVOp::UDiv:
      return C.udiv(Ops[0], Ops[1]);
    case BVOp::SDiv:
      return C.sdiv(Ops[0], Ops[1]);
    case BVOp::URem:
      return C.urem(Ops[0], Ops[1]);
    case BVOp::SRem:
      return C.srem(Ops[0], Ops[1]);
    case BVOp::Shl:
      return C.shl(Ops[0], Ops[1]);
    case BVOp::LShr:
      return C.lshr(Ops[0], Ops[1]);
    case BVOp::AShr:
      return C.ashr(Ops[0], Ops[1]);
    case BVOp::And:
      return C.bvand(Ops[0], Ops[1]);
    case BVOp::Or:
      return C.bvor(Ops[0], Ops[1]);
    case BVOp::Xor:
      return C.bvxor(Ops[0], Ops[1]);
    case BVOp::Eq:
      return C.eq(Ops[0], Ops[1]);
    case BVOp::Ult:
      return C.ult(Ops[0], Ops[1]);
    case BVOp::Slt:
      return C.slt(Ops[0], Ops[1]);
    case BVOp::ITE:
      return C.ite(Ops[0], Ops[1], Ops[2]);
    case BVOp::ZExt:
      return C.zext(Ops[0], E->Width);
    case BVOp::SExt:
      return C.sext(Ops[0], E->Width);
    case BVOp::Extract:
      return C.extract(Ops[0], E->Lo, E->Width);
    case BVOp::Concat:
      return C.concat(Ops[0], Ops[1]);
    }
    assert(false && "leaf with operands");
    return E;
  }

  BVContext &C;
  std::unordered_map<const BVExpr *, const BVExpr *> Memo;
};

} // namespace

const BVExpr *BVContext::simplifyUnder(const BVExpr *E, const BVExpr *Guard) {
  assert(Guard->Width == 1 && "guard must be width 1");
  return GuardRewriter(*this, Guard).rewrite(E);
}

APInt64 BVContext::evaluate(
    const BVExpr *E,
    const std::unordered_map<unsigned, APInt64> &Model) const {
  std::unordered_map<const BVExpr *, APInt64> Memo;
  // Explicit stack to avoid deep recursion on long dependency chains.
  std::vector<const BVExpr *> Stack{E};
  while (!Stack.empty()) {
    const BVExpr *Cur = Stack.back();
    if (Memo.count(Cur)) {
      Stack.pop_back();
      continue;
    }
    bool Ready = true;
    for (const BVExpr *Op : Cur->Ops)
      if (!Memo.count(Op)) {
        Stack.push_back(Op);
        Ready = false;
      }
    if (!Ready)
      continue;
    Stack.pop_back();

    auto V = [&](unsigned I) { return Memo.at(Cur->Ops[I]); };
    APInt64 Out;
    switch (Cur->Op) {
    case BVOp::Const:
      Out = Cur->ConstVal;
      break;
    case BVOp::Var: {
      auto It = Model.find(Cur->VarId);
      Out = It == Model.end() ? APInt64::zero(Cur->Width) : It->second;
      assert(Out.width() == Cur->Width && "model width mismatch");
      break;
    }
    case BVOp::Not:
      Out = V(0).notOp();
      break;
    case BVOp::Neg:
      Out = V(0).neg();
      break;
    case BVOp::Add:
      Out = V(0).add(V(1));
      break;
    case BVOp::Sub:
      Out = V(0).sub(V(1));
      break;
    case BVOp::Mul:
      Out = V(0).mul(V(1));
      break;
    case BVOp::UDiv:
      Out = foldUDiv(V(0), V(1));
      break;
    case BVOp::URem:
      Out = foldURem(V(0), V(1));
      break;
    case BVOp::SDiv:
    case BVOp::SRem:
      assert(false && "sdiv/srem are derived terms and never interned");
      break;
    case BVOp::Shl:
      Out = V(0).shl(V(1));
      break;
    case BVOp::LShr:
      Out = V(0).lshr(V(1));
      break;
    case BVOp::AShr:
      Out = V(0).ashr(V(1));
      break;
    case BVOp::And:
      Out = V(0).andOp(V(1));
      break;
    case BVOp::Or:
      Out = V(0).orOp(V(1));
      break;
    case BVOp::Xor:
      Out = V(0).xorOp(V(1));
      break;
    case BVOp::Eq:
      Out = APInt64(1, V(0).eq(V(1)) ? 1 : 0);
      break;
    case BVOp::Ult:
      Out = APInt64(1, V(0).ult(V(1)) ? 1 : 0);
      break;
    case BVOp::Slt:
      Out = APInt64(1, V(0).slt(V(1)) ? 1 : 0);
      break;
    case BVOp::ITE:
      Out = V(0).isOne() ? V(1) : V(2);
      break;
    case BVOp::ZExt:
      Out = V(0).zextTo(Cur->Width);
      break;
    case BVOp::SExt:
      Out = V(0).sextTo(Cur->Width);
      break;
    case BVOp::Extract:
      Out = APInt64(Cur->Width, V(0).zext() >> Cur->Lo);
      break;
    case BVOp::Concat:
      Out = APInt64(Cur->Width,
                    (V(0).zext() << Cur->Ops[1]->Width) | V(1).zext());
      break;
    }
    Memo.emplace(Cur, Out);
  }
  return Memo.at(E);
}

} // namespace veriopt
