//===- BVExpr.h - Hash-consed bit-vector terms -------------------*- C++ -*-=//
//
// The term language of the Alive-lite verifier: fixed-width bit-vectors
// (width 1 doubles as bool) with the operations LLVM integer IR needs.
// Terms are immutable, hash-consed within a BVContext, and constant-folded
// / locally simplified at construction, which substantially shrinks the
// formulas handed to the bit-blaster (an ablation bench quantifies this).
//
// Semantics must match both the interpreter and the bit-blaster exactly:
//  - shifts with amounts >= width yield 0 (ashr: sign fill),
//  - division is total here (div-by-zero yields all-ones / dividend, the
//    standard SMT-LIB convention); UB guards are asserted separately.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_SMT_BVEXPR_H
#define VERIOPT_SMT_BVEXPR_H

#include "support/APInt64.h"

#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

namespace veriopt {

enum class BVOp : unsigned {
  Const,
  Var,
  Not,
  Neg,
  Add,
  Sub,
  Mul,
  UDiv,
  SDiv,
  URem,
  SRem,
  Shl,
  LShr,
  AShr,
  And,
  Or,
  Xor,
  Eq,   // width-1 result
  Ult,  // width-1 result
  Slt,  // width-1 result
  ITE,  // ops: cond(1), then, else
  ZExt,
  SExt,
  Extract, // ops: src; Lo = low bit index
  Concat,  // ops: hi, lo; width = whi + wlo
};

/// An immutable, interned term. Identity comparison (pointer equality) is
/// semantic equality up to the constructor simplifications.
struct BVExpr {
  BVOp Op;
  unsigned Width;
  APInt64 ConstVal; // Const only
  unsigned VarId = 0;   // Var only
  unsigned Lo = 0;      // Extract only
  std::vector<const BVExpr *> Ops;

  bool isConst() const { return Op == BVOp::Const; }
  bool isConst(uint64_t V) const {
    return isConst() && ConstVal.zext() == V;
  }
  bool isTrue() const { return Width == 1 && isConst(1); }
  bool isFalse() const { return Width == 1 && isConst(0); }
};

/// Owns and interns terms; provides smart constructors with folding.
class BVContext {
public:
  BVContext() = default;
  BVContext(const BVContext &) = delete;
  BVContext &operator=(const BVContext &) = delete;

  //===--- Leaves ---------------------------------------------------------===//

  const BVExpr *constant(APInt64 V);
  const BVExpr *constant(unsigned Width, uint64_t Bits) {
    return constant(APInt64(Width, Bits));
  }
  const BVExpr *trueVal() { return constant(1, 1); }
  const BVExpr *falseVal() { return constant(1, 0); }
  const BVExpr *boolVal(bool B) { return constant(1, B ? 1 : 0); }

  /// Fresh symbolic variable with a diagnostic name.
  const BVExpr *var(unsigned Width, const std::string &Name);
  const std::string &varName(unsigned VarId) const { return VarNames[VarId]; }
  unsigned numVars() const { return static_cast<unsigned>(VarNames.size()); }

  //===--- Bit-vector operations ------------------------------------------===//

  const BVExpr *add(const BVExpr *A, const BVExpr *B);
  const BVExpr *sub(const BVExpr *A, const BVExpr *B);
  const BVExpr *mul(const BVExpr *A, const BVExpr *B);
  const BVExpr *udiv(const BVExpr *A, const BVExpr *B);
  const BVExpr *sdiv(const BVExpr *A, const BVExpr *B);
  const BVExpr *urem(const BVExpr *A, const BVExpr *B);
  const BVExpr *srem(const BVExpr *A, const BVExpr *B);
  const BVExpr *shl(const BVExpr *A, const BVExpr *B);
  const BVExpr *lshr(const BVExpr *A, const BVExpr *B);
  const BVExpr *ashr(const BVExpr *A, const BVExpr *B);
  const BVExpr *bvand(const BVExpr *A, const BVExpr *B);
  const BVExpr *bvor(const BVExpr *A, const BVExpr *B);
  const BVExpr *bvxor(const BVExpr *A, const BVExpr *B);
  const BVExpr *bvnot(const BVExpr *A);
  const BVExpr *neg(const BVExpr *A);

  const BVExpr *zext(const BVExpr *A, unsigned NewWidth);
  const BVExpr *sext(const BVExpr *A, unsigned NewWidth);
  const BVExpr *trunc(const BVExpr *A, unsigned NewWidth) {
    return extract(A, 0, NewWidth);
  }
  const BVExpr *extract(const BVExpr *A, unsigned Lo, unsigned Width);
  /// Hi bits above Lo bits.
  const BVExpr *concat(const BVExpr *Hi, const BVExpr *Lo);

  //===--- Predicates (width-1 results) -----------------------------------===//

  const BVExpr *eq(const BVExpr *A, const BVExpr *B);
  const BVExpr *ne(const BVExpr *A, const BVExpr *B) {
    return bvnot(eq(A, B));
  }
  const BVExpr *ult(const BVExpr *A, const BVExpr *B);
  const BVExpr *ule(const BVExpr *A, const BVExpr *B) {
    return bvnot(ult(B, A));
  }
  const BVExpr *ugt(const BVExpr *A, const BVExpr *B) { return ult(B, A); }
  const BVExpr *uge(const BVExpr *A, const BVExpr *B) { return ule(B, A); }
  const BVExpr *slt(const BVExpr *A, const BVExpr *B);
  const BVExpr *sle(const BVExpr *A, const BVExpr *B) {
    return bvnot(slt(B, A));
  }
  const BVExpr *sgt(const BVExpr *A, const BVExpr *B) { return slt(B, A); }
  const BVExpr *sge(const BVExpr *A, const BVExpr *B) { return sle(B, A); }

  //===--- Boolean structure (width-1 terms) ------------------------------===//

  const BVExpr *ite(const BVExpr *C, const BVExpr *T, const BVExpr *F);
  const BVExpr *and1(const BVExpr *A, const BVExpr *B) { return bvand(A, B); }
  const BVExpr *or1(const BVExpr *A, const BVExpr *B) { return bvor(A, B); }
  const BVExpr *not1(const BVExpr *A) { return bvnot(A); }
  const BVExpr *implies(const BVExpr *A, const BVExpr *B) {
    return or1(not1(A), B);
  }

  //===--- Rewriting ------------------------------------------------------===//

  /// \p E on the inputs where \p Guard holds: each width-1 conjunct of
  /// Guard becomes true (the operand of a negated conjunct false), an ite
  /// whose condition that decides keeps only its taken arm, and every other
  /// node is rebuilt through the constructors above. Terms that differ only
  /// in conditions the guard decides thereby hash-cons to one node. For
  /// every model M with evaluate(Guard, M) == 1,
  /// evaluate(simplifyUnder(E, Guard), M) == evaluate(E, M).
  const BVExpr *simplifyUnder(const BVExpr *E, const BVExpr *Guard);

  /// Number of distinct interned nodes (for the simplification ablation).
  size_t numNodes() const { return Pool.size(); }

  /// Hash-consing efficacy: operator-term requests that found an existing
  /// structurally identical node (constant lookups excluded) vs. interning
  /// requests that allocated a new node. When a group of candidates shares
  /// one context, cross-candidate hits measure how much of the encoding was
  /// emitted once and reused.
  uint64_t cseHits() const { return CseHits; }
  uint64_t cseMisses() const { return CseMisses; }

  /// Evaluate a term under a model (VarId -> value). Used to confirm SAT
  /// models and in differential tests against the bit-blaster.
  APInt64 evaluate(const BVExpr *E,
                   const std::unordered_map<unsigned, APInt64> &Model) const;

private:
  const BVExpr *intern(BVExpr E);
  const BVExpr *binary(BVOp Op, const BVExpr *A, const BVExpr *B,
                       unsigned Width);

  std::deque<BVExpr> Pool;
  std::unordered_map<std::string, const BVExpr *> Interned;
  std::vector<std::string> VarNames;
  uint64_t CseHits = 0;
  uint64_t CseMisses = 0;
};

} // namespace veriopt

#endif // VERIOPT_SMT_BVEXPR_H
