//===- InstCombine.cpp - Peephole optimizer (reference pass) ------------------//
//
// The stand-in for LLVM's -instcombine: a worklist-driven peephole engine.
// Rules fall into three tiers:
//  - simplify: the instruction equals an existing value (RAUW + erase),
//  - combine: the instruction is replaced by a cheaper new instruction,
//  - memory: block-local store-to-load forwarding / load CSE / dead-store
//    elimination (safe because no pointer ever escapes in the dialect:
//    calls take integer arguments only; pointer-taking calls pessimize).
//
// Every fired rule is recorded by name into the PassTrace — these names are
// the oracle action vocabulary the SFT/GRPO stages learn over.
//
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

#include "trace/Metrics.h"

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>

namespace veriopt {

namespace {

/// Constant match helper.
bool matchConst(Value *V, APInt64 &Out) {
  if (auto *C = dyn_cast<ConstantInt>(V)) {
    Out = C->getValue();
    return true;
  }
  return false;
}

/// Resolve a pointer to (alloca, constant byte offset) when possible.
std::optional<std::pair<AllocaInst *, int64_t>> resolvePtr(Value *P) {
  int64_t Offset = 0;
  while (true) {
    if (auto *A = dyn_cast<AllocaInst>(P))
      return std::make_pair(A, Offset);
    auto *G = dyn_cast<GEPInst>(P);
    if (!G)
      return std::nullopt;
    auto *C = dyn_cast<ConstantInt>(G->getOffset());
    if (!C)
      return std::nullopt;
    Offset += C->getValue().sext();
    P = G->getPointer();
  }
}

/// Byte ranges overlap?
bool rangesOverlap(int64_t AOff, unsigned ASize, int64_t BOff,
                   unsigned BSize) {
  return AOff < BOff + static_cast<int64_t>(BSize) &&
         BOff < AOff + static_cast<int64_t>(ASize);
}

/// Bulk-publish one run's rule-fire tallies to the per-rule process-wide
/// counters. Aggregating locally first keeps the per-fire hot path to one
/// map bump.
void flushRuleFires(const std::map<const char *, uint64_t> &Fires) {
  MetricsRegistry &M = MetricsRegistry::global();
  for (const auto &[Rule, N] : Fires)
    M.counter(std::string("opt.rule_fire.") + Rule).inc(N);
}

class InstCombine : public Pass {
public:
  explicit InstCombine(unsigned CatMask) : CatMask(CatMask) {}

  const char *name() const override { return "instcombine"; }

  bool run(Function &F, PassTrace *Trace) override {
    this->F = &F;
    this->Trace = Trace;
    Changed = false;

    // Memory rules first: they expose values the scalar rules can fold.
    if (on(RuleCat::Memory))
      for (auto &BB : F) {
        forwardMemory(*BB.get());
        eliminateDeadStores(*BB.get());
      }

    // Scalar worklist.
    Worklist.clear();
    InWorklist.clear();
    for (auto &BB : F)
      for (auto &I : *BB)
        push(I.get());
    while (!Worklist.empty()) {
      Instruction *I = Worklist.front();
      Worklist.pop_front();
      InWorklist.erase(I);
      if (Erased.count(I))
        continue;
      visit(I);
    }

    // DCE sweep: instcombine leaves no trivially dead code behind.
    Changed |= removeDeadCode(F, Trace);
    Erased.clear();
    flushRuleFires(RuleFires);
    RuleFires.clear();
    return Changed;
  }

  /// Shared with the standalone DCE pass.
  static bool removeDeadCode(Function &F, PassTrace *Trace) {
    bool Any = false;
    uint64_t DceFires = 0;
    bool LocalChanged = true;
    while (LocalChanged) {
      LocalChanged = false;
      for (auto &BB : F) {
        std::vector<Instruction *> Dead;
        for (auto &I : *BB)
          if (!I->hasUses() && !I->mayHaveSideEffects() &&
              !I->getType()->isVoid())
            Dead.push_back(I.get());
        for (Instruction *I : Dead) {
          BB->erase(I);
          if (Trace)
            Trace->record("dce");
          ++DceFires;
          LocalChanged = true;
          Any = true;
        }
      }
    }
    if (DceFires) {
      static const char DceRule[] = "dce";
      flushRuleFires({{DceRule, DceFires}});
    }
    return Any;
  }

private:
  void push(Instruction *I) {
    if (InWorklist.insert(I).second)
      Worklist.push_back(I);
  }

  void pushUsers(Value *V) {
    for (Instruction *U : V->users())
      push(U);
  }

  void record(const char *Rule) {
    if (Trace)
      Trace->record(Rule);
    ++RuleFires[Rule]; // keyed by literal identity; flushed at end of run()
    Changed = true;
  }

  /// Replace \p I with existing value \p V and erase it.
  void replaceWith(Instruction *I, Value *V, const char *Rule) {
    assert(V != I && "self-replacement");
    pushUsers(I);
    push(I); // no-op safeguard; erased below
    I->replaceAllUsesWith(V);
    if (auto *VI = dyn_cast<Instruction>(V))
      push(VI);
    I->getParent()->erase(I);
    Erased.insert(I);
    record(Rule);
  }

  /// Insert \p New before \p I, transfer uses, erase \p I.
  void replaceWithNew(Instruction *I, std::unique_ptr<Instruction> New,
                      const char *Rule) {
    Instruction *Placed = I->getParent()->insertBefore(I, std::move(New));
    Placed->setName(I->getName());
    pushUsers(I);
    I->replaceAllUsesWith(Placed);
    I->getParent()->erase(I);
    Erased.insert(I);
    push(Placed);
    record(Rule);
  }

  ConstantInt *getConst(Type *Ty, APInt64 V) { return F->getConstant(Ty, V); }
  ConstantInt *getInt(Type *Ty, uint64_t Bits) {
    return getConst(Ty, APInt64(Ty->getBitWidth(), Bits));
  }

  void visit(Instruction *I) {
    switch (I->getOpcode()) {
    case Opcode::ICmp:
      visitICmp(cast<ICmpInst>(I));
      return;
    case Opcode::Select:
      visitSelect(cast<SelectInst>(I));
      return;
    case Opcode::ZExt:
    case Opcode::SExt:
    case Opcode::Trunc:
      visitCast(cast<CastInst>(I));
      return;
    case Opcode::Phi:
      visitPhi(cast<PhiInst>(I));
      return;
    case Opcode::GEP:
      visitGEP(cast<GEPInst>(I));
      return;
    default:
      if (I->isBinaryOp())
        visitBinary(cast<BinaryInst>(I));
      return;
    }
  }

  //===--- Binary operators -----------------------------------------------===//

  void visitBinary(BinaryInst *I) {
    Value *L = I->getLHS(), *R = I->getRHS();
    Type *Ty = I->getType();
    unsigned W = Ty->getBitWidth();
    APInt64 LC, RC;
    bool LIsC = matchConst(L, LC), RIsC = matchConst(R, RC);
    Opcode Op = I->getOpcode();

    // Canonicalize: constant operand of a commutative op goes right.
    if (LIsC && !RIsC && I->isCommutative()) {
      I->setOperand(0, R);
      I->setOperand(1, L);
      std::swap(L, R);
      std::swap(LC, RC);
      std::swap(LIsC, RIsC);
      record("commute-const-rhs");
    }

    // Constant folding (skipping UB corners, which stay as-is).
    if (LIsC && RIsC && on(RuleCat::ConstFold)) {
      if (auto Folded = foldBinary(Op, LC, RC)) {
        replaceWith(I, getConst(Ty, *Folded), "const-fold");
        return;
      }
    }

    switch (Op) {
    case Opcode::Add: {
      if (!on(RuleCat::Algebraic))
        break;
      if (RIsC && RC.isZero())
        return replaceWith(I, L, "add-zero");
      if (L == R)
        return replaceWithNew(
            I, std::make_unique<BinaryInst>(Opcode::Shl, L, getInt(Ty, 1)),
            "add-self-to-shl");
      // add(sub(a, b), b) -> a  /  add(b, sub(a, b)) -> a
      if (auto *Sub = dyn_cast<BinaryInst>(L))
        if (Sub->getOpcode() == Opcode::Sub && !Sub->hasNSW() &&
            !Sub->hasNUW() && Sub->getRHS() == R)
          return replaceWith(I, Sub->getLHS(), "add-sub-cancel");
      if (auto *Sub = dyn_cast<BinaryInst>(R))
        if (Sub->getOpcode() == Opcode::Sub && !Sub->hasNSW() &&
            !Sub->hasNUW() && Sub->getRHS() == L)
          return replaceWith(I, Sub->getLHS(), "add-sub-cancel");
      // Reassociate constants: (x + C1) + C2 -> x + (C1+C2).
      if (RIsC)
        if (auto *Inner = dyn_cast<BinaryInst>(L))
          if (Inner->getOpcode() == Opcode::Add && Inner->hasOneUse()) {
            APInt64 C1;
            if (matchConst(Inner->getRHS(), C1))
              return replaceWithNew(
                  I,
                  std::make_unique<BinaryInst>(Opcode::Add, Inner->getLHS(),
                                               getConst(Ty, C1.add(RC))),
                  "add-reassoc");
          }
      break;
    }
    case Opcode::Sub: {
      if (!on(RuleCat::Algebraic))
        break;
      if (RIsC && RC.isZero())
        return replaceWith(I, L, "sub-zero");
      if (L == R)
        return replaceWith(I, getInt(Ty, 0), "sub-self");
      // sub(x, C) -> add(x, -C) (canonical form; flags dropped).
      if (RIsC && !RC.isZero())
        return replaceWithNew(
            I, std::make_unique<BinaryInst>(Opcode::Add, L,
                                            getConst(Ty, RC.neg())),
            "sub-const-to-add");
      // sub(add(a, b), b) -> a ; sub(add(a, b), a) -> b (wrapping add ok).
      if (auto *Add = dyn_cast<BinaryInst>(L))
        if (Add->getOpcode() == Opcode::Add && !Add->hasNSW() &&
            !Add->hasNUW()) {
          if (Add->getRHS() == R)
            return replaceWith(I, Add->getLHS(), "sub-add-cancel");
          if (Add->getLHS() == R)
            return replaceWith(I, Add->getRHS(), "sub-add-cancel");
        }
      // sub(0, sub(0, x)) -> x.
      if (LIsC && LC.isZero())
        if (auto *Neg = dyn_cast<BinaryInst>(R))
          if (Neg->getOpcode() == Opcode::Sub) {
            APInt64 Z;
            if (matchConst(Neg->getLHS(), Z) && Z.isZero() &&
                !Neg->hasNSW() && !Neg->hasNUW())
              return replaceWith(I, Neg->getRHS(), "neg-neg");
          }
      break;
    }
    case Opcode::Mul: {
      if (!on(RuleCat::Algebraic))
        break;
      if (RIsC) {
        if (RC.isZero())
          return replaceWith(I, R, "mul-zero");
        if (RC.isOne())
          return replaceWith(I, L, "mul-one");
        if (RC.isAllOnes())
          return replaceWithNew(
              I, std::make_unique<BinaryInst>(Opcode::Sub, getInt(Ty, 0), L),
              "mul-negone-to-neg");
        if (RC.isPowerOf2())
          return replaceWithNew(
              I,
              std::make_unique<BinaryInst>(Opcode::Shl, L,
                                           getInt(Ty, RC.exactLog2())),
              "mul-pow2-to-shl");
        // (x * C1) * C2 -> x * (C1*C2).
        if (auto *Inner = dyn_cast<BinaryInst>(L))
          if (Inner->getOpcode() == Opcode::Mul && Inner->hasOneUse()) {
            APInt64 C1;
            if (matchConst(Inner->getRHS(), C1))
              return replaceWithNew(
                  I,
                  std::make_unique<BinaryInst>(Opcode::Mul, Inner->getLHS(),
                                               getConst(Ty, C1.mul(RC))),
                  "mul-reassoc");
          }
      }
      break;
    }
    case Opcode::UDiv: {
      if (!on(RuleCat::Algebraic))
        break;
      if (RIsC) {
        if (RC.isOne())
          return replaceWith(I, L, "udiv-one");
        if (RC.isPowerOf2())
          return replaceWithNew(
              I,
              std::make_unique<BinaryInst>(Opcode::LShr, L,
                                           getInt(Ty, RC.exactLog2())),
              "udiv-pow2-to-lshr");
      }
      break;
    }
    case Opcode::SDiv: {
      if (!on(RuleCat::Algebraic))
        break;
      if (RIsC && RC.isOne())
        return replaceWith(I, L, "sdiv-one");
      break;
    }
    case Opcode::URem: {
      if (!on(RuleCat::Algebraic))
        break;
      if (RIsC) {
        if (RC.isOne())
          return replaceWith(I, getInt(Ty, 0), "urem-one");
        if (RC.isPowerOf2())
          return replaceWithNew(
              I,
              std::make_unique<BinaryInst>(
                  Opcode::And, L, getConst(Ty, RC.sub(APInt64::one(W)))),
              "urem-pow2-to-and");
      }
      break;
    }
    case Opcode::SRem: {
      if (!on(RuleCat::Algebraic))
        break;
      if (RIsC && RC.isOne())
        return replaceWith(I, getInt(Ty, 0), "srem-one");
      break;
    }
    case Opcode::Shl:
    case Opcode::LShr:
    case Opcode::AShr: {
      if (!on(RuleCat::Shift))
        break;
      if (RIsC && RC.isZero())
        return replaceWith(I, L, "shift-zero");
      if (LIsC && LC.isZero())
        return replaceWith(I, L, "shift-of-zero");
      // (x shl C) lshr C -> and x, mask ; (x lshr C) shl C -> and x, ~mask.
      if (RIsC && RC.ult(APInt64(W, W)))
        if (auto *Inner = dyn_cast<BinaryInst>(L))
          if (Inner->hasOneUse() && !Inner->hasNUW() && !Inner->hasNSW() &&
              !Inner->isExact()) {
            APInt64 C1;
            if (matchConst(Inner->getRHS(), C1) && C1 == RC) {
              if (Op == Opcode::LShr &&
                  Inner->getOpcode() == Opcode::Shl) {
                APInt64 Mask = APInt64::allOnes(W).lshr(RC);
                return replaceWithNew(
                    I,
                    std::make_unique<BinaryInst>(
                        Opcode::And, Inner->getLHS(), getConst(Ty, Mask)),
                    "shl-lshr-to-and");
              }
              if (Op == Opcode::Shl &&
                  Inner->getOpcode() == Opcode::LShr) {
                APInt64 Mask = APInt64::allOnes(W).shl(RC);
                return replaceWithNew(
                    I,
                    std::make_unique<BinaryInst>(
                        Opcode::And, Inner->getLHS(), getConst(Ty, Mask)),
                    "lshr-shl-to-and");
              }
            }
          }
      break;
    }
    case Opcode::And: {
      if (!on(RuleCat::Bitwise))
        break;
      if (RIsC) {
        if (RC.isZero())
          return replaceWith(I, R, "and-zero");
        if (RC.isAllOnes())
          return replaceWith(I, L, "and-allones");
      }
      if (L == R)
        return replaceWith(I, L, "and-self");
      if (RIsC)
        if (auto *Inner = dyn_cast<BinaryInst>(L))
          if (Inner->getOpcode() == Opcode::And && Inner->hasOneUse()) {
            APInt64 C1;
            if (matchConst(Inner->getRHS(), C1))
              return replaceWithNew(
                  I,
                  std::make_unique<BinaryInst>(Opcode::And, Inner->getLHS(),
                                               getConst(Ty, C1.andOp(RC))),
                  "and-reassoc");
          }
      break;
    }
    case Opcode::Or: {
      if (!on(RuleCat::Bitwise))
        break;
      if (RIsC) {
        if (RC.isZero())
          return replaceWith(I, L, "or-zero");
        if (RC.isAllOnes())
          return replaceWith(I, R, "or-allones");
      }
      if (L == R)
        return replaceWith(I, L, "or-self");
      if (RIsC)
        if (auto *Inner = dyn_cast<BinaryInst>(L))
          if (Inner->getOpcode() == Opcode::Or && Inner->hasOneUse()) {
            APInt64 C1;
            if (matchConst(Inner->getRHS(), C1))
              return replaceWithNew(
                  I,
                  std::make_unique<BinaryInst>(Opcode::Or, Inner->getLHS(),
                                               getConst(Ty, C1.orOp(RC))),
                  "or-reassoc");
          }
      break;
    }
    case Opcode::Xor: {
      if (!on(RuleCat::Bitwise))
        break;
      if (RIsC && RC.isZero())
        return replaceWith(I, L, "xor-zero");
      if (L == R)
        return replaceWith(I, getInt(Ty, 0), "xor-self");
      // xor(xor(x, y), y) -> x.
      if (auto *Inner = dyn_cast<BinaryInst>(L))
        if (Inner->getOpcode() == Opcode::Xor) {
          if (Inner->getRHS() == R)
            return replaceWith(I, Inner->getLHS(), "xor-xor-cancel");
          if (Inner->getLHS() == R)
            return replaceWith(I, Inner->getRHS(), "xor-xor-cancel");
        }
      // not(icmp) -> inverted icmp (needs icmp knowledge too).
      if (on(RuleCat::Compare) && RIsC && RC.isAllOnes() && Ty->isBool())
        if (auto *Cmp = dyn_cast<ICmpInst>(L))
          if (Cmp->hasOneUse())
            return replaceWithNew(
                I,
                std::make_unique<ICmpInst>(invertedPred(Cmp->getPredicate()),
                                           Cmp->getLHS(), Cmp->getRHS()),
                "not-icmp-invert");
      // (x ^ C1) ^ C2 -> x ^ (C1^C2).
      if (RIsC)
        if (auto *Inner = dyn_cast<BinaryInst>(L))
          if (Inner->getOpcode() == Opcode::Xor && Inner->hasOneUse()) {
            APInt64 C1;
            if (matchConst(Inner->getRHS(), C1))
              return replaceWithNew(
                  I,
                  std::make_unique<BinaryInst>(Opcode::Xor, Inner->getLHS(),
                                               getConst(Ty, C1.xorOp(RC))),
                  "xor-reassoc");
          }
      break;
    }
    default:
      break;
    }
  }

  /// UB-free constant folding for binary ops; nullopt when folding would
  /// hide UB or poison (division corners, oversize shifts, flag overflow).
  std::optional<APInt64> foldBinary(Opcode Op, APInt64 L, APInt64 R) {
    unsigned W = L.width();
    switch (Op) {
    case Opcode::Add:
      return L.add(R);
    case Opcode::Sub:
      return L.sub(R);
    case Opcode::Mul:
      return L.mul(R);
    case Opcode::And:
      return L.andOp(R);
    case Opcode::Or:
      return L.orOp(R);
    case Opcode::Xor:
      return L.xorOp(R);
    case Opcode::UDiv:
      if (R.isZero())
        return std::nullopt;
      return L.udiv(R);
    case Opcode::SDiv:
      if (R.isZero() || (L.isSignedMin() && R.isAllOnes()))
        return std::nullopt;
      return L.sdiv(R);
    case Opcode::URem:
      if (R.isZero())
        return std::nullopt;
      return L.urem(R);
    case Opcode::SRem:
      if (R.isZero() || (L.isSignedMin() && R.isAllOnes()))
        return std::nullopt;
      return L.srem(R);
    case Opcode::Shl:
      if (R.zext() >= W)
        return std::nullopt; // poison
      return L.shl(R);
    case Opcode::LShr:
      if (R.zext() >= W)
        return std::nullopt;
      return L.lshr(R);
    case Opcode::AShr:
      if (R.zext() >= W)
        return std::nullopt;
      return L.ashr(R);
    default:
      return std::nullopt;
    }
  }

  //===--- ICmp -------------------------------------------------------------//

  static bool evalPred(ICmpPred P, const APInt64 &L, const APInt64 &R) {
    switch (P) {
    case ICmpPred::EQ:
      return L.eq(R);
    case ICmpPred::NE:
      return L.ne(R);
    case ICmpPred::UGT:
      return L.ugt(R);
    case ICmpPred::UGE:
      return L.uge(R);
    case ICmpPred::ULT:
      return L.ult(R);
    case ICmpPred::ULE:
      return L.ule(R);
    case ICmpPred::SGT:
      return L.sgt(R);
    case ICmpPred::SGE:
      return L.sge(R);
    case ICmpPred::SLT:
      return L.slt(R);
    case ICmpPred::SLE:
      return L.sle(R);
    }
    return false;
  }

  void visitICmp(ICmpInst *I) {
    if (!on(RuleCat::Compare))
      return;
    Value *L = I->getLHS(), *R = I->getRHS();
    APInt64 LC, RC;
    bool LIsC = matchConst(L, LC), RIsC = matchConst(R, RC);
    ICmpPred P = I->getPredicate();
    unsigned W = L->getType()->getBitWidth();

    if (LIsC && RIsC)
      return replaceWith(I, F->getBool(evalPred(P, LC, RC)), "icmp-fold");
    if (L == R) {
      bool V = P == ICmpPred::EQ || P == ICmpPred::UGE ||
               P == ICmpPred::ULE || P == ICmpPred::SGE ||
               P == ICmpPred::SLE;
      return replaceWith(I, F->getBool(V), "icmp-self");
    }
    // Constant to the right.
    if (LIsC && !RIsC) {
      I->setOperand(0, R);
      I->setOperand(1, L);
      I->setPredicate(swappedPred(P));
      record("icmp-commute");
      push(I);
      return;
    }
    if (!RIsC)
      return;

    // Range tautologies.
    if (P == ICmpPred::ULT && RC.isZero())
      return replaceWith(I, F->getBool(false), "icmp-ult-zero");
    if (P == ICmpPred::UGE && RC.isZero())
      return replaceWith(I, F->getBool(true), "icmp-uge-zero");
    if (P == ICmpPred::UGT && RC.isAllOnes())
      return replaceWith(I, F->getBool(false), "icmp-ugt-max");
    if (P == ICmpPred::ULE && RC.isAllOnes())
      return replaceWith(I, F->getBool(true), "icmp-ule-max");
    if (P == ICmpPred::SLT && RC.isSignedMin())
      return replaceWith(I, F->getBool(false), "icmp-slt-min");
    if (P == ICmpPred::SGE && RC.isSignedMin())
      return replaceWith(I, F->getBool(true), "icmp-sge-min");
    if (P == ICmpPred::SGT && RC == APInt64::signedMax(W))
      return replaceWith(I, F->getBool(false), "icmp-sgt-max");
    if (P == ICmpPred::SLE && RC == APInt64::signedMax(W))
      return replaceWith(I, F->getBool(true), "icmp-sle-max");

    // ult x, 1 -> eq x, 0 ; ugt x, 0 -> ne x, 0.
    if (P == ICmpPred::ULT && RC.isOne())
      return replaceWithNew(
          I, std::make_unique<ICmpInst>(ICmpPred::EQ, L, getInt(L->getType(), 0)),
          "icmp-ult-one-to-eq");
    if (P == ICmpPred::UGT && RC.isZero())
      return replaceWithNew(
          I, std::make_unique<ICmpInst>(ICmpPred::NE, L, getInt(L->getType(), 0)),
          "icmp-ugt-zero-to-ne");

    // Canonicalize non-strict predicates with constants to strict forms.
    if (P == ICmpPred::UGE && !RC.isZero())
      return replaceWithNew(
          I,
          std::make_unique<ICmpInst>(ICmpPred::UGT, L,
                                     getConst(L->getType(),
                                              RC.sub(APInt64::one(W)))),
          "icmp-uge-to-ugt");
    if (P == ICmpPred::ULE && !RC.isAllOnes())
      return replaceWithNew(
          I,
          std::make_unique<ICmpInst>(ICmpPred::ULT, L,
                                     getConst(L->getType(),
                                              RC.add(APInt64::one(W)))),
          "icmp-ule-to-ult");
    if (P == ICmpPred::SGE && !RC.isSignedMin())
      return replaceWithNew(
          I,
          std::make_unique<ICmpInst>(ICmpPred::SGT, L,
                                     getConst(L->getType(),
                                              RC.sub(APInt64::one(W)))),
          "icmp-sge-to-sgt");
    if (P == ICmpPred::SLE && RC != APInt64::signedMax(W))
      return replaceWithNew(
          I,
          std::make_unique<ICmpInst>(ICmpPred::SLT, L,
                                     getConst(L->getType(),
                                              RC.add(APInt64::one(W)))),
          "icmp-sle-to-slt");

    // eq/ne through invertible ops: (x ^ C1) == C2  ->  x == C1^C2;
    // (x + C1) == C2 -> x == C2-C1.
    if (P == ICmpPred::EQ || P == ICmpPred::NE)
      if (auto *Inner = dyn_cast<BinaryInst>(L))
        if (Inner->hasOneUse()) {
          APInt64 C1;
          if (matchConst(Inner->getRHS(), C1)) {
            if (Inner->getOpcode() == Opcode::Xor)
              return replaceWithNew(
                  I,
                  std::make_unique<ICmpInst>(
                      P, Inner->getLHS(),
                      getConst(L->getType(), C1.xorOp(RC))),
                  "icmp-eq-xor");
            if (Inner->getOpcode() == Opcode::Add && !Inner->hasNSW() &&
                !Inner->hasNUW())
              return replaceWithNew(
                  I,
                  std::make_unique<ICmpInst>(
                      P, Inner->getLHS(),
                      getConst(L->getType(), RC.sub(C1))),
                  "icmp-eq-add");
          }
        }
  }

  //===--- Select / casts / phi / gep ---------------------------------------//

  void visitSelect(SelectInst *I) {
    if (!on(RuleCat::Select))
      return;
    Value *C = I->getCondition();
    Value *T = I->getTrueValue(), *E = I->getFalseValue();
    APInt64 CC;
    if (matchConst(C, CC))
      return replaceWith(I, CC.isOne() ? T : E, "select-const-cond");
    if (T == E)
      return replaceWith(I, T, "select-same-arms");
    APInt64 TC, EC;
    if (I->getType()->isBool() && matchConst(T, TC) && matchConst(E, EC)) {
      if (TC.isOne() && EC.isZero())
        return replaceWith(I, C, "select-bool-identity");
      if (TC.isZero() && EC.isOne())
        return replaceWithNew(
            I,
            std::make_unique<BinaryInst>(Opcode::Xor, C,
                                         F->getBool(true)),
            "select-bool-invert");
    }
  }

  void visitCast(CastInst *I) {
    if (!on(RuleCat::Cast))
      return;
    Value *Src = I->getSrc();
    Type *DstTy = I->getType();
    unsigned DstW = DstTy->getBitWidth();
    APInt64 SC;
    if (matchConst(Src, SC)) {
      APInt64 V = I->getOpcode() == Opcode::ZExt   ? SC.zextTo(DstW)
                  : I->getOpcode() == Opcode::SExt ? SC.sextTo(DstW)
                                                   : SC.truncTo(DstW);
      return replaceWith(I, getConst(DstTy, V), "cast-fold");
    }
    auto *Inner = dyn_cast<CastInst>(Src);
    if (!Inner)
      return;
    Opcode Outer = I->getOpcode(), InnerOp = Inner->getOpcode();
    Value *X = Inner->getSrc();
    unsigned XW = X->getType()->getBitWidth();
    // ext(ext x) of the same kind composes.
    if (Outer == InnerOp &&
        (Outer == Opcode::ZExt || Outer == Opcode::SExt))
      return replaceWithNew(
          I, std::make_unique<CastInst>(Outer, X, DstTy), "ext-ext-combine");
    if (Outer == Opcode::Trunc && InnerOp == Opcode::Trunc)
      return replaceWithNew(
          I, std::make_unique<CastInst>(Opcode::Trunc, X, DstTy),
          "trunc-trunc-combine");
    // trunc(ext x): compare widths.
    if (Outer == Opcode::Trunc &&
        (InnerOp == Opcode::ZExt || InnerOp == Opcode::SExt)) {
      if (DstW == XW)
        return replaceWith(I, X, "trunc-ext-cancel");
      if (DstW < XW)
        return replaceWithNew(
            I, std::make_unique<CastInst>(Opcode::Trunc, X, DstTy),
            "trunc-ext-narrow");
      return replaceWithNew(
          I, std::make_unique<CastInst>(InnerOp, X, DstTy),
          "trunc-ext-widen");
    }
  }

  void visitPhi(PhiInst *I) {
    if (!on(RuleCat::Scalar))
      return;
    // All incoming values identical (ignoring self-references) -> value.
    Value *Common = nullptr;
    for (unsigned K = 0; K < I->getNumIncoming(); ++K) {
      Value *In = I->getIncomingValue(K);
      if (In == I)
        continue;
      if (Common && Common != In)
        return;
      Common = In;
    }
    if (Common && Common != I)
      replaceWith(I, Common, "phi-same-value");
  }

  void visitGEP(GEPInst *I) {
    if (!on(RuleCat::Scalar))
      return;
    APInt64 OC;
    if (matchConst(I->getOffset(), OC) && OC.isZero())
      return replaceWith(I, I->getPointer(), "gep-zero");
    // gep(gep(p, C1), C2) -> gep(p, C1+C2).
    if (auto *Inner = dyn_cast<GEPInst>(I->getPointer())) {
      APInt64 C1, C2;
      if (matchConst(Inner->getOffset(), C1) &&
          matchConst(I->getOffset(), C2))
        return replaceWithNew(
            I,
            std::make_unique<GEPInst>(Inner->getPointer(),
                                      getConst(Type::getInt64(), C1.add(C2))),
            "gep-gep-combine");
    }
  }

  //===--- Block-local memory rules ------------------------------------------//

  struct MemLoc {
    AllocaInst *Base;
    int64_t Offset;
    unsigned Size;
  };

  /// Store-to-load forwarding and load CSE within one block.
  void forwardMemory(BasicBlock &BB) {
    // Known byte contents: (alloca, offset, size) -> value producing it.
    struct Known {
      MemLoc Loc;
      Value *Val;
    };
    std::vector<Known> Facts;
    std::vector<Instruction *> ToErase;

    auto invalidateOverlap = [&](const MemLoc &L) {
      Facts.erase(std::remove_if(Facts.begin(), Facts.end(),
                                 [&](const Known &K) {
                                   return K.Loc.Base == L.Base &&
                                          rangesOverlap(K.Loc.Offset,
                                                        K.Loc.Size, L.Offset,
                                                        L.Size);
                                 }),
                  Facts.end());
    };

    for (auto &IPtr : BB) {
      Instruction *I = IPtr.get();
      if (auto *St = dyn_cast<StoreInst>(I)) {
        auto Loc = resolvePtr(St->getPointer());
        if (!Loc) {
          Facts.clear(); // unknown store target: drop everything
          continue;
        }
        MemLoc L{Loc->first, Loc->second, St->getAccessBytes()};
        invalidateOverlap(L);
        Facts.push_back({L, St->getValueOperand()});
        continue;
      }
      if (auto *Ld = dyn_cast<LoadInst>(I)) {
        auto Loc = resolvePtr(Ld->getPointer());
        if (!Loc)
          continue;
        MemLoc L{Loc->first, Loc->second, Ld->getAccessBytes()};
        for (const Known &K : Facts) {
          if (K.Loc.Base == L.Base && K.Loc.Offset == L.Offset &&
              K.Loc.Size == L.Size &&
              K.Val->getType() == Ld->getType()) {
            pushUsers(Ld);
            Ld->replaceAllUsesWith(K.Val);
            ToErase.push_back(Ld);
            record("store-to-load-forward");
            break;
          }
        }
        if (!Ld->hasUses() && !ToErase.empty() && ToErase.back() == Ld)
          continue;
        // Remember the loaded value for load-load CSE.
        if (Ld->hasUses()) {
          invalidateOverlap(L); // drop stale identical-range facts
          Facts.push_back({L, Ld});
        }
        continue;
      }
      if (auto *Call = dyn_cast<CallInst>(I)) {
        // Calls cannot access locals unless a pointer is passed.
        bool TakesPtr = false;
        for (unsigned A = 0; A < Call->getNumArgs(); ++A)
          TakesPtr |= Call->getArg(A)->getType()->isPointer();
        if (TakesPtr)
          Facts.clear();
        continue;
      }
    }
    for (Instruction *I : ToErase) {
      BB.erase(I);
      Erased.insert(I);
    }
  }

  /// Remove stores overwritten before any possible observation.
  void eliminateDeadStores(BasicBlock &BB) {
    // Backward scan: a store is dead if a later store covers the same
    // range with no intervening load from the same alloca or pointer-
    // taking call.
    std::vector<Instruction *> Insts;
    for (auto &I : BB)
      Insts.push_back(I.get());
    std::vector<Instruction *> ToErase;
    for (size_t I = 0; I < Insts.size(); ++I) {
      auto *St = dyn_cast<StoreInst>(Insts[I]);
      if (!St)
        continue;
      auto Loc = resolvePtr(St->getPointer());
      if (!Loc)
        continue;
      MemLoc L{Loc->first, Loc->second, St->getAccessBytes()};
      for (size_t J = I + 1; J < Insts.size(); ++J) {
        Instruction *Next = Insts[J];
        if (auto *Ld = dyn_cast<LoadInst>(Next)) {
          auto LLoc = resolvePtr(Ld->getPointer());
          if (!LLoc || (LLoc->first == L.Base &&
                        rangesOverlap(LLoc->second, Ld->getAccessBytes(),
                                      L.Offset, L.Size)))
            break; // observed (or unknown): keep the store
          continue;
        }
        if (auto *St2 = dyn_cast<StoreInst>(Next)) {
          auto SLoc = resolvePtr(St2->getPointer());
          if (!SLoc)
            break;
          if (SLoc->first == L.Base && SLoc->second <= L.Offset &&
              SLoc->second + static_cast<int64_t>(St2->getAccessBytes()) >=
                  L.Offset + static_cast<int64_t>(L.Size)) {
            ToErase.push_back(St);
            record("dead-store-elim");
            break;
          }
          if (SLoc->first == L.Base &&
              rangesOverlap(SLoc->second, St2->getAccessBytes(), L.Offset,
                            L.Size))
            break; // partial overwrite: keep
          continue;
        }
        if (isa<CallInst>(Next)) {
          auto *Call = cast<CallInst>(Next);
          bool TakesPtr = false;
          for (unsigned A = 0; A < Call->getNumArgs(); ++A)
            TakesPtr |= Call->getArg(A)->getType()->isPointer();
          if (TakesPtr)
            break;
          continue;
        }
        if (Next->isTerminator())
          break; // value may be observed after the block: keep
      }
    }
    for (Instruction *I : ToErase) {
      BB.erase(I);
      Erased.insert(I);
    }
  }

  bool on(RuleCat C) const { return (CatMask & ruleCatBit(C)) != 0; }

  unsigned CatMask;
  Function *F = nullptr;
  PassTrace *Trace = nullptr;
  bool Changed = false;
  std::deque<Instruction *> Worklist;
  std::unordered_set<Instruction *> InWorklist;
  std::unordered_set<Instruction *> Erased;
  std::map<const char *, uint64_t> RuleFires;
};

class DCEPass : public Pass {
public:
  const char *name() const override { return "dce"; }
  bool run(Function &F, PassTrace *Trace) override {
    return InstCombine::removeDeadCode(F, Trace);
  }
};

} // namespace

std::unique_ptr<Pass> createInstCombinePass(unsigned CatMask) {
  return std::make_unique<InstCombine>(CatMask);
}

std::unique_ptr<Pass> createDCEPass() { return std::make_unique<DCEPass>(); }

} // namespace veriopt
