//===- Printer.cpp - Textual IR emission ------------------------------------//

#include "ir/Printer.h"

#include "ir/Function.h"

#include <sstream>
#include <unordered_map>

namespace veriopt {

namespace {

/// Per-function printing context: assigns stable names to values and blocks.
class FunctionPrinter {
public:
  FunctionPrinter(const Function &F, bool NameFree)
      : F(F), NameFree(NameFree) {
    number();
  }

  std::string print() {
    std::ostringstream OS;
    OS << (F.isDeclaration() ? "declare " : "define ")
       << F.getReturnType()->getName() << " @" << F.getName() << "(";
    for (unsigned I = 0; I < F.getNumParams(); ++I) {
      if (I)
        OS << ", ";
      OS << F.getParamType(I)->getName();
      if (!F.isDeclaration())
        OS << " %" << valueName(F.getArg(I));
    }
    OS << ")";
    if (F.isDeclaration()) {
      OS << "\n";
      return OS.str();
    }
    OS << " {\n";
    bool First = true;
    for (const auto &BB : F) {
      if (!First)
        OS << "\n";
      OS << blockName(BB.get()) << ":\n";
      for (const auto &I : *BB)
        OS << "  " << renderInst(*I) << "\n";
      First = false;
    }
    OS << "}\n";
    return OS.str();
  }

private:
  void number() {
    unsigned Counter = 0;
    auto assign = [&](const Value *V) {
      if (V->hasName() && !NameFree)
        Names[V] = V->getName();
      else
        Names[V] = std::to_string(Counter++);
    };
    for (unsigned I = 0; I < F.getNumParams(); ++I)
      assign(F.getArg(I));
    if (F.isDeclaration())
      return;
    for (const auto &BB : F) {
      if (BB->getName().empty() || NameFree)
        BlockNames[BB.get()] = std::to_string(Counter++);
      else
        BlockNames[BB.get()] = BB->getName();
      for (const auto &I : *BB)
        if (!I->getType()->isVoid())
          assign(I.get());
    }
  }

  std::string valueName(const Value *V) const {
    auto It = Names.find(V);
    assert(It != Names.end() && "value was not numbered");
    return It->second;
  }

  std::string blockName(const BasicBlock *BB) const {
    auto It = BlockNames.find(BB);
    assert(It != BlockNames.end() && "block was not numbered");
    return It->second;
  }

  /// "i32 %x" or "i32 7" or "i1 true".
  std::string typedOperand(const Value *V) const {
    return V->getType()->getName() + " " + operand(V);
  }

  std::string operand(const Value *V) const {
    if (const auto *C = dyn_cast<ConstantInt>(V)) {
      if (C->getType()->isBool())
        return C->isZero() ? "false" : "true";
      return C->getValue().toString(/*Signed=*/true);
    }
    return "%" + valueName(V);
  }

  std::string flags(const Instruction &I) const {
    std::string Out;
    if (I.hasNUW())
      Out += " nuw";
    if (I.hasNSW())
      Out += " nsw";
    if (I.isExact())
      Out += " exact";
    return Out;
  }

  std::string renderInst(const Instruction &I) const {
    std::ostringstream OS;
    if (!I.getType()->isVoid())
      OS << "%" << valueName(&I) << " = ";
    switch (I.getOpcode()) {
    case Opcode::ICmp: {
      const auto &C = *cast<ICmpInst>(&I);
      OS << "icmp " << predName(C.getPredicate()) << " "
         << typedOperand(C.getLHS()) << ", " << operand(C.getRHS());
      break;
    }
    case Opcode::Select: {
      const auto &S = *cast<SelectInst>(&I);
      OS << "select " << typedOperand(S.getCondition()) << ", "
         << typedOperand(S.getTrueValue()) << ", "
         << typedOperand(S.getFalseValue());
      break;
    }
    case Opcode::ZExt:
    case Opcode::SExt:
    case Opcode::Trunc: {
      const auto &C = *cast<CastInst>(&I);
      OS << I.getOpcodeName() << " " << typedOperand(C.getSrc()) << " to "
         << I.getType()->getName();
      break;
    }
    case Opcode::Alloca:
      OS << "alloca " << cast<AllocaInst>(&I)->getAllocatedType()->getName();
      break;
    case Opcode::Load: {
      const auto &L = *cast<LoadInst>(&I);
      OS << "load " << I.getType()->getName() << ", "
         << typedOperand(L.getPointer());
      break;
    }
    case Opcode::Store: {
      const auto &S = *cast<StoreInst>(&I);
      OS << "store " << typedOperand(S.getValueOperand()) << ", "
         << typedOperand(S.getPointer());
      break;
    }
    case Opcode::GEP: {
      const auto &G = *cast<GEPInst>(&I);
      OS << "getelementptr i8, " << typedOperand(G.getPointer()) << ", "
         << typedOperand(G.getOffset());
      break;
    }
    case Opcode::Phi: {
      const auto &P = *cast<PhiInst>(&I);
      OS << "phi " << I.getType()->getName() << " ";
      for (unsigned J = 0; J < P.getNumIncoming(); ++J) {
        if (J)
          OS << ", ";
        OS << "[ " << operand(P.getIncomingValue(J)) << ", %"
           << blockName(P.getIncomingBlock(J)) << " ]";
      }
      break;
    }
    case Opcode::Br: {
      const auto &B = *cast<BrInst>(&I);
      if (B.isConditional())
        OS << "br " << typedOperand(B.getCondition()) << ", label %"
           << blockName(B.getTrueSuccessor()) << ", label %"
           << blockName(B.getFalseSuccessor());
      else
        OS << "br label %" << blockName(B.getSuccessor(0));
      break;
    }
    case Opcode::Ret: {
      const auto &R = *cast<RetInst>(&I);
      if (R.hasReturnValue())
        OS << "ret " << typedOperand(R.getReturnValue());
      else
        OS << "ret void";
      break;
    }
    case Opcode::Call: {
      const auto &C = *cast<CallInst>(&I);
      OS << "call " << I.getType()->getName() << " @"
         << C.getCallee()->getName() << "(";
      for (unsigned A = 0; A < C.getNumArgs(); ++A) {
        if (A)
          OS << ", ";
        OS << typedOperand(C.getArg(A));
      }
      OS << ")";
      break;
    }
    default: {
      assert(I.isBinaryOp() && "unhandled opcode in printer");
      const auto &B = *cast<BinaryInst>(&I);
      OS << I.getOpcodeName() << flags(I) << " " << typedOperand(B.getLHS())
         << ", " << operand(B.getRHS());
      break;
    }
    }
    return OS.str();
  }

  const Function &F;
  const bool NameFree;
  std::unordered_map<const Value *, std::string> Names;
  std::unordered_map<const BasicBlock *, std::string> BlockNames;
};

} // namespace

std::string printFunction(const Function &F, bool NameFree) {
  return FunctionPrinter(F, NameFree).print();
}

std::string printModule(const Module &M, bool NameFree) {
  std::string Out;
  for (const auto &F : M.functions())
    if (F->isDeclaration())
      Out += printFunction(*F, NameFree);
  for (const auto &F : M.functions()) {
    if (F->isDeclaration())
      continue;
    if (!Out.empty())
      Out += "\n";
    Out += printFunction(*F, NameFree);
  }
  return Out;
}

} // namespace veriopt
