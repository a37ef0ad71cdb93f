//===- Function.h - IR function and module -----------------------*- C++ -*-=//

#ifndef VERIOPT_IR_FUNCTION_H
#define VERIOPT_IR_FUNCTION_H

#include "ir/BasicBlock.h"

#include <list>
#include <memory>
#include <unordered_map>

namespace veriopt {

/// A function: signature plus (for definitions) a CFG of basic blocks. Also
/// a Value so it can be a call target. Declarations (externals like @foo in
/// the paper's Fig. 9) have no blocks.
class Function : public Value {
public:
  Function(std::string Name, Type *ReturnTy, std::vector<Type *> ParamTys,
           bool IsDeclaration);

  /// Sever all dataflow edges up front: instruction operands may point into
  /// other blocks, at arguments, or at pooled constants, none of whose
  /// destruction order is otherwise safe.
  ~Function() override {
    for (auto &BB : Blocks)
      for (auto &I : *BB)
        I->dropAllReferences();
  }

  Type *getReturnType() const { return ReturnTy; }
  bool isDeclaration() const { return Declaration; }

  unsigned getNumParams() const {
    return static_cast<unsigned>(Args.size());
  }
  Argument *getArg(unsigned I) const {
    assert(I < Args.size() && "argument index out of range");
    return Args[I].get();
  }
  Type *getParamType(unsigned I) const { return getArg(I)->getType(); }

  using BlockList = std::list<std::unique_ptr<BasicBlock>>;
  using iterator = BlockList::iterator;
  using const_iterator = BlockList::const_iterator;

  iterator begin() { return Blocks.begin(); }
  iterator end() { return Blocks.end(); }
  const_iterator begin() const { return Blocks.begin(); }
  const_iterator end() const { return Blocks.end(); }
  bool empty() const { return Blocks.empty(); }
  size_t size() const { return Blocks.size(); }

  BasicBlock *getEntryBlock() const {
    assert(!Blocks.empty() && "function has no body");
    return Blocks.front().get();
  }

  /// Create and append a new block.
  BasicBlock *createBlock(std::string Name);

  /// Remove and destroy \p BB (callers must have fixed all references).
  void eraseBlock(BasicBlock *BB);

  /// Reorder the block list to match \p Order, which must be a permutation
  /// of the current blocks.
  void reorderBlocks(const std::vector<BasicBlock *> &Order);

  /// Blocks in list order (non-owning view).
  std::vector<BasicBlock *> blockPtrs() const;

  /// Block with the given name, or nullptr.
  BasicBlock *findBlock(const std::string &Name) const;

  /// Total instruction count across all blocks.
  unsigned instructionCount() const;

  /// Deep copy with fresh values/blocks; constants are re-uniqued in the
  /// copy's own pool. Callee declarations are not copied: a cloned call
  /// keeps pointing at the declaration the original's module owns, and
  /// setting that operand `addUser`s on it without a lock. Two threads
  /// cloning functions that call one declaration (e.g. the same prompt
  /// twice in a GRPO batch) therefore race on its user list, so clones of
  /// one module's functions must not run concurrently.
  std::unique_ptr<Function> clone() const;

  /// Constant pool: uniqued ConstantInt values owned by this function's
  /// module scope. For a standalone function, constants are owned here.
  ConstantInt *getConstant(Type *Ty, APInt64 V);
  ConstantInt *getConstant(unsigned Width, uint64_t Bits) {
    return getConstant(Type::getInt(Width), APInt64(Width, Bits));
  }
  ConstantInt *getBool(bool B) { return getConstant(1, B ? 1 : 0); }

  static bool classof(const Value *V) {
    return V->getValueID() == FunctionVal;
  }

private:
  Type *ReturnTy;
  bool Declaration;
  std::vector<std::unique_ptr<Argument>> Args;
  BlockList Blocks;
  std::unordered_map<uint64_t, std::unique_ptr<ConstantInt>> Constants;
};

/// A collection of functions (one definition under test plus any externals
/// it calls).
class Module {
public:
  Module() = default;

  Function *addFunction(std::unique_ptr<Function> F) {
    Functions.push_back(std::move(F));
    return Functions.back().get();
  }

  Function *getFunction(const std::string &Name) const;

  /// The first non-declaration function (the "function under test").
  Function *getMainFunction() const;

  const std::vector<std::unique_ptr<Function>> &functions() const {
    return Functions;
  }

private:
  std::vector<std::unique_ptr<Function>> Functions;
};

} // namespace veriopt

#endif // VERIOPT_IR_FUNCTION_H
