//===- Sat.h - CDCL SAT solver -----------------------------------*- C++ -*-=//
//
// A compact conflict-driven clause-learning SAT solver: two-watched-literal
// propagation, VSIDS-style decaying activities with phase saving, first-UIP
// clause learning, and geometric restarts. It is the decision procedure
// underneath the bit-vector layer that stands in for Z3 in the Alive-lite
// translation validator.
//
// The solver is *incremental* in the MiniSat sense: clauses (including
// learned clauses) are retained across solve() calls, and a call may pass a
// list of assumption literals that are treated as pseudo-decisions below
// every real decision. An UNSAT answer under assumptions does not poison
// the solver — conflictCore() names the failed assumption subset and the
// next call may retry with different assumptions. Only a conflict at
// decision level 0 (no assumptions involved) latches the instance as
// globally unsatisfiable.
//
// Every solve() call returns with the trail backtracked to decision level 0
// (models are snapshotted first), so addClause()/solve() may be freely
// interleaved. Selector variables guarding group-local encodings should be
// marked with setFrozen(): frozen variables are branched on only after
// every unfrozen variable is assigned, so dormant groups stay deactivated
// (phase saving defaults selectors to false) instead of being speculatively
// activated mid-search.
//
// Decisions come from a binary heap of variables ordered by (frozen
// ascending, activity descending, variable index ascending). That is a total
// order, and its unassigned minimum is exactly the variable a linear scan
// for the highest activity picks when it keeps the first of equals and
// falls back to frozen variables only when no unfrozen one is unassigned.
// This tie-break contract keeps search identical to that scan: the smt.*
// counters, the tiny bench baselines and the golden trajectories in
// SatTest.cpp all depend on it. Assigned variables leave the heap lazily
// (MiniSat style) and return on backtrack; an activity rescale rebuilds it,
// since underflow may turn a strict activity order into a tie that the
// index must then break.
//
// Clauses live in a chunked arena: a size word followed by the literals,
// packed into fixed-capacity blocks that never move once allocated, so a
// ClauseRef (block, offset) stays valid and copying a solver is a plain
// value copy.
//
// A conflict budget bounds each query; exhausting it returns Unknown, which
// the verifier surfaces as the paper's "Inconclusive" outcome.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_SMT_SAT_H
#define VERIOPT_SMT_SAT_H

#include "support/Fuel.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace veriopt {

/// A literal: variable index (1-based) with a sign. Encoded as
/// 2*var + (negated ? 1 : 0) for dense array indexing.
struct Lit {
  unsigned Code = 0;

  Lit() = default;
  Lit(unsigned Var, bool Negated) : Code(2 * Var + (Negated ? 1 : 0)) {}

  unsigned var() const { return Code >> 1; }
  bool negated() const { return Code & 1; }
  Lit operator~() const {
    Lit L;
    L.Code = Code ^ 1;
    return L;
  }
  bool operator==(const Lit &O) const { return Code == O.Code; }
  bool operator!=(const Lit &O) const { return Code != O.Code; }
};

/// Three-valued assignment.
enum class LBool : uint8_t { False = 0, True = 1, Undef = 2 };

class SatSolver {
public:
  enum class Result { Sat, Unsat, Unknown };

  SatSolver();

  /// Allocate a fresh variable; returns its index (>= 1).
  unsigned newVar();

  unsigned numVars() const {
    return static_cast<unsigned>(Activity.size()) - 1; // var 0 is a dummy
  }
  unsigned numClauses() const { return NumClauses; }
  uint64_t conflicts() const { return Conflicts; }
  uint64_t propagations() const { return Propagations; }
  uint64_t decisions() const { return Decisions; }

  /// Per-call accounting: deltas accumulated by the most recent solve().
  uint64_t lastConflicts() const { return LastConflicts; }
  uint64_t lastPropagations() const { return LastPropagations; }
  uint64_t lastDecisions() const { return LastDecisions; }
  /// Assumption placements performed by the most recent solve() (counts
  /// re-placements after restarts and backjumps, so it measures how often
  /// the assumption prefix was rebuilt).
  uint64_t lastAssumptions() const { return LastAssumptions; }

  /// Exclude \p Var from normal branching: frozen variables (selector
  /// literals guarding a group-local encoding) are decided only once every
  /// unfrozen variable is assigned, so inactive groups stay deactivated
  /// (saved phase defaults to false) instead of being branched true
  /// mid-search. Assumptions may still assert frozen variables directly.
  void setFrozen(unsigned Var, bool B);

  /// Add a clause (disjunction of literals). Returns false if the formula
  /// became trivially unsatisfiable (empty clause / conflicting units).
  bool addClause(std::vector<Lit> Ls);
  bool addClause(Lit A) { return addClause(std::vector<Lit>{A}); }
  bool addClause(Lit A, Lit B) { return addClause(std::vector<Lit>{A, B}); }
  bool addClause(Lit A, Lit B, Lit C) {
    return addClause(std::vector<Lit>{A, B, C});
  }

  /// Solve with a conflict budget (0 = unlimited). A non-null \p F is
  /// charged per decision and per conflict; when it runs dry the search
  /// stops with Unknown (the token latches the exhaustion, so callers can
  /// distinguish fuel-out from conflict-budget-out).
  Result solve(uint64_t ConflictBudget = 0, Fuel *F = nullptr);

  /// Solve under \p Assumptions: each literal is asserted as a
  /// pseudo-decision below all real decisions (and re-placed after every
  /// restart or backjump). Unsat means "unsatisfiable together with the
  /// assumptions"; conflictCore() then holds the failed subset. Clauses
  /// learned during the call are retained for later calls.
  Result solve(const std::vector<Lit> &Assumptions,
               uint64_t ConflictBudget = 0, Fuel *F = nullptr);

  /// After an Unsat answer: the subset of the assumptions that was refuted
  /// (their conjunction is inconsistent with the clauses). Empty when the
  /// instance is globally unsatisfiable independent of any assumption.
  const std::vector<Lit> &conflictCore() const { return Core; }

  /// Model access after Sat. The model is snapshotted before the solver
  /// backtracks, so it stays valid across later addClause()/solve() calls.
  bool modelValue(unsigned Var) const;
  bool modelValue(Lit L) const {
    return modelValue(L.var()) != L.negated();
  }

private:
  /// Arena position of a clause: block index in the high bits, word offset
  /// within the block in the low BlockBits.
  using ClauseRef = int;
  static constexpr unsigned BlockBits = 16;
  static constexpr unsigned BlockWords = 1u << BlockBits;

  /// A clause's literals, viewed in place in its arena block.
  struct ClauseView {
    Lit *Ls;
    unsigned Size;
    Lit &operator[](unsigned I) const { return Ls[I]; }
    Lit *begin() const { return Ls; }
    Lit *end() const { return Ls + Size; }
  };

  struct Watch {
    ClauseRef CR;
    Lit Blocker;
  };

  ClauseView clause(ClauseRef CR) {
    // The first word of a clause holds its size in the Code field.
    Lit *Header = &Blocks[CR >> BlockBits][CR & (BlockWords - 1)];
    return {Header + 1, Header->Code};
  }
  ClauseRef allocClause(const std::vector<Lit> &Ls);

  LBool value(Lit L) const {
    LBool V = Assign[L.var()];
    if (V == LBool::Undef)
      return V;
    return (V == LBool::True) != L.negated() ? LBool::True : LBool::False;
  }

  void attach(ClauseRef CR);
  void enqueue(Lit L, ClauseRef Reason);
  ClauseRef propagate();
  /// First-UIP analysis of \p Confl into Learnt; returns the backjump level.
  unsigned analyze(ClauseRef Confl);
  void analyzeFinal(Lit FailedAssump);
  void backtrack(unsigned Level);
  Lit pickBranchLit();
  void bumpVar(unsigned V);
  void decayActivities();

  // Decision heap over branchBefore(); OrderPos[V] is V's slot or -1.
  bool branchBefore(unsigned A, unsigned B) const {
    if (Frozen[A] != Frozen[B])
      return Frozen[A] < Frozen[B];
    if (Activity[A] != Activity[B])
      return Activity[A] > Activity[B];
    return A < B;
  }
  void orderInsert(unsigned V);
  void orderPopTop();
  void orderSiftUp(size_t I);
  void orderSiftDown(size_t I);
  Result search(const std::vector<Lit> &Assumptions, uint64_t ConflictBudget,
                Fuel *F);

  // Clause arena. A block never grows past the capacity it was reserved
  // with (a copied solver's blocks are full), so clauses never move.
  std::vector<std::vector<Lit>> Blocks;
  unsigned NumClauses = 0;
  std::vector<std::vector<Watch>> Watches; // indexed by Lit code
  std::vector<LBool> Assign;               // per var
  std::vector<LBool> SavedPhase;           // per var
  std::vector<unsigned> LevelOf;           // per var
  std::vector<ClauseRef> ReasonOf;         // per var
  std::vector<uint8_t> Frozen;             // per var: deprioritized branching
  std::vector<Lit> Trail;
  std::vector<unsigned> TrailLim; // decision-level boundaries
  size_t QHead = 0;

  std::vector<double> Activity; // per var
  double ActivityInc = 1.0;
  std::vector<unsigned> Order; // decision heap; holds every unassigned var
  std::vector<int> OrderPos;   // per var

  std::vector<uint8_t> Seen;    // scratch for analyze()
  std::vector<Lit> Learnt;      // scratch: the clause analyze() learns
  std::vector<Lit> AddScratch;  // scratch: addClause()'s normalized clause

  std::vector<LBool> Model; // snapshot of the last Sat assignment
  std::vector<Lit> Core;    // failed assumptions of the last Unsat

  uint64_t Conflicts = 0;
  uint64_t Propagations = 0;
  uint64_t Decisions = 0;
  uint64_t LastConflicts = 0;
  uint64_t LastPropagations = 0;
  uint64_t LastDecisions = 0;
  uint64_t LastAssumptions = 0;
  bool Unsatisfiable = false;
};

} // namespace veriopt

#endif // VERIOPT_SMT_SAT_H
