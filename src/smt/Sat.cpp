//===- Sat.cpp - CDCL SAT solver ----------------------------------------------//

#include "smt/Sat.h"

#include <algorithm>
#include <cassert>

namespace veriopt {

// Reason sentinel: -1 means "decision / no reason".
static constexpr int NoReason = -1;

SatSolver::SatSolver() {
  // Var 0 is a dummy so variables are 1-based.
  Assign.push_back(LBool::Undef);
  SavedPhase.push_back(LBool::False);
  LevelOf.push_back(0);
  ReasonOf.push_back(NoReason);
  Frozen.push_back(0);
  Activity.push_back(0);
  OrderPos.push_back(-1);
  Seen.push_back(0);
  Watches.resize(2);
}

unsigned SatSolver::newVar() {
  unsigned V = static_cast<unsigned>(Assign.size());
  Assign.push_back(LBool::Undef);
  SavedPhase.push_back(LBool::False);
  LevelOf.push_back(0);
  ReasonOf.push_back(NoReason);
  Frozen.push_back(0);
  Activity.push_back(0);
  OrderPos.push_back(-1);
  Seen.push_back(0);
  Watches.resize(Watches.size() + 2);
  orderInsert(V);
  return V;
}

void SatSolver::setFrozen(unsigned Var, bool B) {
  assert(Var < Frozen.size() && "freezing an unallocated variable");
  Frozen[Var] = B ? 1 : 0;
  if (OrderPos[Var] >= 0) {
    orderSiftUp(static_cast<size_t>(OrderPos[Var]));
    orderSiftDown(static_cast<size_t>(OrderPos[Var]));
  }
}

bool SatSolver::addClause(std::vector<Lit> Ls) {
  if (Unsatisfiable)
    return false;
  assert(TrailLim.empty() && "clauses must be added at decision level 0");

  // Normalize: drop duplicates and false literals; detect tautologies and
  // already-satisfied clauses.
  std::sort(Ls.begin(), Ls.end(),
            [](Lit A, Lit B) { return A.Code < B.Code; });
  std::vector<Lit> &Out = AddScratch;
  Out.clear();
  for (size_t I = 0; I < Ls.size(); ++I) {
    if (I + 1 < Ls.size() && Ls[I] == Ls[I + 1])
      continue; // duplicate
    if (I + 1 < Ls.size() && Ls[I].var() == Ls[I + 1].var())
      return true; // l and ~l: tautology
    LBool V = value(Ls[I]);
    if (V == LBool::True)
      return true; // satisfied at level 0
    if (V == LBool::False)
      continue; // falsified at level 0: drop
    Out.push_back(Ls[I]);
  }

  if (Out.empty()) {
    Unsatisfiable = true;
    return false;
  }
  if (Out.size() == 1) {
    enqueue(Out[0], NoReason);
    if (propagate() != NoReason) {
      Unsatisfiable = true;
      return false;
    }
    return true;
  }

  attach(allocClause(Out));
  return true;
}

SatSolver::ClauseRef SatSolver::allocClause(const std::vector<Lit> &Ls) {
  size_t Words = Ls.size() + 1;
  if (Blocks.empty() || Blocks.back().size() >= BlockWords ||
      Blocks.back().capacity() - Blocks.back().size() < Words) {
    // Start a new block rather than grow one, so clauses never move; a
    // clause longer than a block gets one to itself.
    assert((Blocks.size() >> (31 - BlockBits)) == 0 && "clause arena full");
    Blocks.emplace_back().reserve(std::max<size_t>(BlockWords, Words));
  }
  std::vector<Lit> &B = Blocks.back();
  ClauseRef CR = static_cast<ClauseRef>(((Blocks.size() - 1) << BlockBits) |
                                        B.size());
  Lit Header;
  Header.Code = static_cast<unsigned>(Ls.size());
  B.push_back(Header);
  B.insert(B.end(), Ls.begin(), Ls.end());
  ++NumClauses;
  return CR;
}

void SatSolver::attach(ClauseRef CR) {
  ClauseView C = clause(CR);
  assert(C.Size >= 2 && "attaching a short clause");
  Watches[(~C[0]).Code].push_back({CR, C[1]});
  Watches[(~C[1]).Code].push_back({CR, C[0]});
}

void SatSolver::enqueue(Lit L, ClauseRef Reason) {
  assert(value(L) == LBool::Undef && "enqueueing an assigned literal");
  Assign[L.var()] = L.negated() ? LBool::False : LBool::True;
  LevelOf[L.var()] = static_cast<unsigned>(TrailLim.size());
  ReasonOf[L.var()] = Reason;
  Trail.push_back(L);
}

SatSolver::ClauseRef SatSolver::propagate() {
  while (QHead < Trail.size()) {
    Lit P = Trail[QHead++]; // P is true; visit watchers of ~P... (see below)
    ++Propagations;
    // Watches[P.Code] holds clauses watching ~P (attached via (~lit).Code),
    // i.e. clauses that may become unit now that P is true.
    std::vector<Watch> &WList = Watches[P.Code];
    size_t Keep = 0;
    for (size_t I = 0; I < WList.size(); ++I) {
      Watch W = WList[I];
      // Blocker check: clause already satisfied.
      if (value(W.Blocker) == LBool::True) {
        WList[Keep++] = W;
        continue;
      }
      ClauseView C = clause(W.CR);
      // Ensure the falsified literal is at slot 1.
      Lit FalseLit = ~P;
      if (C[0] == FalseLit)
        std::swap(C[0], C[1]);
      assert(C[1] == FalseLit && "watch list out of sync");
      // First watch true? Keep with updated blocker.
      if (value(C[0]) == LBool::True) {
        WList[Keep++] = {W.CR, C[0]};
        continue;
      }
      // Find a new literal to watch.
      bool Moved = false;
      for (unsigned K = 2; K < C.Size; ++K) {
        if (value(C[K]) != LBool::False) {
          std::swap(C[1], C[K]);
          Watches[(~C[1]).Code].push_back({W.CR, C[0]});
          Moved = true;
          break;
        }
      }
      if (Moved)
        continue; // watch moved elsewhere; drop from this list
      // Clause is unit or conflicting.
      WList[Keep++] = W;
      if (value(C[0]) == LBool::False) {
        // Conflict: restore remaining watches and report.
        for (size_t K = I + 1; K < WList.size(); ++K)
          WList[Keep++] = WList[K];
        WList.resize(Keep);
        QHead = Trail.size();
        return W.CR;
      }
      enqueue(C[0], W.CR);
    }
    WList.resize(Keep);
  }
  return NoReason;
}

void SatSolver::bumpVar(unsigned V) {
  Activity[V] += ActivityInc;
  if (Activity[V] > 1e100) {
    for (double &A : Activity)
      A *= 1e-100;
    ActivityInc *= 1e-100;
    // Scaling keeps the activity order only weakly (underflow can tie two
    // variables, and ties fall to the index), so re-heapify outright.
    for (size_t I = Order.size() / 2; I-- > 0;)
      orderSiftDown(I);
  } else if (OrderPos[V] >= 0) {
    orderSiftUp(static_cast<size_t>(OrderPos[V]));
  }
}

void SatSolver::decayActivities() { ActivityInc *= (1.0 / 0.95); }

unsigned SatSolver::analyze(ClauseRef Confl) {
  Learnt.clear();
  Learnt.push_back(Lit()); // slot for the asserting literal
  unsigned CurLevel = static_cast<unsigned>(TrailLim.size());
  int Counter = 0;
  Lit P;
  bool PValid = false;
  size_t Index = Trail.size();

  ClauseRef Reason = Confl;
  while (true) {
    assert(Reason != NoReason && "conflict analysis lost its reason");
    for (Lit Q : clause(Reason)) {
      if (PValid && Q == P)
        continue;
      unsigned V = Q.var();
      if (Seen[V] || LevelOf[V] == 0)
        continue;
      Seen[V] = 1;
      bumpVar(V);
      if (LevelOf[V] >= CurLevel)
        ++Counter;
      else
        Learnt.push_back(Q);
    }
    // Walk the trail backwards to the next marked literal.
    while (!Seen[Trail[Index - 1].var()])
      --Index;
    --Index;
    P = Trail[Index];
    PValid = true;
    Reason = ReasonOf[P.var()];
    Seen[P.var()] = 0;
    if (--Counter == 0)
      break;
  }
  Learnt[0] = ~P;

  // Compute backtrack level (second-highest level in the clause).
  unsigned BtLevel = 0;
  if (Learnt.size() > 1) {
    size_t MaxI = 1;
    for (size_t I = 2; I < Learnt.size(); ++I)
      if (LevelOf[Learnt[I].var()] > LevelOf[Learnt[MaxI].var()])
        MaxI = I;
    std::swap(Learnt[1], Learnt[MaxI]);
    BtLevel = LevelOf[Learnt[1].var()];
  }
  for (Lit L : Learnt)
    Seen[L.var()] = 0;
  return BtLevel;
}

void SatSolver::analyzeFinal(Lit FailedAssump) {
  // The trail implies ~FailedAssump; collect the placed assumptions that
  // participate in that derivation (MiniSat's analyzeFinal). Every
  // reason-free trail literal above level 0 is an assumption placement:
  // analyzeFinal only runs from the placement loop, where all open decision
  // levels belong to assumptions.
  Core.clear();
  Core.push_back(FailedAssump);
  if (TrailLim.empty())
    return;
  Seen[FailedAssump.var()] = 1;
  for (size_t I = Trail.size(); I > TrailLim[0]; --I) {
    unsigned V = Trail[I - 1].var();
    if (!Seen[V])
      continue;
    if (ReasonOf[V] == NoReason) {
      Core.push_back(Trail[I - 1]);
    } else {
      for (Lit L : clause(ReasonOf[V]))
        if (L.var() != V && LevelOf[L.var()] > 0)
          Seen[L.var()] = 1;
    }
    Seen[V] = 0;
  }
  Seen[FailedAssump.var()] = 0;
}

void SatSolver::backtrack(unsigned Level) {
  if (TrailLim.size() <= Level)
    return;
  size_t Bound = TrailLim[Level];
  for (size_t I = Trail.size(); I > Bound; --I) {
    unsigned V = Trail[I - 1].var();
    SavedPhase[V] = Assign[V];
    Assign[V] = LBool::Undef;
    ReasonOf[V] = NoReason;
    orderInsert(V);
  }
  Trail.resize(Bound);
  TrailLim.resize(Level);
  QHead = Trail.size();
}

void SatSolver::orderInsert(unsigned V) {
  if (OrderPos[V] >= 0)
    return;
  OrderPos[V] = static_cast<int>(Order.size());
  Order.push_back(V);
  orderSiftUp(Order.size() - 1);
}

void SatSolver::orderPopTop() {
  OrderPos[Order[0]] = -1;
  unsigned Last = Order.back();
  Order.pop_back();
  if (Order.empty())
    return;
  Order[0] = Last;
  OrderPos[Last] = 0;
  orderSiftDown(0);
}

void SatSolver::orderSiftUp(size_t I) {
  unsigned V = Order[I];
  while (I > 0) {
    size_t Parent = (I - 1) / 2;
    if (!branchBefore(V, Order[Parent]))
      break;
    Order[I] = Order[Parent];
    OrderPos[Order[I]] = static_cast<int>(I);
    I = Parent;
  }
  Order[I] = V;
  OrderPos[V] = static_cast<int>(I);
}

void SatSolver::orderSiftDown(size_t I) {
  unsigned V = Order[I];
  while (true) {
    size_t Child = 2 * I + 1;
    if (Child >= Order.size())
      break;
    if (Child + 1 < Order.size() && branchBefore(Order[Child + 1], Order[Child]))
      ++Child;
    if (!branchBefore(Order[Child], V))
      break;
    Order[I] = Order[Child];
    OrderPos[Order[I]] = static_cast<int>(I);
    I = Child;
  }
  Order[I] = V;
  OrderPos[V] = static_cast<int>(I);
}

Lit SatSolver::pickBranchLit() {
  // The heap minimum over the unassigned variables: highest activity, lowest
  // index among equals, frozen variables (dormant group selectors) only once
  // no unfrozen one is left, so saved phases — false by default — deactivate
  // their groups. Assigned variables are dropped lazily here; the returned
  // one stays on top until the next call finds it assigned.
  while (!Order.empty() && Assign[Order[0]] != LBool::Undef)
    orderPopTop();
  if (Order.empty())
    return Lit(); // everything assigned
  unsigned Best = Order[0];
  bool Neg = SavedPhase[Best] != LBool::True; // phase saving, default false
  return Lit(Best, Neg);
}

SatSolver::Result SatSolver::solve(uint64_t ConflictBudget, Fuel *F) {
  return solve(std::vector<Lit>(), ConflictBudget, F);
}

SatSolver::Result SatSolver::solve(const std::vector<Lit> &Assumptions,
                                   uint64_t ConflictBudget, Fuel *F) {
  uint64_t StartConflicts = Conflicts;
  uint64_t StartPropagations = Propagations;
  uint64_t StartDecisions = Decisions;
  LastAssumptions = 0;
  Core.clear();

  Result R;
  if (Unsatisfiable) {
    R = Result::Unsat;
  } else if (propagate() != NoReason) {
    // Pending top-level units conflicted: the trail is at level 0, so this
    // is a global contradiction independent of any assumption.
    Unsatisfiable = true;
    R = Result::Unsat;
  } else {
    R = search(Assumptions, ConflictBudget, F);
  }

  LastConflicts = Conflicts - StartConflicts;
  LastPropagations = Propagations - StartPropagations;
  LastDecisions = Decisions - StartDecisions;
  return R;
}

SatSolver::Result SatSolver::search(const std::vector<Lit> &Assumptions,
                                    uint64_t ConflictBudget, Fuel *F) {
  uint64_t RestartLimit = 100;
  uint64_t ConflictsSinceRestart = 0;
  uint64_t StartConflicts = Conflicts;

  while (true) {
    ClauseRef Confl = propagate();
    if (Confl != NoReason) {
      ++Conflicts;
      ++ConflictsSinceRestart;
      if (TrailLim.empty()) {
        // Conflict at level 0: no assumption is on the trail, so the
        // instance is unsatisfiable outright. Latch it so later calls
        // answer immediately instead of re-searching stale state.
        Unsatisfiable = true;
        return Result::Unsat;
      }
      if (ConflictBudget && Conflicts - StartConflicts >= ConflictBudget) {
        // Leave the solver reusable: a later solve() must not see a stale
        // conflicting trail.
        backtrack(0);
        return Result::Unknown;
      }
      if (F && !F->consume(fuel::SatConflict)) {
        backtrack(0);
        return Result::Unknown;
      }

      backtrack(analyze(Confl));
      if (Learnt.size() == 1) {
        enqueue(Learnt[0], NoReason);
      } else {
        ClauseRef CR = allocClause(Learnt);
        attach(CR);
        enqueue(Learnt[0], CR);
      }
      decayActivities();

      if (ConflictsSinceRestart >= RestartLimit) {
        ConflictsSinceRestart = 0;
        RestartLimit = RestartLimit + RestartLimit / 2; // geometric
        backtrack(0);
      }
      continue;
    }

    // No conflict. Re-place any assumptions not currently on the trail as
    // pseudo-decisions (they sit below every real decision and are
    // re-established here after each restart or backjump).
    Lit Next;
    while (TrailLim.size() < Assumptions.size()) {
      Lit A = Assumptions[TrailLim.size()];
      LBool V = value(A);
      if (V == LBool::True) {
        // Already implied: open a dummy level so decision-level indices
        // keep matching assumption indices.
        TrailLim.push_back(static_cast<unsigned>(Trail.size()));
        continue;
      }
      if (V == LBool::False) {
        // The trail refutes this assumption: unsat *under assumptions*.
        // Do not latch Unsatisfiable — other assumptions may succeed.
        analyzeFinal(A);
        backtrack(0);
        return Result::Unsat;
      }
      Next = A;
      break;
    }
    if (Next.Code == 0) {
      Next = pickBranchLit();
      if (Next.Code == 0) {
        // Complete assignment, no conflict: snapshot the model, then
        // release the trail so the solver stays reusable.
        Model = Assign;
        backtrack(0);
        return Result::Sat;
      }
    } else {
      ++LastAssumptions;
    }
    if (F && !F->consume(fuel::SatDecision)) {
      backtrack(0);
      return Result::Unknown;
    }
    ++Decisions;
    TrailLim.push_back(static_cast<unsigned>(Trail.size()));
    enqueue(Next, NoReason);
  }
}

bool SatSolver::modelValue(unsigned Var) const {
  assert(Var < Model.size() && "model query out of range");
  return Model[Var] == LBool::True;
}

} // namespace veriopt
