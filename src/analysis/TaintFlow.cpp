//===- TaintFlow.cpp - Speculative secret-taint dataflow ---------------------===//

#include "analysis/TaintFlow.h"

#include "alias/Andersen.h"
#include "ir/Printer.h"
#include "ssa/HSSA.h"
#include "support/Error.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <span>

using namespace srp;
using namespace srp::analysis;
using namespace srp::ir;
using interp::Shadow;

const char *analysis::taintDiagKindName(TaintDiagKind Kind) {
  switch (Kind) {
  case TaintDiagKind::SpecSecretAddress:
    return "spec-secret-address";
  case TaintDiagKind::SpecSecretBranch:
    return "spec-secret-branch";
  case TaintDiagKind::SpecSecretOutput:
    return "spec-secret-output";
  }
  SRP_UNREACHABLE("invalid taint diag kind");
}

std::string analysis::formatTaintDiag(const TaintDiag &D,
                                      std::string_view File) {
  std::string Out;
  if (!File.empty())
    Out += std::string(File) + ":";
  Out += formatString("%u: error: ", D.Line);
  Out += D.Message;
  Out += formatString(" [%s]", taintDiagKindName(D.Kind));
  Out += formatString("\n  in %s, block %s", D.FunctionName.c_str(),
                      D.BlockName.c_str());
  if (!D.StmtText.empty())
    Out += ": " + D.StmtText;
  return Out;
}

namespace srp::analysis {

/// The module fixpoint engine. Builds each function's object table once,
/// then iterates: per-function forward dataflow on temp shadows (flow-
/// sensitive; OR-join at block heads) with monotone weak updates to the
/// module-wide symbol shadows, until nothing changes. A final reporting
/// pass re-runs each function's transfer with the stable state and emits
/// diagnostics at the sinks.
class TaintSolver {
public:
  TaintSolver(ir::Module &M, TaintFlow &TF) : M(M), TF(TF) {
    for (const auto &[S, Index] : interp::specSiteIndex(M))
      TF.SiteBits[S] = 1ULL << Index;
    for (unsigned I = 0, E = M.numSymbols(); I != E; ++I)
      if (M.symbol(I)->Secret) {
        TF.SymShadow[I].Secret = true;
        TF.AnySecret = true;
      }
    if (!TF.AnySecret)
      return;
    // The analysis never mutates the IR, so one table per function serves
    // every iteration.
    for (unsigned FI = 0, FE = M.numFunctions(); FI != FE; ++FI) {
      ir::Function &F = *M.function(FI);
      if (F.numBlocks() != 0)
        Funcs.push_back(std::make_unique<FunctionState>(F, *TF.AA));
    }
    solve();
    report();
  }

private:
  /// Dataflow state: one shadow per temp.
  using State = std::vector<Shadow>;

  /// Memory cell ids an object's content lives in: symbol ids, or Wild.
  static constexpr unsigned WildCell = ~0u;

  /// One function's object table, block visiting order and OUT states.
  struct FunctionState {
    FunctionState(ir::Function &F, const alias::AliasAnalysis &AA)
        : F(F), Objs(F, AA), NumTemps(F.numTemps()) {
      // Symbols read their own cell, virtual variables widen to their
      // points-to set (wild when empty).
      CellBegin.push_back(0);
      for (ssa::ObjectId Obj = 0; Obj != Objs.numObjects(); ++Obj) {
        const ssa::SSAObject &O = Objs.object(Obj);
        if (!O.isVirtual()) {
          Cells.push_back(O.Sym->Id);
        } else {
          std::vector<const Symbol *> Pointees = AA.mayPointees(O.Ref, &F);
          if (Pointees.empty())
            Cells.push_back(WildCell);
          for (const Symbol *Sym : Pointees)
            Cells.push_back(Sym->Id);
        }
        CellBegin.push_back(static_cast<unsigned>(Cells.size()));
      }
      // Reachable blocks in reverse postorder, then the unreachable ones
      // in id order: every block is solved, but only reachable loads and
      // stores touch memory.
      unsigned NumBlocks = F.numBlocks();
      Reachable.assign(NumBlocks, 0);
      for (const BasicBlock *BB : reversePostorder(F)) {
        Reachable[BB->getId()] = 1;
        Order.push_back(F.block(BB->getId()));
      }
      for (unsigned BI = 0; BI != NumBlocks; ++BI)
        if (!Reachable[BI])
          Order.push_back(F.block(BI));
      OrderPos.resize(NumBlocks);
      for (unsigned Pos = 0; Pos != NumBlocks; ++Pos)
        OrderPos[Order[Pos]->getId()] = Pos;
      Out.assign(size_t(NumBlocks) * NumTemps, Shadow());
    }

    /// Level objects of \p S, or null (not a memory access, or in a block
    /// unreachable from the entry).
    const ssa::LevelArray<ssa::ObjectId> *levels(const BasicBlock *BB,
                                                 const Stmt &S) const {
      return Reachable[BB->getId()] ? Objs.levelsOf(&S) : nullptr;
    }

    std::span<const unsigned> cells(ssa::ObjectId Obj) const {
      return std::span<const unsigned>(Cells).subspan(
          CellBegin[Obj], CellBegin[Obj + 1] - CellBegin[Obj]);
    }

    Shadow *out(const BasicBlock *BB) {
      return Out.data() + size_t(BB->getId()) * NumTemps;
    }

    ir::Function &F;
    ssa::ObjectTable Objs;
    unsigned NumTemps;
    std::vector<unsigned> CellBegin, Cells; ///< by object
    std::vector<char> Reachable;            ///< by block id
    std::vector<BasicBlock *> Order;        ///< visiting order
    std::vector<unsigned> OrderPos;         ///< by block id, into Order
    /// OUT state of every block, [block id * NumTemps + temp]. Kept across
    /// module iterations: memory only grows, so each solve resumes from
    /// the previous fixpoint instead of from bottom.
    std::vector<Shadow> Out;
  };

  static bool merge(Shadow &Into, const Shadow &From) {
    bool Changed = (From.Secret && !Into.Secret) ||
                   (From.Spec & ~Into.Spec) != 0;
    Into.merge(From);
    return Changed;
  }

  Shadow operandShadow(const State &In, const Operand &Op) const {
    if (Op.isTemp() && Op.TempId < In.size())
      return In[Op.TempId];
    return Shadow();
  }

  Shadow &cell(unsigned Id) const {
    return Id == WildCell ? TF.WildShadow : TF.SymShadow[Id];
  }

  /// Content shadow of one object: the join of its cells.
  Shadow objectShadow(const FunctionState &FS, ssa::ObjectId Obj) const {
    Shadow Sh;
    for (unsigned Id : FS.cells(Obj))
      Sh.merge(cell(Id));
    return Sh;
  }

  /// Weak-updates the content of one object with \p Sh. Returns true if
  /// any shadow grew.
  bool taintObject(const FunctionState &FS, ssa::ObjectId Obj,
                   const Shadow &Sh) {
    bool Changed = false;
    for (unsigned Id : FS.cells(Obj))
      Changed |= merge(cell(Id), Sh);
    return Changed;
  }

  /// Shadow the address-chain walk of \p S accumulates: the content of
  /// every level object the walk dereferences, plus the advanced load's
  /// own site bit (a chain cell an ld.a walks is itself speculative).
  /// Mirrors the interpreter's chain-walk shadow (Engine::walk).
  Shadow walkShadow(const FunctionState &FS,
                    const ssa::LevelArray<ssa::ObjectId> *Levels,
                    const ir::Stmt &S) const {
    Shadow Sh;
    if (!Levels)
      return Sh;
    unsigned Depth = S.Ref.Depth;
    for (unsigned L = 0; L < Depth && L < Levels->size(); ++L)
      Sh.merge(objectShadow(FS, (*Levels)[L]));
    if (S.Kind == StmtKind::Load && isAdvancedFlag(S.Flag))
      Sh.Spec |= TF.siteBitOf(&S);
    return Sh;
  }

  void setTemp(State &In, unsigned Temp, const Shadow &Sh) {
    if (Temp != NoTemp && Temp < In.size())
      In[Temp] = Sh;
  }

  /// One statement's transfer on \p In. When \p GrewMemory is non-null,
  /// memory/summary weak updates are applied and their growth reported
  /// through it; the reporting pass passes null and \p Sink to collect
  /// diagnostics instead.
  void transfer(const FunctionState &FS, const Stmt &S, State &In,
                bool *GrewMemory, std::vector<TaintDiag> *Sink,
                const BasicBlock *BB) {
    const ir::Function *F = &FS.F;
    switch (S.Kind) {
    case StmtKind::Assign: {
      Shadow Sh = operandShadow(In, S.A);
      Sh.merge(operandShadow(In, S.B));
      Sh.merge(operandShadow(In, S.C));
      setTemp(In, S.Dst, Sh);
      break;
    }
    case StmtKind::Load: {
      const ssa::LevelArray<ssa::ObjectId> *Levels = FS.levels(BB, S);
      bool IsChkA = S.Flag == SpecFlag::ChkA || S.Flag == SpecFlag::ChkAnc;
      Shadow AddrShadow;
      if (S.hasAddrSrc() && !IsChkA) {
        // The load reuses a saved pointer: its speculative history is the
        // saved temp's, not the chain's.
        if (S.AddrSrc < In.size())
          AddrShadow = In[S.AddrSrc];
      } else {
        AddrShadow = walkShadow(FS, Levels, S);
        // chk.a re-walks the chain architecturally and refreshes the
        // saved pointer (flow-sensitive strong update, like the
        // interpreter's).
        if (IsChkA && S.AddrSrc != NoTemp)
          setTemp(In, S.AddrSrc, AddrShadow);
      }
      if (S.Ref.hasIndex())
        AddrShadow.merge(operandShadow(In, S.Ref.Index));
      if (S.AddrDst != NoTemp)
        setTemp(In, S.AddrDst, AddrShadow);
      emitIf(Sink, TaintDiagKind::SpecSecretAddress, AddrShadow, F, BB, &S);
      // The data object is the cell the final read touches.
      Shadow DstShadow =
          Levels ? objectShadow(FS, Levels->back()) : Shadow();
      DstShadow.merge(AddrShadow);
      if (isAdvancedFlag(S.Flag))
        DstShadow.Spec |= TF.siteBitOf(&S);
      // Checking loads (ld.c / chk.a) re-define Dst without an advanced
      // bit: the check is the commit point, after it the value is
      // architectural.
      setTemp(In, S.Dst, DstShadow);
      break;
    }
    case StmtKind::Store: {
      const ssa::LevelArray<ssa::ObjectId> *Levels = FS.levels(BB, S);
      Shadow AddrShadow = walkShadow(FS, Levels, S);
      if (S.Ref.hasIndex())
        AddrShadow.merge(operandShadow(In, S.Ref.Index));
      if (S.AddrDst != NoTemp)
        setTemp(In, S.AddrDst, AddrShadow);
      emitIf(Sink, TaintDiagKind::SpecSecretAddress, AddrShadow, F, BB, &S);
      if (GrewMemory && Levels)
        *GrewMemory |=
            taintObject(FS, Levels->back(), operandShadow(In, S.A));
      break;
    }
    case StmtKind::AddrOf:
      setTemp(In, S.Dst,
              S.Ref.hasIndex() ? operandShadow(In, S.Ref.Index) : Shadow());
      break;
    case StmtKind::Alloc:
      setTemp(In, S.Dst, Shadow());
      break;
    case StmtKind::Call: {
      if (GrewMemory) {
        const auto &Formals = S.Callee->formals();
        for (size_t I = 0; I < S.Args.size() && I < Formals.size(); ++I)
          *GrewMemory |= merge(TF.SymShadow[Formals[I]->Id],
                               operandShadow(In, S.Args[I]));
      }
      setTemp(In, S.Dst, RetSummary[S.Callee]);
      break;
    }
    case StmtKind::Invala:
      break;
    case StmtKind::Print:
      emitIf(Sink, TaintDiagKind::SpecSecretOutput, operandShadow(In, S.A),
             F, BB, &S);
      break;
    }
  }

  void transferTerminator(const ir::Function *F, const BasicBlock *BB,
                          State &Out, bool *GrewMemory,
                          std::vector<TaintDiag> *Sink) {
    const Terminator &T = BB->term();
    if (T.Kind == TermKind::CondBr)
      emitIf(Sink, TaintDiagKind::SpecSecretBranch,
             operandShadow(Out, T.Cond), F, BB, /*S=*/nullptr);
    if (T.Kind == TermKind::Ret && GrewMemory && !T.RetVal.isNone())
      *GrewMemory |=
          merge(RetSummary[F], operandShadow(Out, T.RetVal));
  }

  void emitIf(std::vector<TaintDiag> *Sink, TaintDiagKind Kind,
              const Shadow &Sh, const ir::Function *F, const BasicBlock *BB,
              const Stmt *S) {
    if (!Sink || !Sh.leaks())
      return;
    TaintDiag D;
    D.Kind = Kind;
    D.FunctionName = F->getName();
    D.BlockName = BB->getName();
    D.SpecMask = Sh.Spec;
    if (S) {
      D.StmtText = stmtToString(*S);
      D.Line = S->Line;
    } else {
      // Terminators carry no line; attribute branch leaks to the block's
      // final statement, matching the interpreter's dynamic trace.
      D.Line = BB->size() ? BB->stmt(BB->size() - 1)->Line : 0;
    }
    const char *What = Kind == TaintDiagKind::SpecSecretAddress
                           ? "an access address"
                       : Kind == TaintDiagKind::SpecSecretBranch
                           ? "a branch condition"
                           : "program output";
    D.Message = formatString(
        "secret-derived value reaches %s inside a speculative window "
        "(advanced-load sites 0x%llx)",
        What, static_cast<unsigned long long>(Sh.Spec));
    Sink->push_back(std::move(D));
  }

  /// Sets In to the join of \p BB's predecessors' OUT states.
  void joinPreds(FunctionState &FS, const BasicBlock *BB) {
    In.assign(FS.NumTemps, Shadow());
    for (const BasicBlock *P : BB->preds()) {
      const Shadow *POut = FS.out(P);
      for (unsigned T = 0; T < FS.NumTemps; ++T)
        In[T].merge(POut[T]);
    }
  }

  /// Runs one function's forward dataflow to a local fixpoint under the
  /// current module state, from a worklist in the function's block order.
  /// Returns true if memory/summaries grew. Leaves the per-block OUT
  /// states in FS.Out.
  bool solveFunction(FunctionState &FS) {
    ir::Function &F = FS.F;
    bool GrewMemory = false;
    // Every block is visited once; afterwards only blocks whose
    // predecessors' OUT grew. The state is finite and every transfer
    // monotone, so this terminates.
    Pending.assign(FS.Order.size(), 1);
    size_t NumPending = FS.Order.size();
    while (NumPending != 0) {
      for (unsigned Pos = 0; Pos != FS.Order.size(); ++Pos) {
        if (!Pending[Pos])
          continue;
        Pending[Pos] = 0;
        --NumPending;
        BasicBlock *BB = FS.Order[Pos];
        joinPreds(FS, BB);
        for (size_t SI = 0, SE = BB->size(); SI != SE; ++SI)
          transfer(FS, *BB->stmt(SI), In, &GrewMemory, /*Sink=*/nullptr,
                   BB);
        transferTerminator(&F, BB, In, &GrewMemory, /*Sink=*/nullptr);
        Shadow *Out = FS.out(BB);
        bool Changed = false;
        for (unsigned T = 0; T < FS.NumTemps; ++T)
          Changed |= merge(Out[T], In[T]);
        if (!Changed)
          continue;
        for (const BasicBlock *Succ : BB->succs()) {
          unsigned SuccPos = FS.OrderPos[Succ->getId()];
          if (!Pending[SuccPos]) {
            Pending[SuccPos] = 1;
            ++NumPending;
          }
        }
      }
    }
    return GrewMemory;
  }

  void solve() {
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (const std::unique_ptr<FunctionState> &FS : Funcs)
        Changed |= solveFunction(*FS);
      // Summaries feeding call sites change temp states too, so one more
      // sweep runs whenever anything grew; the finite lattice bounds the
      // iteration count.
    }
  }

  /// Emits diagnostics and the final per-temp shadows with the stable
  /// state. Re-runs each block's transfer from its (now stable) IN, in
  /// block id order.
  void report() {
    for (const std::unique_ptr<FunctionState> &FS : Funcs) {
      ir::Function &F = FS->F;
      State &Final = TF.TempShadows[&F];
      Final.assign(FS->NumTemps, Shadow());
      for (unsigned BI = 0, BE = F.numBlocks(); BI != BE; ++BI) {
        BasicBlock *BB = F.block(BI);
        joinPreds(*FS, BB);
        for (size_t SI = 0, SE = BB->size(); SI != SE; ++SI)
          transfer(*FS, *BB->stmt(SI), In, /*GrewMemory=*/nullptr,
                   &TF.Diags, BB);
        transferTerminator(&F, BB, In, /*GrewMemory=*/nullptr, &TF.Diags);
        for (unsigned T = 0; T < FS->NumTemps; ++T)
          Final[T].merge(In[T]);
      }
    }
  }

  ir::Module &M;
  TaintFlow &TF;
  std::vector<std::unique_ptr<FunctionState>> Funcs; ///< in module order
  std::map<const ir::Function *, Shadow> RetSummary;
  /// Scratch reused across blocks: the IN state being transferred, and
  /// the worklist flags of solveFunction (by position in the order).
  State In;
  std::vector<char> Pending;
};

} // namespace srp::analysis

TaintFlow::TaintFlow(ir::Module &M, const TaintFlowConfig &Config) {
  if (Config.AA) {
    AA = Config.AA;
  } else {
    OwnedAA = std::make_unique<alias::AndersenAnalysis>(M);
    AA = OwnedAA.get();
  }
  SymShadow.assign(M.numSymbols(), Shadow());
  TaintSolver Solver(M, *this);
}

TaintFlow::~TaintFlow() = default;

Shadow TaintFlow::tempShadow(const ir::Function *F, unsigned Temp) const {
  auto It = TempShadows.find(F);
  if (It == TempShadows.end() || Temp >= It->second.size())
    return Shadow();
  return It->second[Temp];
}

uint64_t TaintFlow::siteBitOf(const ir::Stmt *S) const {
  auto It = SiteBits.find(S);
  return It == SiteBits.end() ? 0 : It->second;
}

const char *TaintFlow::aliasName() const { return AA->name(); }
