//===- Andersen.cpp - Inclusion-based points-to analysis ----------------------===//

#include "alias/Andersen.h"

#include "support/Error.h"

#include <algorithm>
#include <map>

using namespace srp;
using namespace srp::ir;
using namespace srp::alias;

const std::set<unsigned> AndersenAnalysis::Empty;

namespace srp::alias {

/// Constraint solver: worklist over subset edges. Node ids: symbols
/// first, then per-function temps, then one return node per function.
class AndersenSolver {
public:
  AndersenSolver(const ir::Module &M, AndersenAnalysis &R) : M(M), R(R) {}

  void run() {
    unsigned N = M.numSymbols();
    for (unsigned FI = 0; FI < M.numFunctions(); ++FI) {
      const Function *F = M.function(FI);
      TempBase[F] = N;
      N += F->numTemps();
      RetNode[F] = N++;
    }
    NumNodes = N;
    R.Pts.assign(N, {});
    CopyEdges.assign(N, {});
    LoadCons.clear();
    StoreCons.clear();

    for (unsigned FI = 0; FI < M.numFunctions(); ++FI)
      collect(*M.function(FI));
    solve();
  }

private:
  unsigned tempNode(const Function *F, unsigned Temp) const {
    return TempBase.at(F) + Temp;
  }

  unsigned operandNode(const Function *F, const Operand &Op) const {
    return Op.isTemp() ? tempNode(F, Op.getTemp()) : ~0u;
  }

  void addAddressOf(unsigned Dst, unsigned SymbolId) {
    if (Dst != ~0u)
      InitialPts.push_back({Dst, SymbolId});
  }

  void addCopy(unsigned Dst, unsigned Src) {
    if (Dst != ~0u && Src != ~0u)
      CopyEdges[Src].push_back(Dst);
  }

  /// Dst ⊇ *(Chain) — a load through a pointer node.
  void addLoad(unsigned Dst, unsigned Ptr) {
    if (Dst != ~0u && Ptr != ~0u)
      LoadCons.push_back({Ptr, Dst});
  }

  /// *(Ptr) ⊇ Src — a store through a pointer node.
  void addStore(unsigned Ptr, unsigned Src) {
    if (Ptr != ~0u && Src != ~0u)
      StoreCons.push_back({Ptr, Src});
  }

  /// Node whose *contents* address the cell accessed by \p Ref at the
  /// last dereference step (the pointer being dereferenced), or ~0u for
  /// direct refs. For Depth=2 an intermediate load constraint is added.
  unsigned pointerNodeOf(const Function *F, const MemRef &Ref) {
    if (Ref.Depth == 0)
      return ~0u;
    unsigned Ptr = Ref.Base->Id;
    for (unsigned L = 2; L <= Ref.Depth; ++L) {
      // tmp = *Ptr, then deref tmp. Model with a synthetic node.
      unsigned Mid = makeNode();
      addLoad(Mid, Ptr);
      Ptr = Mid;
    }
    return Ptr;
  }

  unsigned makeNode() {
    R.Pts.push_back({});
    CopyEdges.push_back({});
    return NumNodes++;
  }

  void collect(const Function &F) {
    for (unsigned BI = 0; BI < F.numBlocks(); ++BI) {
      const BasicBlock *BB = F.block(BI);
      for (size_t SI = 0; SI < BB->size(); ++SI)
        collectStmt(F, *BB->stmt(SI));
      const Terminator &T = BB->term();
      if (T.Kind == TermKind::Ret && T.RetVal.isNone() == false)
        addCopy(RetNode.at(&F), operandNode(&F, T.RetVal));
    }
  }

  void collectStmt(const Function &F, const Stmt &S) {
    switch (S.Kind) {
    case StmtKind::Assign:
      switch (S.Op) {
      case Opcode::Copy:
      case Opcode::Add:
      case Opcode::Sub:
        addCopy(tempNode(&F, S.Dst), operandNode(&F, S.A));
        addCopy(tempNode(&F, S.Dst), operandNode(&F, S.B));
        break;
      case Opcode::Select:
        addCopy(tempNode(&F, S.Dst), operandNode(&F, S.B));
        addCopy(tempNode(&F, S.Dst), operandNode(&F, S.C));
        break;
      default:
        break;
      }
      break;
    case StmtKind::Load: {
      if (S.Ref.isDirect())
        addCopy(tempNode(&F, S.Dst), S.Ref.Base->Id);
      else
        addLoad(tempNode(&F, S.Dst), pointerNodeOf(&F, S.Ref));
      break;
    }
    case StmtKind::Store: {
      if (S.Ref.isDirect())
        addCopy(S.Ref.Base->Id, operandNode(&F, S.A));
      else
        addStore(pointerNodeOf(&F, S.Ref), operandNode(&F, S.A));
      break;
    }
    case StmtKind::AddrOf:
      addAddressOf(tempNode(&F, S.Dst), S.Ref.Base->Id);
      break;
    case StmtKind::Alloc:
      addAddressOf(tempNode(&F, S.Dst), S.HeapSym->Id);
      break;
    case StmtKind::Call: {
      const auto &Formals = S.Callee->formals();
      for (size_t I = 0; I < S.Args.size() && I < Formals.size(); ++I)
        addCopy(Formals[I]->Id, operandNode(&F, S.Args[I]));
      if (S.Dst != NoTemp)
        addCopy(tempNode(&F, S.Dst), RetNode.at(S.Callee));
      break;
    }
    case StmtKind::Invala:
    case StmtKind::Print:
      break;
    }
  }

  void solve() {
    for (auto &[Node, Sym] : InitialPts)
      R.Pts[Node].insert(Sym);
    bool Changed = true;
    while (Changed) {
      Changed = false;
      // Copy edges: pts(dst) ⊇ pts(src).
      for (unsigned Src = 0; Src < NumNodes; ++Src) {
        for (unsigned Dst : CopyEdges[Src])
          for (unsigned P : R.Pts[Src])
            Changed |= R.Pts[Dst].insert(P).second;
      }
      // Load constraints: pts(dst) ⊇ pts(p) for each p in pts(ptr).
      for (auto &[Ptr, Dst] : LoadCons)
        for (unsigned P : R.Pts[Ptr])
          for (unsigned Q : R.Pts[P])
            Changed |= R.Pts[Dst].insert(Q).second;
      // Store constraints: pts(p) ⊇ pts(src) for each p in pts(ptr).
      for (auto &[Ptr, Src] : StoreCons)
        for (unsigned P : R.Pts[Ptr])
          for (unsigned Q : R.Pts[Src])
            Changed |= R.Pts[P].insert(Q).second;
    }
  }

  const ir::Module &M;
  AndersenAnalysis &R;
  unsigned NumNodes = 0;
  std::vector<std::vector<unsigned>> CopyEdges;
  std::vector<std::pair<unsigned, unsigned>> LoadCons;  ///< (ptr, dst)
  std::vector<std::pair<unsigned, unsigned>> StoreCons; ///< (ptr, src)
  std::vector<std::pair<unsigned, unsigned>> InitialPts;
  std::map<const Function *, unsigned> TempBase;
  std::map<const Function *, unsigned> RetNode;
};

} // namespace srp::alias

AndersenAnalysis::AndersenAnalysis(const ir::Module &M) : M(M) {
  AndersenSolver(M, *this).run();
}

const std::set<unsigned> &
AndersenAnalysis::pointsToSetOf(const ir::MemRef &Ref,
                                const ir::Function *F) const {
  if (Ref.Depth == 0)
    return Empty;
  // Depth 1: contents of the base symbol's cell. Depth 2: union over the
  // level-1 pointees — conservatively precomputed during solving via the
  // synthetic mid node; re-derive here by unioning (cached per query via
  // a scratch set would be an optimization; call sites are cold).
  if (Ref.Depth == 1)
    return pts(Ref.Base->Id);
  // thread_local: concurrent pipelines (core::runExperiments) query their
  // own analyses in parallel; the returned reference is only valid until
  // the same thread's next depth-2 query, which every caller consumes
  // immediately.
  static thread_local std::set<unsigned> Scratch;
  Scratch.clear();
  for (unsigned P : pts(Ref.Base->Id))
    for (unsigned Q : pts(P))
      Scratch.insert(Q);
  return Scratch;
}

std::vector<const ir::Symbol *>
AndersenAnalysis::mayPointees(const ir::MemRef &Ref,
                              const ir::Function *F) const {
  if (Ref.isDirect())
    return {Ref.Base};
  std::vector<const Symbol *> Out;
  for (unsigned Sym : pointsToSetOf(Ref, F)) {
    const Symbol *S = M.symbol(Sym);
    if (S->Parent && F && S->Parent != F && !S->AddressTaken)
      continue;
    Out.push_back(S);
  }
  return Out;
}

/// Direct-direct refinement shared with the Steensgaard implementation.
static bool directRefsMayOverlap(const MemRef &A, const MemRef &B) {
  if (A.Base != B.Base)
    return false;
  auto ConstAddr = [](const MemRef &Ref, int64_t &Addr) {
    if (Ref.hasIndex() && Ref.Index.K != Operand::Kind::ConstInt)
      return false;
    int64_t Index =
        Ref.hasIndex() && Ref.Index.K == Operand::Kind::ConstInt
            ? Ref.Index.IntVal
            : 0;
    Addr = Index * 8 + Ref.Offset;
    return true;
  };
  int64_t AddrA = 0, AddrB = 0;
  if (ConstAddr(A, AddrA) && ConstAddr(B, AddrB))
    return AddrA == AddrB;
  return true;
}

bool AndersenAnalysis::mayAlias(const ir::MemRef &A, const ir::Function *FA,
                                const ir::MemRef &B,
                                const ir::Function *FB) const {
  if (A.isDirect() && B.isDirect())
    return directRefsMayOverlap(A, B);
  if (A.isDirect())
    return pointsToSetOf(B, FB).count(A.Base->Id) != 0;
  if (B.isDirect()) {
    // Evaluate B's set first into a copy: pointsToSetOf may reuse a
    // shared scratch buffer for depth-2 queries.
    std::set<unsigned> SetA = pointsToSetOf(A, FA);
    return SetA.count(B.Base->Id) != 0;
  }
  std::set<unsigned> SetA = pointsToSetOf(A, FA);
  for (unsigned Sym : pointsToSetOf(B, FB))
    if (SetA.count(Sym))
      return true;
  return false;
}

bool AndersenAnalysis::isCallClobbered(const ir::Symbol *S) const {
  switch (S->Kind) {
  case SymbolKind::Global:
  case SymbolKind::HeapSite:
    return true;
  case SymbolKind::Local:
  case SymbolKind::Formal:
    return S->AddressTaken;
  }
  SRP_UNREACHABLE("invalid SymbolKind");
}
