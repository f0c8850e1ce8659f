//===- HSSA.cpp - Alias-aware SSA with chi/mu and speculation ---------------===//

#include "ssa/HSSA.h"

#include "support/Error.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>

using namespace srp;
using namespace srp::ir;
using namespace srp::ssa;

std::string SSAObject::name() const {
  if (K == Kind::Symbol)
    return Sym->Name;
  std::string Out = "v(";
  for (unsigned I = 0; I < Ref.Depth; ++I)
    Out += '*';
  Out += Ref.Base->Name;
  if (Ref.hasIndex())
    Out += Ref.Index.isTemp() ? formatString("[t%u]", Ref.Index.TempId)
                              : formatString("[%lld]", static_cast<long long>(
                                                           Ref.Index.IntVal));
  if (Ref.Offset)
    Out += formatString("{%+lld}", static_cast<long long>(Ref.Offset));
  Out += ')';
  return Out;
}

//===----------------------------------------------------------------------===//
// ObjectTable
//===----------------------------------------------------------------------===//

ObjectTable::VKey ObjectTable::vkeyFor(const ir::MemRef &Ref,
                                       unsigned Level) {
  assert(Level >= 1 && Level <= Ref.Depth && "level out of range");
  VKey Key;
  Key.BaseId = Ref.Base->Id;
  Key.Depth = Level;
  // Index and offset only apply at the final level of the chain.
  if (Level == Ref.Depth) {
    Key.Offset = Ref.Offset;
    switch (Ref.Index.K) {
    case Operand::Kind::None:
      Key.IndexKind = 0;
      Key.IndexVal = 0;
      break;
    case Operand::Kind::Temp:
      Key.IndexKind = 1;
      Key.IndexVal = Ref.Index.TempId;
      break;
    case Operand::Kind::ConstInt:
      Key.IndexKind = 2;
      Key.IndexVal = static_cast<uint64_t>(Ref.Index.IntVal);
      break;
    case Operand::Kind::ConstFloat:
      SRP_UNREACHABLE("float index");
    }
  } else {
    Key.IndexKind = 0;
    Key.IndexVal = 0;
    Key.Offset = 0;
  }
  return Key;
}

/// Canonical lexical ref of the level-\p Level prefix of \p Ref.
static MemRef levelRef(const MemRef &Ref, unsigned Level) {
  MemRef Out = Ref;
  Out.Depth = Level;
  if (Level != Ref.Depth) {
    Out.Index = Operand();
    Out.Offset = 0;
    Out.ValueType = TypeKind::Int; // Interior levels hold addresses.
  }
  return Out;
}

ObjectTable::ObjectTable(const ir::Function &F,
                         const alias::AliasAnalysis &AA) {
  SymbolObjects.assign(F.getParent()->numSymbols(), InvalidObject);
  Levels.resize(F.numStmtIds());
  for (unsigned BI = 0, BE = F.numBlocks(); BI != BE; ++BI) {
    const BasicBlock *BB = F.block(BI);
    for (size_t SI = 0, SE = BB->size(); SI != SE; ++SI) {
      const Stmt *S = BB->stmt(SI);
      if (!S->accessesMemory())
        continue;
      if (S->Ref.Depth > MaxRefDepth)
        SRP_UNREACHABLE("access path deeper than the verifier allows");
      LevelArray<ObjectId> &Objs = Levels[S->Id];
      Objs.push_back(addSymbol(S->Ref.Base));
      for (unsigned L = 1; L <= S->Ref.Depth; ++L)
        Objs.push_back(addVirtual(S->Ref, L));
      // Pointee symbols of every level become objects too.
      for (unsigned L = 1; L <= S->Ref.Depth; ++L)
        for (const Symbol *Pointee : AA.mayPointees(levelRef(S->Ref, L), &F))
          addSymbol(Pointee);
    }
  }
}

ObjectId ObjectTable::addSymbol(const Symbol *Sym) {
  ObjectId &Slot = SymbolObjects[Sym->Id];
  if (Slot != InvalidObject)
    return Slot;
  Slot = static_cast<ObjectId>(Objects.size());
  SSAObject Obj;
  Obj.K = SSAObject::Kind::Symbol;
  Obj.Sym = Sym;
  Objects.push_back(Obj);
  return Slot;
}

std::vector<std::pair<ObjectTable::VKey, ObjectId>>::const_iterator
ObjectTable::virtualSlot(const VKey &Key) const {
  return std::lower_bound(
      Virtuals.begin(), Virtuals.end(), Key,
      [](const std::pair<VKey, ObjectId> &E, const VKey &K) {
        return E.first < K;
      });
}

ObjectId ObjectTable::addVirtual(const MemRef &Ref, unsigned Level) {
  VKey Key = vkeyFor(Ref, Level);
  auto It = virtualSlot(Key);
  if (It != Virtuals.end() && It->first == Key)
    return It->second;
  ObjectId Id = static_cast<ObjectId>(Objects.size());
  SSAObject Obj;
  Obj.K = SSAObject::Kind::Virtual;
  Obj.Sym = Ref.Base;
  Obj.Ref = levelRef(Ref, Level);
  Objects.push_back(Obj);
  Virtuals.insert(It, {Key, Id});
  return Id;
}

ObjectId ObjectTable::findVirtual(const VKey &Key) const {
  auto It = virtualSlot(Key);
  return It != Virtuals.end() && It->first == Key ? It->second
                                                  : InvalidObject;
}

LevelArray<ObjectId> ObjectTable::refObjects(const ir::MemRef &Ref) const {
  LevelArray<ObjectId> Objs;
  Objs.push_back(symbolObject(Ref.Base));
  for (unsigned L = 1; L <= Ref.Depth; ++L)
    Objs.push_back(findVirtual(vkeyFor(Ref, L)));
  return Objs;
}

//===----------------------------------------------------------------------===//
// HSSA construction
//===----------------------------------------------------------------------===//

namespace srp::ssa {

/// Builds the HSSA annotations on top of the object table (χ/μ planning,
/// φ insertion and renaming).
class HSSABuilder {
public:
  HSSABuilder(HSSA &H, const DominatorTree &DT,
              const alias::AliasAnalysis &AA,
              const interp::AliasProfile *Profile)
      : H(H), F(H.F), Objs(H.Objs), DT(DT), AA(AA), Profile(Profile) {}

  void run() {
    H.Stmts.resize(F.numStmtIds());
    collectProfiledTargets();
    planChisAndMus();
    insertPhis();
    rename();
    H.Canonical =
        H.canonicalMap([](const ChiRecord &Chi) { return Chi.Spec; });
  }

private:
  struct ChiPlan {
    ObjectId Obj;
    bool Spec;
  };

  ObjectId pointeeObject(const Symbol *Sym) const {
    ObjectId Obj = Objs.symbolObject(Sym);
    assert(Obj != InvalidObject && "pointee missed by object discovery");
    return Obj;
  }

  /// The observed targets feed the per-vvar profiled-target sets.
  void collectProfiledTargets() {
    if (!Profile)
      return;
    for (unsigned BI = 0, BE = F.numBlocks(); BI != BE; ++BI) {
      BasicBlock *BB = F.block(BI);
      for (size_t SI = 0, SE = BB->size(); SI != SE; ++SI) {
        const Stmt *S = BB->stmt(SI);
        const LevelArray<ObjectId> *Levels = Objs.levelsOf(S);
        if (!Levels)
          continue;
        for (unsigned L = 1; L <= S->Ref.Depth; ++L)
          if (const std::set<unsigned> *T = Profile->targets(&F, S->Id, L))
            ProfiledTargets[(*Levels)[L]].insert(T->begin(), T->end());
      }
    }
  }

  /// True if the profile proves the vvar \p Obj never touched \p Sym.
  bool vvarAvoidsSymbol(ObjectId Obj, const Symbol *Sym) const {
    if (!Profile)
      return false;
    auto It = ProfiledTargets.find(Obj);
    if (It == ProfiledTargets.end())
      return true; // Never executed: everything is speculative.
    return !It->second.count(Sym->Id) &&
           !It->second.count(interp::AliasProfile::UnknownTarget);
  }

  /// True if the profile proves the store site \p S (final level targets)
  /// and the vvar \p Obj are disjoint.
  bool storeAvoidsVVar(const Stmt *S, ObjectId Obj) const {
    if (!Profile)
      return false;
    const std::set<unsigned> *Stored =
        Profile->targets(&F, S->Id, S->Ref.Depth);
    if (!Stored)
      return true; // Store never executed.
    if (Stored->count(interp::AliasProfile::UnknownTarget))
      return false;
    auto It = ProfiledTargets.find(Obj);
    if (It == ProfiledTargets.end())
      return true;
    const std::set<unsigned> &Used = It->second;
    if (Used.count(interp::AliasProfile::UnknownTarget))
      return false;
    for (unsigned Sym : *Stored)
      if (Used.count(Sym))
        return false;
    return true;
  }

  void planChisAndMus() {
    PlanBegin.assign(F.numStmtIds(), 0);
    PlanEnd.assign(F.numStmtIds(), 0);
    for (unsigned BI = 0, BE = F.numBlocks(); BI != BE; ++BI) {
      BasicBlock *BB = F.block(BI);
      for (size_t SI = 0, SE = BB->size(); SI != SE; ++SI) {
        Stmt *S = BB->stmt(SI);
        HSSA::StmtEntry &E = H.Stmts[S->Id];
        E.MuBegin = static_cast<unsigned>(H.Mus.size());
        PlanBegin[S->Id] = static_cast<unsigned>(Plans.size());
        switch (S->Kind) {
        case StmtKind::Load:
          planLoad(S);
          break;
        case StmtKind::Store:
          planStore(S);
          break;
        case StmtKind::Call:
          planCall(S);
          break;
        default:
          break;
        }
        E.MuEnd = static_cast<unsigned>(H.Mus.size());
        PlanEnd[S->Id] = static_cast<unsigned>(Plans.size());
      }
    }
  }

  /// The χ plans of \p S.
  std::span<const ChiPlan> plansOf(const Stmt *S) const {
    return std::span<const ChiPlan>(Plans).subspan(
        PlanBegin[S->Id], PlanEnd[S->Id] - PlanBegin[S->Id]);
  }

  /// μs on the pointees of levels [1, EndLevel) of \p S.
  void planMus(const Stmt *S, unsigned EndLevel) {
    for (unsigned L = 1; L < EndLevel; ++L) {
      MemRef LRef = levelRef(S->Ref, L);
      for (const Symbol *Pointee : AA.mayPointees(LRef, &F)) {
        MuRecord Mu;
        Mu.Obj = pointeeObject(Pointee);
        Mu.Spec = Profile && !Profile->observed(&F, S->Id, L, Pointee);
        Mu.S = S;
        H.Mus.push_back(Mu);
      }
    }
  }

  void planLoad(Stmt *S) {
    // Interior levels and the final level each may-use their pointees.
    planMus(S, S->Ref.Depth + 1);
  }

  void planStore(Stmt *S) {
    ObjectId DataObj = Objs.levelsOf(S)->back();
    if (S->Ref.isDirect()) {
      // Writes exactly the base symbol; χ every vvar that may overlap it.
      for (const auto &[Key, VObj] : Objs.virtuals()) {
        const SSAObject &V = Objs.object(VObj);
        if (!AA.mayAlias(S->Ref, &F, V.Ref, &F))
          continue;
        Plans.push_back({VObj, vvarAvoidsSymbol(VObj, S->Ref.Base)});
      }
      // Interior reads: none for direct stores.
      return;
    }
    // Indirect store: real def of its own vvar (not a χ); χ on every
    // may-pointee symbol and on every other overlapping vvar. Interior
    // levels are reads and get μs like loads.
    planMus(S, S->Ref.Depth);
    for (const Symbol *Pointee : AA.mayPointees(S->Ref, &F)) {
      bool Spec =
          Profile && !Profile->observed(&F, S->Id, S->Ref.Depth, Pointee);
      Plans.push_back({pointeeObject(Pointee), Spec});
    }
    for (const auto &[Key, VObj] : Objs.virtuals()) {
      if (VObj == DataObj)
        continue;
      const SSAObject &V = Objs.object(VObj);
      if (!AA.mayAlias(S->Ref, &F, V.Ref, &F))
        continue;
      Plans.push_back({VObj, storeAvoidsVVar(S, VObj)});
    }
  }

  void planCall(Stmt *S) {
    // χ (never speculative) on every call-clobbered symbol object and
    // every vvar that may reach one.
    for (ObjectId Obj = 0, E = Objs.numObjects(); Obj != E; ++Obj) {
      const SSAObject &O = Objs.object(Obj);
      if (O.K == SSAObject::Kind::Symbol) {
        if (AA.isCallClobbered(O.Sym))
          Plans.push_back({Obj, false});
        continue;
      }
      for (const Symbol *Pointee : AA.mayPointees(O.Ref, &F)) {
        if (AA.isCallClobbered(Pointee)) {
          Plans.push_back({Obj, false});
          break;
        }
      }
    }
  }

  /// Places φs at the iterated dominance frontier of each object's def
  /// blocks. Per block, φs are ordered by object.
  void insertPhis() {
    // Each object's def blocks, in block order, a block noted once.
    std::vector<std::pair<ObjectId, BasicBlock *>> Defs;
    std::vector<unsigned> LastDefBlock(Objs.numObjects(), ~0u);
    auto NoteDef = [&](ObjectId Obj, BasicBlock *BB) {
      if (LastDefBlock[Obj] != BB->getId()) {
        LastDefBlock[Obj] = BB->getId();
        Defs.push_back({Obj, BB});
      }
    };
    for (unsigned BI = 0, BE = F.numBlocks(); BI != BE; ++BI) {
      BasicBlock *BB = F.block(BI);
      for (size_t SI = 0, SE = BB->size(); SI != SE; ++SI) {
        Stmt *S = BB->stmt(SI);
        if (S->isStore())
          NoteDef(Objs.levelsOf(S)->back(), BB);
        for (const ChiPlan &Plan : plansOf(S))
          NoteDef(Plan.Obj, BB);
      }
    }
    std::stable_sort(Defs.begin(), Defs.end(),
                     [](const auto &A, const auto &B) {
                       return A.first < B.first;
                     });

    // φ sites at each object's iterated frontier, grouped by block with
    // objects in id order.
    std::vector<std::pair<ObjectId, BasicBlock *>> Sites;
    std::vector<BasicBlock *> ObjDefs;
    for (auto It = Defs.begin(); It != Defs.end();) {
      ObjectId Obj = It->first;
      ObjDefs.clear();
      for (; It != Defs.end() && It->first == Obj; ++It)
        ObjDefs.push_back(It->second);
      for (BasicBlock *BB : DT.iteratedFrontier(ObjDefs))
        Sites.push_back({Obj, BB});
    }
    std::stable_sort(Sites.begin(), Sites.end(),
                     [](const auto &A, const auto &B) {
                       return A.second->getId() < B.second->getId();
                     });

    H.BlockPhiBegin.assign(F.numBlocks() + 1, 0);
    for (const auto &[Obj, BB] : Sites)
      ++H.BlockPhiBegin[BB->getId() + 1];
    for (unsigned BI = 0, BE = F.numBlocks(); BI != BE; ++BI)
      H.BlockPhiBegin[BI + 1] += H.BlockPhiBegin[BI];
    unsigned NumArgs = 0;
    for (const auto &[Obj, BB] : Sites) {
      PhiRecord Phi;
      Phi.Obj = Obj;
      Phi.BB = BB;
      H.Phis.push_back(Phi);
      PhiArgBegin.push_back(NumArgs);
      NumArgs += static_cast<unsigned>(BB->preds().size());
    }
    H.PhiArgs.assign(NumArgs, 0);
    for (size_t I = 0; I < H.Phis.size(); ++I)
      H.Phis[I].Args = std::span<const unsigned>(H.PhiArgs).subspan(
          PhiArgBegin[I], H.Phis[I].BB->preds().size());
  }

  unsigned newVersion(ObjectId Obj, const VersionOrigin &Origin) {
    Created.push_back({Obj, Origin});
    return NextVer[Obj]++;
  }

  void push(ObjectId Obj, unsigned Ver) {
    Undo.push_back({Obj, Top[Obj]});
    Top[Obj] = Ver;
  }

  void rename() {
    unsigned NumObjs = Objs.numObjects();
    H.EntryVer.assign(size_t(F.numBlocks()) * NumObjs, 0);
    H.ExitVer.assign(size_t(F.numBlocks()) * NumObjs, 0);
    NextVer.assign(NumObjs, 0);
    Top.assign(NumObjs, 0);
    for (ObjectId Obj = 0; Obj != NumObjs; ++Obj) {
      VersionOrigin LiveIn;
      LiveIn.K = VersionOrigin::Kind::LiveIn;
      LiveIn.BB = F.entry();
      newVersion(Obj, LiveIn);
    }
    renameTree();

    // Lay the versions out flat, one row per object.
    H.VersionBegin.assign(NumObjs + 1, 0);
    for (ObjectId Obj = 0; Obj != NumObjs; ++Obj)
      H.VersionBegin[Obj + 1] = H.VersionBegin[Obj] + NextVer[Obj];
    H.Origins.resize(Created.size());
    std::vector<unsigned> Fill(H.VersionBegin.begin(),
                               H.VersionBegin.end() - 1);
    for (const auto &[Obj, Origin] : Created)
      H.Origins[Fill[Obj]++] = Origin;
  }

  /// Renames every block in dominator-tree preorder. The walk keeps its
  /// own stack: the tree is as deep as the longest chain of blocks.
  void renameTree() {
    struct Frame {
      BasicBlock *BB;
      size_t NextKid;
      size_t UndoMark; ///< Undo log size on entry.
    };
    std::vector<Frame> Walk;
    Walk.push_back({F.entry(), 0, Undo.size()});
    renameBlock(F.entry());
    while (!Walk.empty()) {
      Frame &Cur = Walk.back();
      const auto &Kids = DT.children(Cur.BB);
      if (Cur.NextKid < Kids.size()) {
        BasicBlock *Kid = Kids[Cur.NextKid++];
        Walk.push_back({Kid, 0, Undo.size()});
        renameBlock(Kid);
        continue;
      }
      // Leaving the subtree: restore the versions it pushed.
      while (Undo.size() > Cur.UndoMark) {
        Top[Undo.back().first] = Undo.back().second;
        Undo.pop_back();
      }
      Walk.pop_back();
    }
  }

  /// Defines and records the versions of one block and fills its
  /// successors' φ arguments; the pushes stay on the undo log for
  /// renameTree to unwind.
  void renameBlock(BasicBlock *BB) {
    unsigned NumObjs = Objs.numObjects();

    // φ definitions first.
    unsigned PhiBegin = H.BlockPhiBegin[BB->getId()];
    unsigned PhiEnd = H.BlockPhiBegin[BB->getId() + 1];
    for (unsigned PI = PhiBegin; PI < PhiEnd; ++PI) {
      PhiRecord &Phi = H.Phis[PI];
      VersionOrigin O;
      O.K = VersionOrigin::Kind::Phi;
      O.BB = BB;
      O.PhiIndex = PI - PhiBegin;
      Phi.DefVer = newVersion(Phi.Obj, O);
      push(Phi.Obj, Phi.DefVer);
    }
    std::copy(Top.begin(), Top.end(),
              H.EntryVer.begin() + size_t(BB->getId()) * NumObjs);

    for (size_t SI = 0, SE = BB->size(); SI != SE; ++SI) {
      Stmt *S = BB->stmt(SI);
      HSSA::StmtEntry &E = H.Stmts[S->Id];
      // Record access-path versions for loads and stores.
      if (const LevelArray<ObjectId> *Levels = Objs.levelsOf(S)) {
        StmtAccess &Acc = E.Access;
        Acc.LevelObjs = *Levels;
        for (ObjectId Obj : Acc.LevelObjs)
          Acc.LevelVers.push_back(Top[Obj]);
        if (S->isStore()) {
          VersionOrigin O;
          O.K = VersionOrigin::Kind::RealDef;
          O.DefStmt = S;
          O.BB = BB;
          ObjectId DataObj = Acc.LevelObjs.back();
          Acc.DefVer = newVersion(DataObj, O);
          push(DataObj, Acc.DefVer);
        }
      }
      // μ versions.
      for (unsigned MI = E.MuBegin; MI != E.MuEnd; ++MI)
        H.Mus[MI].Ver = Top[H.Mus[MI].Obj];
      // χ defs.
      E.ChiBegin = static_cast<unsigned>(H.Chis.size());
      for (const ChiPlan &Plan : plansOf(S)) {
        ChiRecord Chi;
        Chi.Obj = Plan.Obj;
        Chi.Spec = Plan.Spec;
        Chi.S = S;
        Chi.BB = BB;
        Chi.UseVer = Top[Plan.Obj];
        VersionOrigin O;
        O.K = VersionOrigin::Kind::Chi;
        O.DefStmt = S;
        O.BB = BB;
        O.ChiIndex = static_cast<unsigned>(H.Chis.size());
        Chi.DefVer = newVersion(Plan.Obj, O);
        push(Plan.Obj, Chi.DefVer);
        H.Chis.push_back(Chi);
      }
      E.ChiEnd = static_cast<unsigned>(H.Chis.size());
    }
    std::copy(Top.begin(), Top.end(),
              H.ExitVer.begin() + size_t(BB->getId()) * NumObjs);

    // Fill successor φ arguments.
    for (BasicBlock *Succ : BB->succs()) {
      unsigned SuccBegin = H.BlockPhiBegin[Succ->getId()];
      unsigned SuccEnd = H.BlockPhiBegin[Succ->getId() + 1];
      if (SuccBegin == SuccEnd)
        continue;
      const auto &Preds = Succ->preds();
      for (size_t PI = 0; PI < Preds.size(); ++PI) {
        if (Preds[PI] != BB)
          continue;
        for (unsigned I = SuccBegin; I != SuccEnd; ++I)
          H.PhiArgs[PhiArgBegin[I] + PI] = Top[H.Phis[I].Obj];
      }
    }
  }

  HSSA &H;
  ir::Function &F;
  const ObjectTable &Objs;
  const DominatorTree &DT;
  const alias::AliasAnalysis &AA;
  const interp::AliasProfile *Profile;

  std::map<ObjectId, std::set<unsigned>> ProfiledTargets;
  std::vector<ChiPlan> Plans;
  std::vector<unsigned> PlanBegin, PlanEnd; ///< by Stmt::Id, into Plans
  std::vector<unsigned> PhiArgBegin;         ///< by φ, into H.PhiArgs
  /// Renaming state: the current version of each object, an undo log of
  /// (object, previous version) for leaving a dominator subtree, and
  /// every version created, in creation order.
  std::vector<unsigned> Top;
  std::vector<std::pair<ObjectId, unsigned>> Undo;
  std::vector<unsigned> NextVer;
  std::vector<std::pair<ObjectId, VersionOrigin>> Created;
};

} // namespace srp::ssa

HSSA::HSSA(ir::Function &F, const DominatorTree &DT,
           const alias::AliasAnalysis &AA,
           const interp::AliasProfile *Profile)
    : F(F), Objs(F, AA) {
  HSSABuilder(*this, DT, AA, Profile).run();
}

VersionTable HSSA::uncollapsedMap() const {
  constexpr unsigned Unknown = ~0u;
  VersionTable Map;
  Map.RowBegin = VersionBegin.data();
  Map.Vals.assign(Origins.size(), Unknown);
  for (ObjectId Obj = 0, E = numObjects(); Obj != E; ++Obj)
    for (unsigned Ver = 0, VE = numVersions(Obj); Ver != VE; ++Ver) {
      VersionOrigin::Kind K = origin(Obj, Ver).K;
      if (K == VersionOrigin::Kind::LiveIn ||
          K == VersionOrigin::Kind::RealDef)
        Map[Obj][Ver] = Ver;
    }
  return Map;
}

// Optimistic fixpoint over a two-level lattice (Unknown above everything,
// then concrete/self): collapsible χ defs take the canonical version they
// shadow; φs take the single canonical version of their arguments (cycles
// through still-Unknown arguments are ignored optimistically, which is what
// lets loop-carried φs collapse, Figure 3) or pin to themselves on a real
// merge. The optimistic result can depend on the sweep order, so each
// object's versions are swept in version order until a sweep changes
// nothing. χ uses and φ arguments are versions of the same object, so
// objects never feed each other and each one is solved on its own, in id
// order.
void HSSA::solveCanonical(VersionTable &Map) const {
  constexpr unsigned Unknown = ~0u;
  for (ObjectId Obj = 0, NumObjs = numObjects(); Obj != NumObjs; ++Obj) {
    unsigned *Canon = Map[Obj];
    const VersionOrigin *Row = &Origins[VersionBegin[Obj]];
    unsigned NumVers = numVersions(Obj);
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (unsigned Ver = 0; Ver != NumVers; ++Ver) {
        if (Canon[Ver] == Ver)
          continue; // Already pinned to self.
        const VersionOrigin &O = Row[Ver];
        unsigned NewVal = Canon[Ver];
        if (O.K == VersionOrigin::Kind::Chi) {
          NewVal = Canon[Chis[O.ChiIndex].UseVer];
        } else if (O.K == VersionOrigin::Kind::Phi) {
          const PhiRecord &Phi =
              Phis[BlockPhiBegin[O.BB->getId()] + O.PhiIndex];
          NewVal = Unknown;
          for (unsigned Arg : Phi.Args) {
            unsigned ArgCanon = Canon[Arg];
            if (ArgCanon == Unknown)
              continue; // Optimistically ignore cycles.
            if (NewVal == Unknown)
              NewVal = ArgCanon;
            else if (NewVal != ArgCanon)
              NewVal = Ver; // Real merge: canonical is itself.
          }
        }
        if (NewVal != Canon[Ver] && NewVal != Unknown) {
          Canon[Ver] = NewVal;
          Changed = true;
        }
      }
    }
    // Anything still unknown is an unresolvable self-cycle; pin to self.
    for (unsigned Ver = 0; Ver != NumVers; ++Ver)
      if (Canon[Ver] == Unknown)
        Canon[Ver] = Ver;
  }
}

std::vector<const ChiRecord *>
HSSA::speculatedChis(ObjectId Obj, unsigned CanonicalVer) const {
  std::vector<const ChiRecord *> Result;
  for (const ChiRecord &Chi : Chis)
    if (Chi.Obj == Obj && Chi.Spec &&
        Canonical[Obj][Chi.DefVer] == CanonicalVer)
      Result.push_back(&Chi);
  return Result;
}
