//===- DownSafety.cpp - Anticipation-based down-safety ------------------------===//
//
// Stage 3 of the staged SSAPRE pass (see PromotionContext.h): DownSafety
// via all-paths anticipation, the index-temp dominance pin, and the §2.3
// control-speculation override that lets a profitable non-down-safe Φ
// insert anyway (the Figure 3 ld.sa pattern).
//
//===----------------------------------------------------------------------===//

#include "pre/PromotionContext.h"

using namespace srp;
using namespace srp::ir;
using namespace srp::ssa;
using namespace srp::pre;
using namespace srp::pre::detail;

void detail::computeDownSafety(PromotionContext &Ctx, const ExprInfo &E,
                               ExprWork &W) {
  if (W.Phis.empty())
    return; // Down-safety is a property of Φs only.
  Function &F = Ctx.F;
  // TRANSP(B): no constituent changes canonically inside B, and the index
  // temp is not defined in B. ANTLOC(B): a load occurrence whose canonical
  // signature equals the block-entry signature.
  unsigned NumBlocks = F.numBlocks();
  std::vector<char> Transp(NumBlocks, 0), Antloc(NumBlocks, 0);
  for (unsigned BI = 0; BI < NumBlocks; ++BI) {
    BasicBlock *BB = F.block(BI);
    if (!Ctx.DT.isReachable(BB))
      continue;
    Sig EntryCanon = Ctx.canonSigAt(E, Ctx.rawSigAtEntry(E, BB));
    Sig ExitCanon = Ctx.canonSigAt(E, Ctx.rawSigAtExit(E, BB));
    bool IndexDefHere =
        E.IndexTemp != NoTemp && Ctx.TempDefBlock[E.IndexTemp] == BB;
    Transp[BI] = EntryCanon == ExitCanon && !IndexDefHere;
    auto [OccBegin, OccEnd] = W.BlockOccs[BI];
    for (unsigned OI = OccBegin; OI != OccEnd; ++OI) {
      const Occurrence &O = E.Occs[OI];
      if (O.IsStore)
        continue;
      // An occurrence below the index temp's definition cannot be
      // anticipated at block entry (the index is not yet computed).
      if (IndexDefHere) {
        bool DefSeen = false;
        for (unsigned P = 0; P < O.OrderInBlock && P < BB->size(); ++P)
          if (BB->stmt(P)->definesTemp() && BB->stmt(P)->Dst == E.IndexTemp)
            DefSeen = true;
        if (DefSeen)
          continue;
      }
      if (Ctx.canonSigAt(E, Ctx.rawSigOfOcc(E, O)) == EntryCanon) {
        Antloc[BI] = 1;
        break;
      }
    }
  }
  // The greatest fixpoint, from all-anticipated. It does not depend on
  // the sweep order, so the backward problem sweeps reachable blocks in
  // postorder, where most blocks see their successors' final values.
  std::vector<char> Antic(NumBlocks, 1);
  const std::vector<BasicBlock *> &Rpo = Ctx.DT.rpo();
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (auto It = Rpo.rbegin(); It != Rpo.rend(); ++It) {
      BasicBlock *BB = *It;
      unsigned BI = BB->getId();
      char Out = BB->succs().empty() ? 0 : 1;
      for (BasicBlock *Succ : BB->succs())
        Out = Out && Antic[Succ->getId()];
      char In = Antloc[BI] || (Transp[BI] && Out);
      if (In != Antic[BI]) {
        Antic[BI] = In;
        Changed = true;
      }
    }
  }
  for (ExprPhi &Phi : W.Phis)
    Phi.DownSafe = Antic[Phi.BB->getId()];
  // Insertions driven by a Φ outside the index temp's dominance region
  // would load through an undefined index; forbid them. Dominating every
  // insertion edge needs *strict* dominance: a Φ in the def's own block
  // evaluates at block entry, before the def runs.
  std::vector<char> PhiPinned(W.Phis.size(), 0);
  if (E.IndexTemp != NoTemp && Ctx.TempDefBlock[E.IndexTemp])
    for (size_t PhiI = 0; PhiI < W.Phis.size(); ++PhiI)
      if (Ctx.TempDefBlock[E.IndexTemp] == W.Phis[PhiI].BB ||
          !Ctx.DT.dominates(Ctx.TempDefBlock[E.IndexTemp],
                            W.Phis[PhiI].BB)) {
        W.Phis[PhiI].DownSafe = false;
        W.Phis[PhiI].CanBeAvail = false;
        PhiPinned[PhiI] = 1;
      }

  // Control speculation (§2.3): a non-down-safe Φ may still be allowed to
  // insert (the Figure 3 ld.sa pattern) when the profile says the reuses
  // outweigh the inserted executions, or — without a profile — when the Φ
  // heads a loop that contains every reuse (classic invariant hoisting).
  if (Ctx.Config.EnableAlat || Ctx.Config.EnableSoftwareCheck) {
    for (size_t PhiI = 0; PhiI < W.Phis.size(); ++PhiI) {
      ExprPhi &Phi = W.Phis[PhiI];
      if (Phi.DownSafe || PhiPinned[PhiI])
        continue;
      uint64_t Benefit = 0, Cost = 0;
      bool AllUsesInLoop = true;
      const LoopInfo::Loop *L = Ctx.LI.loopFor(Phi.BB);
      bool IsHeader = L && L->Header == Phi.BB;
      unsigned Reuses = 0;
      for (const Occurrence &O : E.Occs) {
        if (!O.Redundant || O.Version != Phi.Version)
          continue;
        ++Reuses;
        if (Ctx.Edges)
          Benefit += Ctx.Edges->blockCount(O.BB);
        if (!IsHeader || !L->contains(O.BB))
          AllUsesInLoop = false;
      }
      if (Reuses == 0)
        continue;
      if (Ctx.Edges) {
        for (size_t PI = 0; PI < Phi.Operands.size(); ++PI)
          if (Phi.Operands[PI] == ~0u)
            Cost += Ctx.Edges->edgeCount(Phi.BB->preds()[PI], Phi.BB);
        if (Benefit > Cost)
          Phi.DownSafe = true;
      } else if (IsHeader && AllUsesInLoop) {
        Phi.DownSafe = true;
      }
    }
  }
}
