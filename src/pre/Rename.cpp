//===- Rename.cpp - The speculative SSAPRE Rename walk ------------------------===//
//
// Stage 2 of the staged SSAPRE pass (see PromotionContext.h): a dominator-
// tree walk assigning expression versions to occurrences and Φ operands.
// The version comparison uses *canonical* constituent versions — the
// speculative Rename of §3.3: χs the active strategy can check at run
// time do not end a version, which is what creates speculative
// redundancy.
//
//===----------------------------------------------------------------------===//

#include "pre/PromotionContext.h"

#include <cassert>

using namespace srp;
using namespace srp::ir;
using namespace srp::pre;
using namespace srp::pre::detail;

void detail::renameExpression(PromotionContext &Ctx, ExprInfo &E,
                              ExprWork &W) {
  // Occurrence ranges by block.
  W.BlockOccs.assign(Ctx.F.numBlocks(), {0u, 0u});
  for (unsigned OI = 0; OI < E.Occs.size(); ++OI) {
    std::pair<unsigned, unsigned> &Range = W.BlockOccs[E.Occs[OI].BB->getId()];
    if (Range.first == Range.second)
      Range.first = OI;
    else
      assert(Range.second == OI && "a block's occurrences are contiguous");
    Range.second = OI + 1;
  }

  struct StackEntry {
    unsigned Ver;
  };
  std::vector<StackEntry> Stack;

  // Recursive dominator walk (explicit stack of work items).
  struct WalkFrame {
    BasicBlock *BB;
    size_t ChildIdx;
    size_t StackMark;
  };
  std::vector<WalkFrame> Walk;
  Walk.push_back({Ctx.F.entry(), 0, 0});

  bool EnteringNew = true;
  while (!Walk.empty()) {
    WalkFrame &Frame = Walk.back();
    BasicBlock *BB = Frame.BB;
    if (EnteringNew) {
      Frame.StackMark = Stack.size();
      // Φ definition.
      unsigned PhiIdx = W.PhiAtBlock[BB->getId()];
      if (PhiIdx != ~0u) {
        ExprPhi &Phi = W.Phis[PhiIdx];
        ExprVer &V = W.Vers[Phi.Version];
        V.RawSig = Ctx.rawSigAtEntry(E, BB);
        V.CanonSig = Ctx.canonSigAt(E, V.RawSig);
        Stack.push_back({Phi.Version});
      }
      // Real occurrences in block order.
      {
        auto [OccBegin, OccEnd] = W.BlockOccs[BB->getId()];
        for (unsigned OI = OccBegin; OI != OccEnd; ++OI) {
          Occurrence &O = E.Occs[OI];
          Sig Raw = Ctx.rawSigOfOcc(E, O);
          Sig Canon = Ctx.canonSigAt(E, Raw);
          if (!O.IsStore && !Stack.empty() &&
              W.Vers[Stack.back().Ver].CanonSig == Canon) {
            // Redundant (possibly speculatively).
            unsigned TopVer = Stack.back().Ver;
            O.Version = TopVer;
            O.Redundant = true;
            O.RawEqual = W.Vers[TopVer].RawSig == Raw;
            W.Vers[TopVer].HasRealUse = true;
            if (W.Vers[TopVer].Kind == ExprVer::DefKind::Phi) {
              // Refinement: if the Φ cannot be materialized, this load
              // stays and anchors the reuses after it.
              ExprVer R;
              R.Kind = ExprVer::DefKind::Real;
              R.DefOcc = OI;
              R.RawSig = Raw;
              R.CanonSig = Canon;
              R.RefinesVer = TopVer;
              Stack.push_back({static_cast<unsigned>(W.Vers.size())});
              W.Vers.push_back(std::move(R));
            }
            continue;
          }
          // New version defined by this occurrence.
          ExprVer V;
          V.Kind = ExprVer::DefKind::Real;
          V.DefOcc = OI;
          V.RawSig = Raw;
          V.CanonSig = Canon;
          O.Version = static_cast<unsigned>(W.Vers.size());
          W.Vers.push_back(std::move(V));
          Stack.push_back({O.Version});
        }
      }
      // Fill successor Φ operands.
      Sig ExitCanon;
      bool HaveExitCanon = false;
      for (BasicBlock *Succ : BB->succs()) {
        unsigned SuccPhi = W.PhiAtBlock[Succ->getId()];
        if (SuccPhi == ~0u)
          continue;
        if (!HaveExitCanon) {
          ExitCanon = Ctx.canonSigAt(E, Ctx.rawSigAtExit(E, BB));
          HaveExitCanon = true;
        }
        ExprPhi &Phi = W.Phis[SuccPhi];
        for (size_t PI = 0; PI < Succ->preds().size(); ++PI) {
          if (Succ->preds()[PI] != BB)
            continue;
          if (!Stack.empty() &&
              W.Vers[Stack.back().Ver].CanonSig == ExitCanon)
            Phi.Operands[PI] = Stack.back().Ver;
        }
      }
    }
    // Descend into dominator-tree children.
    const auto &Kids = Ctx.DT.children(BB);
    if (Frame.ChildIdx < Kids.size()) {
      BasicBlock *Kid = Kids[Frame.ChildIdx++];
      Walk.push_back({Kid, 0, 0});
      EnteringNew = true;
      continue;
    }
    Stack.resize(Frame.StackMark);
    Walk.pop_back();
    EnteringNew = false;
  }
}
