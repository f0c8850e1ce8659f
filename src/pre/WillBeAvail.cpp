//===- WillBeAvail.cpp - Availability of expression Φs ------------------------===//
//
// Stage 4 of the staged SSAPRE pass (see PromotionContext.h): the
// classic WillBeAvail = CanBeAvail ∧ ¬Later computation, plus the
// edge-profile profitability gate that rejects insertions executing more
// often than the loads they save.
//
//===----------------------------------------------------------------------===//

#include "pre/PromotionContext.h"

using namespace srp;
using namespace srp::pre;
using namespace srp::pre::detail;

void detail::computeWillBeAvail(PromotionContext &Ctx, const ExprInfo &E,
                                ExprWork &W) {
  auto OperandCBA = [&](unsigned Op) {
    if (Op == ~0u)
      return false;
    const ExprVer &V = W.Vers[Op];
    if (V.Kind == ExprVer::DefKind::Phi)
      return W.Phis[V.PhiId].CanBeAvail;
    return true;
  };
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (ExprPhi &Phi : W.Phis) {
      if (!Phi.CanBeAvail)
        continue;
      if (Phi.DownSafe)
        continue;
      for (unsigned Op : Phi.Operands) {
        if (Op == ~0u || !OperandCBA(Op)) {
          Phi.CanBeAvail = false;
          Changed = true;
          break;
        }
      }
    }
  }
  // Later: an insertion is postponable unless some operand already carries
  // a real value.
  for (ExprPhi &Phi : W.Phis)
    Phi.Later = Phi.CanBeAvail;
  Changed = true;
  while (Changed) {
    Changed = false;
    for (ExprPhi &Phi : W.Phis) {
      if (!Phi.Later)
        continue;
      for (unsigned Op : Phi.Operands) {
        if (Op == ~0u)
          continue;
        const ExprVer &V = W.Vers[Op];
        bool CarriesRealValue =
            V.Kind == ExprVer::DefKind::Real || V.HasRealUse ||
            (V.Kind == ExprVer::DefKind::Phi && !W.Phis[V.PhiId].Later);
        if (CarriesRealValue) {
          Phi.Later = false;
          Changed = true;
          break;
        }
      }
    }
  }
  // Edge-profile profitability: an insertion that would execute more often
  // than the loads it saves is rejected.
  if (Ctx.Edges) {
    for (ExprPhi &Phi : W.Phis) {
      if (!Phi.willBeAvail())
        continue;
      uint64_t InsertCost = 0;
      for (size_t PI = 0; PI < Phi.Operands.size(); ++PI) {
        unsigned Op = Phi.Operands[PI];
        bool NeedsInsert =
            Op == ~0u || (W.Vers[Op].Kind == ExprVer::DefKind::Phi &&
                          !W.Phis[W.Vers[Op].PhiId].willBeAvail());
        if (NeedsInsert)
          InsertCost += Ctx.Edges->edgeCount(Phi.BB->preds()[PI], Phi.BB);
      }
      uint64_t Benefit = 0;
      for (const Occurrence &O : E.Occs)
        if (O.Redundant && O.Version == Phi.Version)
          Benefit += Ctx.Edges->blockCount(O.BB);
      // Benefit through transitive Φs is ignored; this under-approximates
      // but only ever rejects insertions, never miscompiles.
      if (InsertCost > Benefit)
        Phi.Unprofitable = true;
    }
  }
}
