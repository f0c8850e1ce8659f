//===- PromotionContext.cpp - Shared helpers of the SSAPRE stages -------------===//

#include "pre/PromotionContext.h"

#include <cassert>

using namespace srp;
using namespace srp::ir;
using namespace srp::ssa;
using namespace srp::pre;
using namespace srp::pre::detail;

bool PromotionContext::chiCollapsibleData(const ChiRecord &Chi) const {
  if (!Chi.S || !Chi.S->isStore())
    return false; // Calls always end a version.
  if (Config.EnableAlat && Chi.Spec)
    return true;
  return Config.EnableSoftwareCheck;
}

bool PromotionContext::chiCollapsibleAddr(const ChiRecord &Chi) const {
  // Address parts may only be speculated with chk.a recovery (§2.4).
  return Config.EnableAlat && Config.EnableCascade && Chi.S &&
         Chi.S->isStore() && Chi.Spec;
}

Sig PromotionContext::rawSigOfOcc(const ExprInfo &E,
                                  const Occurrence &O) const {
  const StmtAccess *Acc = H.accessInfo(O.S);
  assert(Acc && "occurrence without access info");
  Sig Raw = Acc->LevelVers;
  if (O.IsStore)
    Raw.back() = Acc->DefVer; // A store provides the version it defines.
  return Raw;
}
