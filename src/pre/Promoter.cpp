//===- Promoter.cpp - SSAPRE promotion orchestrator ---------------------------===//
//
// The per-function driver of the staged SSAPRE pass. The stages
// themselves live in their own translation units (see PromotionContext.h
// for the map); this file only sequences them, accumulates per-stage wall
// time, and keeps the function's dominators and loops across its
// promotion runs until a run changes the function.
//
//===----------------------------------------------------------------------===//

#include "pre/Promoter.h"

#include "pre/CopyProp.h"
#include "pre/PromotionContext.h"

#include "ir/Verifier.h"
#include "support/Stats.h"
#include "support/Timer.h"

#include <optional>

using namespace srp;
using namespace srp::ir;
using namespace srp::ssa;
using namespace srp::pre;
using namespace srp::pre::detail;

PromotionStats detail::runPromotion(PromotionContext &Ctx,
                                    StageTimings &T) {
  {
    ScopedTimer ST(T.PhiInsertion);
    Ctx.CanonData = Ctx.H.canonicalMap(
        [&Ctx](const ChiRecord &Chi) { return Ctx.chiCollapsibleData(Chi); });
    Ctx.CanonAddr = Ctx.H.canonicalMap(
        [&Ctx](const ChiRecord &Chi) { return Ctx.chiCollapsibleAddr(Chi); });
    computeTempDefs(Ctx);
    collectExpressions(Ctx);
  }
  for (auto &[Key, E] : Ctx.Exprs) {
    if (!exprEligible(Ctx, E))
      continue;
    ExprWork W;
    {
      ScopedTimer ST(T.PhiInsertion);
      insertPhis(Ctx, E, W);
    }
    {
      ScopedTimer ST(T.Rename);
      renameExpression(Ctx, E, W);
    }
    {
      ScopedTimer ST(T.DownSafety);
      computeDownSafety(Ctx, E, W);
    }
    {
      ScopedTimer ST(T.WillBeAvail);
      computeWillBeAvail(Ctx, E, W);
    }
    {
      ScopedTimer ST(T.CodeMotion);
      planCodeMotion(Ctx, E, W);
    }
  }
  {
    ScopedTimer ST(T.Apply);
    applyPlan(Ctx);
  }
  {
    ScopedTimer ST(T.Cleanup);
    cleanupChecks(Ctx);
  }
  return Ctx.Stats;
}

namespace {

/// Records the per-stage wall time into the process-wide registry so
/// `--stats` shows where promotion time goes across a whole run.
void recordStageTimes(const StageTimings &T) {
  StatsRegistry &R = StatsRegistry::current();
  R.add("pre.hssa.us", T.HSSA / 1000);
  R.add("pre.phiinsertion.us", T.PhiInsertion / 1000);
  R.add("pre.rename.us", T.Rename / 1000);
  R.add("pre.downsafety.us", T.DownSafety / 1000);
  R.add("pre.willbeavail.us", T.WillBeAvail / 1000);
  R.add("pre.codemotion.us", T.CodeMotion / 1000);
  R.add("pre.apply.us", T.Apply / 1000);
  R.add("pre.cleanup.us", T.Cleanup / 1000);
}

} // namespace

PromotionStats srp::pre::promoteFunction(ir::Function &F,
                                         const alias::AliasAnalysis &AA,
                                         const interp::AliasProfile *Profile,
                                         const interp::EdgeProfile *Edges,
                                         const PromotionConfig &Config) {
  F.recomputeCFG();
  StageTimings Times;
  // F's dominators and loops, dropped after a run that changed F.
  std::optional<DominatorTree> DT;
  std::optional<LoopInfo> LI;

  auto PlanEmpty = [](const MutationPlan &P) {
    return P.EdgeInserts.empty() && P.DefLoads.empty() &&
           P.DefStores.empty() && P.Reuses.empty() &&
           P.InvalaReuses.empty() && P.Checks.empty() &&
           P.SoftwareChecks.empty() && P.Invalas.empty() &&
           P.AddrMats.empty();
  };

  // One promotion run with the given config.
  auto RunOnce = [&](const PromotionConfig &Cfg) {
    if (!DT) {
      DT.emplace(F);
      LI.emplace(*DT);
    }
    std::optional<PromotionContext> Ctx;
    {
      ScopedTimer ST(Times.HSSA);
      Ctx.emplace(F, AA, Profile, Edges, Cfg, *DT, *LI);
    }
    PromotionStats S = runPromotion(*Ctx, Times);
    // The run mutated F iff the plan applied anything or cleanup erased
    // a check; copy propagation below may rewrite further. Drop the
    // analyses only then: an empty run leaves them live for the second
    // (conservative) run.
    bool Mutated = !PlanEmpty(Ctx->Plan) || S.ChecksRemovedByCleanup != 0;
    CopyPropStats CP = propagateCopies(F);
    Mutated |= CP.UsesRewritten != 0 || CP.AssignsRemoved != 0;
    if (Mutated) {
      LI.reset();
      DT.reset();
      F.recomputeCFG();
    }
    return S;
  };

  PromotionStats Stats = RunOnce(Config);
  // The strategy's optimistic canonical collapse can hide plain
  // (non-speculative) PRE arrangements when the run-time check mechanism
  // turns out infeasible for a reuse. A conservative cleanup pass picks
  // those up; it never speculates, so running it after any strategy is
  // sound. (Coalescing the snapshot copies afterwards keeps the simulated
  // instruction stream free of pseudo moves.)
  if (Config.EnableAlat || Config.EnableSoftwareCheck)
    Stats += RunOnce(PromotionConfig::conservative());

  recordStageTimes(Times);
  // Promotion must leave well-formed IR behind; dying here (with the
  // function named) pins a verifier regression to the pass and function
  // that produced it instead of a later whole-module sweep.
  ir::verifyOrDie(F, "after promotion");
  return Stats;
}

PromotionStats srp::pre::promoteModule(ir::Module &M,
                                       const alias::AliasAnalysis &AA,
                                       const interp::AliasProfile *Profile,
                                       const interp::EdgeProfile *Edges,
                                       const PromotionConfig &Config,
                                       ssa::AnalysisCache *) {
  PromotionStats Total;
  for (unsigned I = 0; I < M.numFunctions(); ++I)
    Total += promoteFunction(*M.function(I), AA, Profile, Edges, Config);
  return Total;
}
