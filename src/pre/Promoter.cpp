//===- Promoter.cpp - SSAPRE promotion orchestrator ---------------------------===//
//
// The per-function driver of the staged SSAPRE pass. The stages
// themselves live in their own translation units (see PromotionContext.h
// for the map); this file only sequences them, accumulates per-stage wall
// time, and draws dominators and loops from an AnalysisCache (the
// caller's, else a local one) so an unchanged function reuses them
// across its promotion runs.
//
//===----------------------------------------------------------------------===//

#include "pre/Promoter.h"

#include "pre/CopyProp.h"
#include "pre/PromotionContext.h"

#include "ir/Verifier.h"
#include "ssa/AnalysisCache.h"
#include "support/Stats.h"
#include "support/Timer.h"

#include <optional>

using namespace srp;
using namespace srp::ir;
using namespace srp::ssa;
using namespace srp::pre;
using namespace srp::pre::detail;

PromotionStats detail::runPromotion(PromotionContext &Ctx,
                                    StageTimings *Timings) {
  StageTimings Local;
  StageTimings &T = Timings ? *Timings : Local;
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
  R.add("pre.hssa.us", T.HSSA);
  R.add("pre.phiinsertion.us", T.PhiInsertion);
  R.add("pre.rename.us", T.Rename);
  R.add("pre.downsafety.us", T.DownSafety);
  R.add("pre.willbeavail.us", T.WillBeAvail);
  R.add("pre.codemotion.us", T.CodeMotion);
  R.add("pre.apply.us", T.Apply);
  R.add("pre.cleanup.us", T.Cleanup);
}

} // namespace

PromotionStats srp::pre::promoteFunction(ir::Function &F,
                                         const alias::AliasAnalysis &AA,
                                         const interp::AliasProfile *Profile,
                                         const interp::EdgeProfile *Edges,
                                         const PromotionConfig &Config,
                                         ssa::AnalysisCache *Cache) {
  // Earlier mutating passes are contractually required to have
  // invalidated F already (AnalysisCache.h), so a cached dominator tree
  // here is still valid; recomputing the edge lists is idempotent.
  F.recomputeCFG();
  StageTimings Times;
  ssa::AnalysisCache Local;
  ssa::AnalysisCache &AC = Cache ? *Cache : Local;

  auto PlanEmpty = [](const MutationPlan &P) {
    return P.EdgeInserts.empty() && P.DefLoads.empty() &&
           P.DefStores.empty() && P.Reuses.empty() &&
           P.InvalaReuses.empty() && P.Checks.empty() &&
           P.SoftwareChecks.empty() && P.Invalas.empty() &&
           P.AddrMats.empty();
  };

  // One promotion run with the given config.
  auto RunOnce = [&](const PromotionConfig &Cfg) {
    const DominatorTree &DT = AC.dominators(F);
    const LoopInfo &LI = AC.loops(F);
    std::optional<PromotionContext> Ctx;
    {
      ScopedTimer ST(Times.HSSA);
      Ctx.emplace(F, AA, Profile, Edges, Cfg, DT, LI);
    }
    PromotionStats S = runPromotion(*Ctx, &Times);
    // The run mutated F iff the plan applied anything or cleanup erased
    // a check; copy propagation below may rewrite further. Invalidate
    // only then — an empty run leaves the cached dominators and loops
    // live for the second (conservative) run and the verifier passes.
    bool Mutated = !PlanEmpty(Ctx->Plan) || S.ChecksRemovedByCleanup != 0;
    CopyPropStats CP = propagateCopies(F);
    Mutated |= CP.UsesRewritten != 0 || CP.AssignsRemoved != 0;
    if (Mutated) {
      AC.invalidate(F);
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
                                       ssa::AnalysisCache *Cache) {
  PromotionStats Total;
  for (unsigned I = 0; I < M.numFunctions(); ++I)
    Total += promoteFunction(*M.function(I), AA, Profile, Edges, Config,
                             Cache);
  return Total;
}
