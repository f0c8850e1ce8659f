//===- AnalysisCache.cpp - Cached per-function analyses -----------------------===//

#include "ssa/AnalysisCache.h"

#include "support/Stats.h"

using namespace srp;
using namespace srp::ssa;

DominatorTree &AnalysisCache::dominators(ir::Function &F) {
  Entry &E = Entries[&F];
  if (!E.DT) {
    ++Stats.Misses;
    E.DT = std::make_unique<DominatorTree>(F);
  } else {
    ++Stats.Hits;
  }
  return *E.DT;
}

LoopInfo &AnalysisCache::loops(ir::Function &F) {
  DominatorTree &DT = dominators(F);
  Entry &E = Entries[&F];
  if (!E.LI) {
    ++Stats.Misses;
    E.LI = std::make_unique<LoopInfo>(DT);
  } else {
    ++Stats.Hits;
  }
  return *E.LI;
}

void AnalysisCache::invalidate(ir::Function &F) {
  if (Entries.erase(&F))
    ++Stats.Invalidations;
}

void AnalysisCache::publishStats() {
  StatsRegistry &SR = StatsRegistry::current();
  SR.add("analysis.cache.hits", Stats.Hits - Published.Hits);
  SR.add("analysis.cache.misses", Stats.Misses - Published.Misses);
  SR.add("analysis.cache.invalidations",
         Stats.Invalidations - Published.Invalidations);
  Published = Stats;
}
