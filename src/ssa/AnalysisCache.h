//===- AnalysisCache.h - Cached per-function analyses -----------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A per-pipeline cache of the dominator tree and loop nest of each
/// function, the analyses the promoter builds HSSA on. Analyses are
/// computed on first request and reused until the promoter invalidates
/// the function after a mutating run (DESIGN.md §3a).
/// The cache is deliberately per-pipeline, never global: the parallel
/// experiment driver runs one pipeline per worker thread, and a shared
/// cache would either race or serialize them.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_SSA_ANALYSISCACHE_H
#define SRP_SSA_ANALYSISCACHE_H

#include "ssa/Dominators.h"

#include <cstdint>
#include <map>
#include <memory>

namespace srp::ssa {

/// Caches DominatorTree and LoopInfo per function. Not thread-safe by
/// design (see file comment); each pipeline owns its own instance.
class AnalysisCache {
public:
  /// Dominator tree of \p F, computed on first request. The reference is
  /// stable until invalidate(F).
  DominatorTree &dominators(ir::Function &F);

  /// Loop nest of \p F (computes the dominator tree if needed).
  LoopInfo &loops(ir::Function &F);

  /// Drops cached analyses of \p F. Whoever mutates a function must call
  /// this before the next request for it.
  void invalidate(ir::Function &F);

  /// Cache effectiveness counters (observability, tested).
  struct CacheStats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Invalidations = 0;
  };
  const CacheStats &stats() const { return Stats; }

  /// Adds the counters accumulated since the last call into the
  /// process-wide StatsRegistry as `analysis.cache.{hits,misses,
  /// invalidations}`. Called by the pass manager at end of pipeline;
  /// delta-based, so repeated calls never double-count.
  void publishStats();

private:
  struct Entry {
    std::unique_ptr<DominatorTree> DT;
    std::unique_ptr<LoopInfo> LI;
  };
  std::map<const ir::Function *, Entry> Entries;
  CacheStats Stats;
  CacheStats Published; ///< publishStats() watermark
};

} // namespace srp::ssa

#endif // SRP_SSA_ANALYSISCACHE_H
