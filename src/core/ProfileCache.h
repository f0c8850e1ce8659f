//===- ProfileCache.h - Shared train-run profiles ---------------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The experiment grid crosses workloads with promotion configs, and the
/// train run (interpret the train-scale build, collect alias and edge
/// profiles) depends only on the workload — every config of a workload
/// interprets the identical program and collects the identical profile.
/// ProfileCache memoizes the profiles of that run. They are keyed by
/// function index and block/statement id (interp/Profile.h), which the
/// train and ref builds share, so a later pipeline copies them as they
/// are.
///
/// Determinism: a cached profile is a pure function of the cache key
/// (workload, train scale, interpreter fuel), so which worker computes
/// it — or whether two compute it racing and one insert wins — cannot
/// change any pipeline's result. core::runExperiments stays byte-
/// identical at any thread count.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_CORE_PROFILECACHE_H
#define SRP_CORE_PROFILECACHE_H

#include "interp/Profile.h"

#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace srp::core {

/// The profiles of one train run.
struct TrainProfile {
  interp::AliasProfile Alias;
  interp::EdgeProfile Edges;
};

/// Keyed profile store shared by all pipelines of one experiment run.
class ProfileCache {
public:
  std::shared_ptr<const TrainProfile> lookup(const std::string &Key) const {
    std::lock_guard<std::mutex> L(M);
    auto It = Map.find(Key);
    return It == Map.end() ? nullptr : It->second;
  }

  /// First insert for a key wins; a losing duplicate is discarded (it is
  /// identical by construction).
  void insert(const std::string &Key, std::shared_ptr<const TrainProfile> P) {
    std::lock_guard<std::mutex> L(M);
    Map.try_emplace(Key, std::move(P));
  }

private:
  mutable std::mutex M;
  std::map<std::string, std::shared_ptr<const TrainProfile>> Map;
};

} // namespace srp::core

#endif // SRP_CORE_PROFILECACHE_H
