//===- ResultCache.h - Content-addressed pipeline result cache --*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving-path result cache: canonical request key (canonicalized
/// workload IR + pipeline configuration, see core/Serve.h) → serialized
/// PipelineResult. A pipeline run is a pure function of that key (the
/// PR-3 invariant the whole serve architecture stands on), so a cached
/// body may be returned for any repeat request, byte for byte.
///
/// Concurrency: one mutex guards one LRU list under one byte budget. A
/// hit holds it for one hash lookup, one list splice and one body copy,
/// too short to contend at the daemon's thread counts; an insert that
/// would overflow the budget evicts least-recently-used entries first.
///
/// Correctness under collision: entries are stored and compared by the
/// *full* key string, so two canonicalized-but-distinct requests can
/// never alias — a hash collision only means two entries share a bucket.
///
/// Counters (StatsRegistry::current()): serve.cache.hits / .misses /
/// .evictions / .insertions / .uncacheable.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_CORE_RESULTCACHE_H
#define SRP_CORE_RESULTCACHE_H

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace srp::core {

struct ResultCacheConfig {
  /// Byte budget, counting keys and bodies.
  size_t ByteBudget = 256u << 20;
};

/// Byte-budgeted LRU result cache (see file comment). All public methods
/// are thread-safe.
class ResultCache {
public:
  explicit ResultCache(const ResultCacheConfig &Config = {})
      : Budget(Config.ByteBudget) {}

  /// The body stored for \p Key, refreshing its LRU position; nullopt on
  /// miss. Counts serve.cache.hits / serve.cache.misses.
  std::optional<std::string> lookup(std::string_view Key);

  /// Stores \p Body under \p Key, evicting LRU entries as needed. An
  /// entry bigger than the whole budget is not cached (counted
  /// serve.cache.uncacheable); re-inserting an existing key replaces its
  /// body. Values are immutable once stored — the serve path only ever
  /// inserts the deterministic result of a cold run.
  void insert(std::string_view Key, std::string Body);

  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
    uint64_t Insertions = 0;
    uint64_t Uncacheable = 0;
    size_t Bytes = 0;   ///< Resident key+body bytes.
    size_t Entries = 0; ///< Resident entries.
  };
  Stats stats() const;

private:
  struct Entry {
    std::string Key;
    std::string Body;
    size_t bytes() const { return Key.size() + Body.size(); }
  };

  const size_t Budget;
  mutable std::mutex Mutex;
  /// Front = most recently used.
  std::list<Entry> Lru;
  std::unordered_map<std::string_view, std::list<Entry>::iterator> Index;
  /// The counters and resident Bytes; Entries is Lru.size().
  Stats Totals;
};

} // namespace srp::core

#endif // SRP_CORE_RESULTCACHE_H
