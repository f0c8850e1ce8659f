//===- ResultCache.cpp - Content-addressed pipeline result cache ---------------===//

#include "core/ResultCache.h"

#include "support/Stats.h"

using namespace srp;
using namespace srp::core;

std::optional<std::string> ResultCache::lookup(std::string_view Key) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Index.find(Key);
  if (It == Index.end()) {
    ++Totals.Misses;
    StatsRegistry::current().add("serve.cache.misses", 1);
    return std::nullopt;
  }
  // Full-key equality is the map's own contract (string_view keys over
  // the stored Entry::Key), so a hash collision can only have put two
  // entries in one bucket — never returned the wrong one.
  Lru.splice(Lru.begin(), Lru, It->second);
  ++Totals.Hits;
  StatsRegistry::current().add("serve.cache.hits", 1);
  return It->second->Body;
}

void ResultCache::insert(std::string_view Key, std::string Body) {
  std::lock_guard<std::mutex> Lock(Mutex);

  auto It = Index.find(Key);
  if (It != Index.end()) {
    Totals.Bytes -= It->second->bytes();
    It->second->Body = std::move(Body);
    Totals.Bytes += It->second->bytes();
    Lru.splice(Lru.begin(), Lru, It->second);
  } else {
    if (Key.size() + Body.size() > Budget) {
      ++Totals.Uncacheable;
      StatsRegistry::current().add("serve.cache.uncacheable", 1);
      return;
    }
    Lru.push_front(Entry{std::string(Key), std::move(Body)});
    Totals.Bytes += Lru.front().bytes();
    Index.emplace(std::string_view(Lru.front().Key), Lru.begin());
    ++Totals.Insertions;
    StatsRegistry::current().add("serve.cache.insertions", 1);
  }

  while (Totals.Bytes > Budget && !Lru.empty()) {
    // Fresh inserts fit the budget alone (checked above), so eviction
    // stops before reaching the front; a replace that grew an entry past
    // the whole budget may evict everything, itself included.
    Entry &Victim = Lru.back();
    Totals.Bytes -= Victim.bytes();
    Index.erase(std::string_view(Victim.Key));
    Lru.pop_back();
    ++Totals.Evictions;
    StatsRegistry::current().add("serve.cache.evictions", 1);
  }
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  Stats S = Totals;
  S.Entries = Lru.size();
  return S;
}
