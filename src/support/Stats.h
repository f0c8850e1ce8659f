//===- Stats.h - Process-wide statistics registry ---------------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide, thread-safe registry of named uint64 counters, in the
/// spirit of LLVM's -stats. Passes and promotion stages record work and
/// wall time here ("pass.promote.us", "pre.rename.us", ...); tools and
/// benches dump the registry with --stats. The registry is additive only:
/// concurrent pipelines from the parallel experiment driver may all record
/// into it, so per-run numbers that must stay deterministic (the simulator
/// counters) live in PipelineResult instead, never here.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_SUPPORT_STATS_H
#define SRP_SUPPORT_STATS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace srp {

class OStream;

/// Thread-safe map of named counters. One process-wide instance is
/// reachable via StatsRegistry::get(); tests may construct their own.
class StatsRegistry {
public:
  /// The process-wide registry.
  static StatsRegistry &get();

  /// The registry recording sites should write to: the innermost
  /// ScopedStatsCapture on this thread, or the process-wide registry
  /// when none is active. Every recording site in the project goes
  /// through this, which is what makes per-request stats epochs exact
  /// in a long-lived server — a request's pipeline runs entirely on one
  /// worker thread, so a capture on that thread observes precisely that
  /// request's counters even while other requests record concurrently.
  static StatsRegistry &current();

  /// Adds every counter of \p Other into this registry.
  void merge(const StatsRegistry &Other);

  /// Adds \p Delta to the counter named \p Name (creating it at zero).
  void add(std::string_view Name, uint64_t Delta);

  /// Current value of \p Name; 0 if never recorded.
  uint64_t value(std::string_view Name) const;

  /// Snapshot of all counters, sorted by name.
  std::vector<std::pair<std::string, uint64_t>> snapshot() const;

  /// Resets every counter (tests and repeated experiment batches).
  void clear();

  /// True if no counter was ever recorded (or clear() was just called).
  bool empty() const;

  /// Writes "  <value>  <name>" lines, sorted by name.
  void report(OStream &OS) const;

private:
  mutable std::mutex Mutex;
  std::map<std::string, uint64_t, std::less<>> Counters;
};

/// One stats epoch: while alive, everything this thread records through
/// StatsRegistry::current() lands in a private registry instead of the
/// process-wide one; on destruction the epoch's counters are merged into
/// the enclosing scope (another capture, or the global registry), so
/// process totals still add up. Read the epoch's own numbers through
/// captured().
///
/// This is the fix for cumulative-stats reporting in long-lived
/// processes: srp-run wraps its pipeline in a capture so --stats
/// describes that run, and the serve daemon wraps each
/// request so a response's stats describe that request — not everything
/// the process did since startup.
///
/// Captures nest per thread and must be destroyed in LIFO order (scope
/// them). Work handed to other threads while a capture is alive records
/// into those threads' own scopes.
class ScopedStatsCapture {
public:
  ScopedStatsCapture();
  ~ScopedStatsCapture();
  ScopedStatsCapture(const ScopedStatsCapture &) = delete;
  ScopedStatsCapture &operator=(const ScopedStatsCapture &) = delete;

  /// The counters recorded during this epoch (so far).
  const StatsRegistry &captured() const { return Local; }

private:
  StatsRegistry Local;
  StatsRegistry *Outer; ///< Scope to merge into at destruction.
};

} // namespace srp

#endif // SRP_SUPPORT_STATS_H
