//===- Timer.h - Wall-clock timing helpers ----------------------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scoped wall-clock timing for passes and promotion stages. ScopedTimer
/// accumulates the elapsed time of its scope, on
/// std::chrono::steady_clock, into a caller-owned nanosecond counter,
/// which is how the pass manager and the promotion stages attribute time
/// without any global state (the process-wide aggregation happens in
/// StatsRegistry, see Stats.h). Counters stay in nanoseconds until they
/// are published, so many short scopes do not each round down to zero
/// microseconds.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_SUPPORT_TIMER_H
#define SRP_SUPPORT_TIMER_H

#include <chrono>
#include <cstdint>

namespace srp {

/// Adds the wall time of its scope to \p Counter (nanoseconds) on
/// destruction.
class ScopedTimer {
public:
  explicit ScopedTimer(uint64_t &Counter)
      : Counter(Counter), Start(std::chrono::steady_clock::now()) {}
  ScopedTimer(const ScopedTimer &) = delete;
  ScopedTimer &operator=(const ScopedTimer &) = delete;
  ~ScopedTimer() {
    Counter += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Start)
            .count());
  }

private:
  uint64_t &Counter;
  std::chrono::steady_clock::time_point Start;
};

} // namespace srp

#endif // SRP_SUPPORT_TIMER_H
