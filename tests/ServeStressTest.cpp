//===- ServeStressTest.cpp - Concurrent serving stress tests --------------===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hammers one ServerCore from many client threads with a mixed request
/// schedule (workload runs, inline programs, pings, malformed frames)
/// and checks that every response is byte-identical to the
/// single-threaded answer modulo the "cached" flag, and that the cache
/// counters add up. Built into the TSan CI lane (serve-stress), where
/// "zero races" is the point; under plain ASan/UBSan it still pins
/// determinism under contention.
///
//===----------------------------------------------------------------------===//

#include "core/ResultCache.h"
#include "core/Serve.h"
#include "support/StringUtils.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

using namespace srp;
using namespace srp::core;

namespace {

constexpr unsigned NumThreads = 8;
constexpr unsigned RequestsPerThread = 40;

/// A tiny inline program parameterized on \p K so distinct requests
/// exercise distinct cache keys while staying cheap to compile.
std::string tinyProgram(unsigned K) {
  return formatString(
      "global a : int\\n\\nfunc main() -> int {\\nentry:\\n"
      "  st a = %u\\n  t0 = ld a\\n  t1 = add t0, 1\\n"
      "  print t1\\n  ret t1\\n}\\n",
      K);
}

/// The deterministic mixed schedule: slot I of the global round-robin.
std::string requestFor(unsigned I) {
  switch (I % 5) {
  case 0:
    return formatString("{\"id\":\"%u\",\"op\":\"run\",\"program\":\"%s\"}",
                        I, tinyProgram(I % 7).c_str());
  case 1:
    return formatString("{\"id\":\"%u\",\"op\":\"run\",\"workload\":"
                        "\"gzip\",\"train_scale\":1,\"ref_scale\":1}",
                        I);
  case 2:
    return formatString("{\"id\":\"%u\",\"op\":\"ping\"}", I);
  case 3:
    return formatString("{\"id\":\"%u\",\"op\":\"run\",\"program\":\"%s\","
                        "\"config\":{\"strategy\":\"baseline\"}}",
                        I, tinyProgram(I % 3).c_str());
  default:
    // Malformed on purpose: unknown op. Must answer, never abort.
    return formatString("{\"id\":\"%u\",\"op\":\"bogus\"}", I);
  }
}

std::string_view resultTail(std::string_view Response) {
  size_t At = Response.find("\"result\":");
  return At == std::string_view::npos ? Response : Response.substr(At);
}

TEST(ServeStress, ConcurrentMixedScheduleIsDeterministic) {
  // Reference answers from a single-threaded core.
  constexpr unsigned Total = NumThreads * RequestsPerThread;
  std::vector<std::string> Expected(Total);
  {
    ServeOptions O;
    O.Threads = 1;
    O.Workloads = workloads::standardWorkloads();
    ServerCore Reference(std::move(O));
    for (unsigned I = 0; I < Total; ++I)
      Expected[I] = Reference.handle(requestFor(I));
  }

  ServeOptions O;
  O.Threads = NumThreads;
  O.Workloads = workloads::standardWorkloads();
  ServerCore Core(std::move(O));

  std::vector<std::string> Got(Total);
  std::atomic<unsigned> Next{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&Core, &Got, &Next] {
      for (unsigned I; (I = Next.fetch_add(1)) < Total;)
        Got[I] = Core.handle(requestFor(I));
    });
  for (std::thread &T : Threads)
    T.join();

  for (unsigned I = 0; I < Total; ++I) {
    // The result body must match the single-threaded run exactly; only
    // the "cached" flag may differ (who computed it first is racy).
    EXPECT_EQ(resultTail(Got[I]), resultTail(Expected[I]))
        << "request " << I << ": " << requestFor(I);
    EXPECT_EQ(Got[I].substr(0, Got[I].find("\"cached\":")),
              Expected[I].substr(0, Expected[I].find("\"cached\":")));
  }

  // Counter bookkeeping survives contention: every cacheable request is
  // either a hit or a miss, and hits plus insertions cover them all.
  // (Duplicate concurrent misses may both run and insert; insertions
  // can therefore exceed distinct keys but never misses.)
  ResultCache::Stats S = Core.cache().stats();
  constexpr unsigned Cacheable = Total / 5 * 3; // cases 0, 1, 3
  EXPECT_EQ(S.Hits + S.Misses, Cacheable);
  EXPECT_LE(S.Insertions, S.Misses);
  EXPECT_GT(S.Hits, 0u);
}

// Concurrent batches interleaved with cache churn under a small budget:
// responses stay well-formed while eviction runs hot.
TEST(ServeStress, TinyCacheUnderConcurrencyStaysConsistent) {
  ServeOptions O;
  O.Threads = 4;
  O.Workloads = workloads::standardWorkloads();
  O.Cache.ByteBudget = 4096; // forces steady eviction
  ServerCore Core(std::move(O));

  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 4; ++T)
    Threads.emplace_back([&Core, &Failures, T] {
      for (unsigned I = 0; I < 30; ++I) {
        std::string Response = Core.handle(formatString(
            "{\"op\":\"run\",\"program\":\"%s\"}",
            tinyProgram(T * 100 + I % 11).c_str()));
        if (Response.find("\"status\":0") == std::string::npos)
          Failures.fetch_add(1);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_LE(Core.cache().stats().Bytes, 4096u);
}

} // namespace
