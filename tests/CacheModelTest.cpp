//===- CacheModelTest.cpp - Cache model against a reference LRU ------------===//
//
// arch::CacheLevel keeps each set's keys in recency order and
// arch::MemoryHierarchy fixes the geometry at compile time. These tests
// check both against a textbook model written here independently: every
// line carries a timestamp, a touch re-stamps it, and a miss fills the
// first empty way or else evicts the smallest stamp.
//
//===----------------------------------------------------------------------===//

#include "arch/Caches.h"

#include "support/RNG.h"

#include <gtest/gtest.h>

#include <memory>
#include <new>
#include <vector>

using namespace srp;
using namespace srp::arch;

namespace {

constexpr uint64_t Line = CacheLineBytes;

/// One set-associative level with per-line LRU timestamps.
class RefLevel {
public:
  RefLevel(uint64_t SizeBytes, unsigned Ways)
      : Sets(SizeBytes / Line / Ways), Ways(Ways), Lines(Sets * Ways) {}

  bool access(uint64_t Addr) {
    bool Hit = touch(Addr, /*Install=*/true);
    ++(Hit ? Hits : Misses);
    return Hit;
  }
  void install(uint64_t Addr) { touch(Addr, /*Install=*/true); }
  void refresh(uint64_t Addr) { touch(Addr, /*Install=*/false); }
  bool probe(uint64_t Addr) const {
    const Way *S = &Lines[setOf(Addr) * Ways];
    for (unsigned W = 0; W < Ways; ++W)
      if (S[W].Valid && S[W].Tag == tagOf(Addr))
        return true;
    return false;
  }

  uint64_t Hits = 0, Misses = 0;

private:
  struct Way {
    bool Valid = false;
    uint64_t Tag = 0;
    uint64_t Stamp = 0;
  };

  uint64_t setOf(uint64_t Addr) const { return Addr / Line % Sets; }
  uint64_t tagOf(uint64_t Addr) const { return Addr / Line / Sets; }

  /// Re-stamps a resident line and returns true; otherwise installs it
  /// when \p Install is set and returns false.
  bool touch(uint64_t Addr, bool Install) {
    Way *S = &Lines[setOf(Addr) * Ways];
    for (unsigned W = 0; W < Ways; ++W)
      if (S[W].Valid && S[W].Tag == tagOf(Addr)) {
        S[W].Stamp = ++Clock;
        return true;
      }
    if (!Install)
      return false;
    Way *Victim = nullptr;
    for (unsigned W = 0; W < Ways && !Victim; ++W)
      if (!S[W].Valid)
        Victim = &S[W];
    if (!Victim) {
      Victim = &S[0];
      for (unsigned W = 1; W < Ways; ++W)
        if (S[W].Stamp < Victim->Stamp)
          Victim = &S[W];
    }
    *Victim = {true, tagOf(Addr), ++Clock};
    return false;
  }

  uint64_t Sets;
  unsigned Ways;
  std::vector<Way> Lines;
  uint64_t Clock = 0;
};

/// Drives \p Ops random access/install/refresh/probe calls over
/// \p SpanLines lines into a CacheLevel<Size, Ways, Lazy> and a RefLevel
/// of the same geometry, comparing every answer.
template <uint64_t Size, unsigned Ways, bool Lazy = false>
void compareLevel(uint64_t Seed, uint64_t SpanLines, unsigned Ops) {
  auto L = std::make_unique<CacheLevel<Size, Ways, Lazy>>();
  RefLevel R(Size, Ways);
  RNG Rand(Seed);
  for (unsigned I = 0; I < Ops; ++I) {
    // Half the traffic goes to a hot span a quarter of the size, so the
    // stream has resident lines to hit as well as evictions.
    uint64_t Span = Rand.nextBelow(2) ? SpanLines : SpanLines / 4 + 1;
    uint64_t Addr = Rand.nextBelow(Span) * Line + Rand.nextBelow(Line);
    switch (Rand.nextBelow(4)) {
    case 0:
      ASSERT_EQ(L->access(Addr), R.access(Addr)) << "op " << I;
      break;
    case 1:
      L->install(Addr);
      R.install(Addr);
      break;
    case 2:
      L->refresh(Addr);
      R.refresh(Addr);
      break;
    default:
      ASSERT_EQ(L->probe(Addr), R.probe(Addr)) << "op " << I;
      break;
    }
  }
  EXPECT_EQ(L->hits(), R.Hits);
  EXPECT_EQ(L->misses(), R.Misses);
  EXPECT_GT(R.Hits, Ops / 20u);
  EXPECT_GT(R.Misses, Ops / 20u);
}

TEST(CacheModelTest, SmallLevelsMatchReference) {
  compareLevel<256, 2>(1, 16, 100'000);        // 2 sets
  compareLevel<512, 4>(2, 32, 100'000);        // 2 sets
  compareLevel<1536, 6>(3, 96, 100'000);       // 4 sets
  compareLevel<1024, 2, true>(4, 64, 100'000); // 8 lazily cleared sets
}

TEST(CacheModelTest, HierarchyLevelsMatchReference) {
  compareLevel<16 * 1024, 4>(5, 1024, 200'000);
  compareLevel<96 * 1024, 6>(6, 6 * 1024, 200'000);
  compareLevel<2 * 1024 * 1024, 4, true>(7, 128 * 1024, 400'000);
}

/// The documented policy on top of three reference levels: integer loads
/// try L1 and fill it on a miss, FP loads start at L2, each level that
/// misses installs the line, and stores refresh L1 and write-allocate
/// into L2.
struct RefHierarchy {
  RefLevel L1{16 * 1024, 4}, L2{96 * 1024, 6}, L3{2 * 1024 * 1024, 4};

  unsigned loadLatency(uint64_t Addr, bool Fp) {
    if (!Fp && L1.access(Addr))
      return 2;
    return L2.access(Addr) ? 9 : L3.access(Addr) ? 24 : 120;
  }
  void store(uint64_t Addr) {
    L1.refresh(Addr);
    L2.install(Addr);
  }
};

TEST(CacheModelTest, HierarchyMatchesReference) {
  auto H = std::make_unique<MemoryHierarchy>();
  RefHierarchy R;
  RNG Rand(11);
  // Latency histogram: L1, L2, L3, memory.
  unsigned Seen[4] = {0, 0, 0, 0};
  // 4 MiB of lines, twice L3: L2 evictions come back as L3 hits, and L3
  // evictions as memory accesses.
  const uint64_t SpanLines = 4 * 1024 * 1024 / Line;
  for (unsigned I = 0; I < 400'000; ++I) {
    uint64_t Span = Rand.nextBelow(2) ? SpanLines : 256;
    uint64_t Addr = Rand.nextBelow(Span) * Line + Rand.nextBelow(Line) / 8 * 8;
    unsigned Kind = static_cast<unsigned>(Rand.nextBelow(3));
    if (Kind == 2) {
      H->store(Addr);
      R.store(Addr);
      continue;
    }
    unsigned Got = H->loadLatency(Addr, /*Fp=*/Kind == 1);
    ASSERT_EQ(Got, R.loadLatency(Addr, /*Fp=*/Kind == 1)) << "op " << I;
    ++Seen[Got == MemoryHierarchy::L1Latency   ? 0
           : Got == MemoryHierarchy::L2Latency ? 1
           : Got == MemoryHierarchy::L3Latency ? 2
                                               : 3];
  }
  EXPECT_EQ(H->l1Hits(), R.L1.Hits);
  EXPECT_EQ(H->l1Misses(), R.L1.Misses);
  EXPECT_EQ(H->l2Hits(), R.L2.Hits);
  EXPECT_EQ(H->l2Misses(), R.L2.Misses);
  for (unsigned Level = 0; Level < 4; ++Level)
    EXPECT_GT(Seen[Level], 1000u) << "latency class " << Level;
}

TEST(CacheModelTest, FreshHierarchyForgetsEarlierL3Lines) {
  // Both hierarchies live in the same storage, so the second one's L3
  // key array still holds the first one's lines; only the per-set
  // cleared bits keep them from hitting.
  static_assert(alignof(MemoryHierarchy) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  auto Storage = std::make_unique<unsigned char[]>(sizeof(MemoryHierarchy));
  const uint64_t L3Lines = 2 * 1024 * 1024 / Line;

  auto *H = new (Storage.get()) MemoryHierarchy;
  for (uint64_t I = 0; I < L3Lines; ++I)
    EXPECT_EQ(H->loadLatency(I * Line, /*Fp=*/true),
              MemoryHierarchy::MemLatency);
  // Line 0 has left L2 but fills one of its L3 set's four ways.
  EXPECT_EQ(H->loadLatency(0, /*Fp=*/true), MemoryHierarchy::L3Latency);
  H->~MemoryHierarchy();

  H = new (Storage.get()) MemoryHierarchy;
  for (uint64_t I = 0; I < L3Lines; ++I)
    ASSERT_EQ(H->loadLatency(I * Line, /*Fp=*/true),
              MemoryHierarchy::MemLatency)
        << "line " << I;
  EXPECT_EQ(H->l2Hits(), 0u);
  H->~MemoryHierarchy();
}

} // namespace
