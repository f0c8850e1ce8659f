//===- Caches.h - Itanium-like cache hierarchy -------------------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A three-level data-cache model with Itanium-flavoured parameters. The
/// single behaviour the paper's evaluation leans on: integer loads hit a
/// 2-cycle L1D, while floating-point loads bypass L1 entirely and cost at
/// least the 9-cycle L2 latency — which is why the FP benchmarks gain the
/// most from eliminated loads (§4).
///
/// The geometry is fixed at compile time (L1 16 KiB 4-way, L2 96 KiB
/// 6-way, L3 2 MiB 4-way, 64-byte lines). Each set holds its line keys
/// in recency order, most recent first, so replacement is exact LRU
/// without stamps: a touch moves the key to the front and a miss drops
/// the last slot.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_ARCH_CACHES_H
#define SRP_ARCH_CACHES_H

#include <cstdint>
#include <cstring>

namespace srp::arch {

constexpr unsigned CacheLineBytes = 64;

/// One set-associative level of \p SizeBytes with \p Ways ways and LRU
/// replacement. A key is the line address plus one, so 0 marks an empty
/// slot; empty slots sit behind every resident key, so dropping the last
/// slot fills an empty way before it evicts.
///
/// A \p Lazy level does not zero its keys on construction. It clears a
/// set on the first touch instead, tracked by one bit per set: L3's
/// 256 KiB of keys are built per simulated run, and a short program
/// touches a handful of its sets.
template <uint64_t SizeBytes, unsigned Ways, bool Lazy = false>
class CacheLevel {
  static constexpr unsigned Sets = SizeBytes / CacheLineBytes / Ways;
  static_assert(Ways >= 2 && Sets >= 1 && (Sets & (Sets - 1)) == 0,
                "two or more ways and a power-of-two set count");

public:
  CacheLevel() {
    if constexpr (Lazy)
      std::memset(Cleared, 0, sizeof(Cleared));
    else
      std::memset(Keys, 0, sizeof(Keys));
  }

  /// True on hit; on miss the line is installed (possibly evicting LRU).
  bool access(uint64_t Addr) {
    uint64_t *S = set(Addr);
    uint64_t Key = keyOf(Addr);
    bool Hit = S[0] == Key || moveToFront(S, Key);
    ++(Hit ? Hits : Misses);
    return Hit;
  }

  /// Installs a line without reporting hit/miss (used on write-allocate).
  void install(uint64_t Addr) {
    uint64_t *S = set(Addr);
    uint64_t Key = keyOf(Addr);
    if (S[0] != Key)
      moveToFront(S, Key);
  }

  /// Makes a resident line the most recent in its set; installs nothing.
  void refresh(uint64_t Addr) {
    uint64_t *S = set(Addr);
    uint64_t Key = keyOf(Addr);
    if (S[0] == Key)
      return;
    for (unsigned W = 1; W < Ways; ++W)
      if (S[W] == Key) {
        shiftAndPlace(S, W, Key);
        return;
      }
  }

  /// True without installing or reordering.
  bool probe(uint64_t Addr) {
    const uint64_t *S = set(Addr);
    for (unsigned W = 0; W < Ways; ++W)
      if (S[W] == keyOf(Addr))
        return true;
    return false;
  }

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }

private:
  static uint64_t keyOf(uint64_t Addr) { return Addr / CacheLineBytes + 1; }

  uint64_t *set(uint64_t Addr) {
    unsigned Idx = (Addr / CacheLineBytes) & (Sets - 1);
    if constexpr (Lazy) {
      uint64_t Bit = uint64_t(1) << (Idx % 64);
      if (!(Cleared[Idx / 64] & Bit)) {
        Cleared[Idx / 64] |= Bit;
        std::memset(Keys[Idx], 0, sizeof(Keys[Idx]));
      }
    }
    return Keys[Idx];
  }

  /// Moves \p Key to slot 0 from wherever it sits in 1..Ways-1, or from
  /// past the end on a miss, in which case the last slot drops out.
  /// Returns whether the key was resident.
  static bool moveToFront(uint64_t *S, uint64_t Key) {
    unsigned W = 1;
    while (W < Ways - 1 && S[W] != Key)
      ++W;
    bool Hit = S[W] == Key;
    shiftAndPlace(S, W, Key);
    return Hit;
  }

  /// Slides slots 0..W-1 down one (overwriting slot W) and puts \p Key
  /// in slot 0.
  static void shiftAndPlace(uint64_t *S, unsigned W, uint64_t Key) {
    for (; W > 0; --W)
      S[W] = S[W - 1];
    S[0] = Key;
  }

  uint64_t Keys[Sets][Ways];
  uint64_t Cleared[Lazy ? (Sets + 63) / 64 : 1];
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

/// The hierarchy. Loads return their latency; stores update the caches
/// (write-allocate into L2, update L1 when present). Latencies (cycles)
/// are roughly the 733 MHz Itanium of the paper.
class MemoryHierarchy {
public:
  static constexpr unsigned L1Latency = 2;
  static constexpr unsigned L2Latency = 9;
  static constexpr unsigned L3Latency = 24;
  static constexpr unsigned MemLatency = 120;

  /// Latency of a load; \p Fp loads bypass L1 (Itanium floating point
  /// loads are served from L2). A level's miss installs the line there,
  /// so an integer load fills L1 and every load fills L2 and, past an L2
  /// miss, L3.
  unsigned loadLatency(uint64_t Addr, bool Fp) {
    if (!Fp && L1.access(Addr))
      return L1Latency;
    return L2.access(Addr)   ? L2Latency
           : L3.access(Addr) ? L3Latency
                             : MemLatency;
  }

  /// Store: updates the hierarchy; stores are fire-and-forget for timing.
  void store(uint64_t Addr) {
    L1.refresh(Addr);
    L2.install(Addr);
  }

  uint64_t l1Hits() const { return L1.hits(); }
  uint64_t l1Misses() const { return L1.misses(); }
  uint64_t l2Hits() const { return L2.hits(); }
  uint64_t l2Misses() const { return L2.misses(); }

private:
  CacheLevel<16 * 1024, 4> L1;
  CacheLevel<96 * 1024, 6> L2;
  CacheLevel<2 * 1024 * 1024, 4, /*Lazy=*/true> L3;
};

} // namespace srp::arch

#endif // SRP_ARCH_CACHES_H
