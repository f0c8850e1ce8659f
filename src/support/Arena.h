//===- Arena.h - Bump-pointer allocation --------------------------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A slab-based bump allocator for objects whose lifetime ends together —
/// IR statements, blocks and functions of one module, HSSA node records of
/// one promotion run, MIR of one lowering. Allocation is a pointer bump
/// (no per-node malloc/free), addresses are stable for the arena's whole
/// life (IR pointers are map keys everywhere), and teardown is one sweep:
/// registered destructors run in reverse allocation order, then the slabs
/// are reused by reset() or released by the destructor (first slabs go
/// back to the thread's block pool below, the rest are freed).
///
/// The block pool holds the 64 KiB blocks that arena first slabs and
/// PagedMemory pages are made of, at most 64 (4 MiB) per thread. A run
/// builds and drops several modules and memories; freeing their blocks
/// at the heap top let glibc trim the heap after some runs and fault it
/// back in on the next (DESIGN.md §7). The pool is freed at thread exit.
///
/// Under AddressSanitizer every slab's unused tail is poisoned, reset()
/// re-poisons recycled memory and parked blocks stay poisoned, so
/// use-after-reset, use-after-free and past-the-bump reads
/// trip ASan just like a heap use-after-free would — arenas must not
/// regress sanitizer coverage (tested by ArenaTest.AsanPoisoning).
///
/// Counters: destruction and reset() publish slab bytes into the
/// process-wide StatsRegistry (`alloc.arena.bytes`, `alloc.arena.slabs`,
/// `alloc.arena.resets`) — coarse events only, never per allocation.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_SUPPORT_ARENA_H
#define SRP_SUPPORT_ARENA_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define SRP_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SRP_ARENA_ASAN 1
#endif
#endif

#ifdef SRP_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace srp {

/// Size of a pooled block: an arena's first slab, a PagedMemory page.
inline constexpr size_t PoolBlockBytes = 64 << 10;

/// A block from the thread's pool, else a fresh one. \p Zeroed blocks
/// are addressable and all zero; the others are uninitialized and may be
/// poisoned.
char *takeBlock(bool Zeroed);

/// Parks \p Block, poisoned, in the thread's pool, or frees it when the
/// pool is full.
void giveBlock(char *Block);

/// Slab-based bump allocator (see file comment).
class Arena {
public:
  Arena() = default;
  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;
  ~Arena();

  /// Bumps off \p Size bytes at \p Align alignment. Never returns null;
  /// the memory is uninitialized and lives until reset() or destruction.
  void *allocate(size_t Size, size_t Align);

  /// Constructs a T in the arena. Non-trivially-destructible types are
  /// queued for destruction (reverse allocation order) at reset() /
  /// teardown; erasing the object from a container earlier just drops
  /// the pointer — the destructor still runs at arena teardown, so T's
  /// destructor must stay valid until then.
  template <typename T, typename... Args> T *create(Args &&...A) {
    void *Mem = allocate(sizeof(T), alignof(T));
    T *Obj = ::new (Mem) T(std::forward<Args>(A)...);
    if constexpr (!std::is_trivially_destructible_v<T>)
      Dtors.push_back({Obj, [](void *P) { static_cast<T *>(P)->~T(); }});
    return Obj;
  }

  /// Copies \p N Ts (trivially copyable) into the arena.
  template <typename T> T *copyArray(const T *Src, size_t N) {
    static_assert(std::is_trivially_copyable_v<T>);
    T *Mem = static_cast<T *>(allocate(N * sizeof(T), alignof(T)));
    if (N)
      std::memcpy(Mem, Src, N * sizeof(T));
    return Mem;
  }

  /// Runs queued destructors, forgets every allocation and recycles the
  /// slabs (re-poisoned under ASan). Pointers handed out before the
  /// reset are dead.
  void reset();

  /// Bytes handed out since construction or the last reset().
  size_t bytesAllocated() const { return BytesAllocated; }

  /// Publishes any not-yet-published bytes/slabs into the StatsRegistry.
  /// Publication is delta-based, so flushing a live arena and later
  /// destroying it never double-counts; reporting tools call this on
  /// still-live arenas (the module outlives `srp-run --stats`).
  void flushStats() { publishStats(/*CountReset=*/false); }

  /// Slabs currently held (allocation high-water mark; reset keeps them).
  size_t numSlabs() const { return Slabs.size(); }

private:
  struct Slab {
    char *Base = nullptr;
    size_t Size = 0;
  };
  struct DtorEntry {
    void *Obj;
    void (*Fn)(void *);
  };

  /// Starts a fresh or recycled slab able to hold \p Min bytes.
  void newSlab(size_t Min);
  void publishStats(bool CountReset);

  static constexpr size_t FirstSlabBytes = PoolBlockBytes;
  static constexpr size_t MaxSlabBytes = 1 << 20;

  std::vector<Slab> Slabs;
  size_t CurSlab = 0; ///< Valid only when !Slabs.empty().
  char *Cur = nullptr;
  char *End = nullptr;
  size_t BytesAllocated = 0;
  size_t BytesPublished = 0;
  size_t SlabsPublished = 0;
  std::vector<DtorEntry> Dtors;
};

} // namespace srp

#endif // SRP_SUPPORT_ARENA_H
