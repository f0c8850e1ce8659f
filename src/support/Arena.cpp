//===- Arena.cpp - Bump-pointer allocation ---------------------------------===//

#include "support/Arena.h"

#include "support/Stats.h"

#include <algorithm>

using namespace srp;

#ifdef SRP_ARENA_ASAN
static void poison(const void *P, size_t N) {
  __asan_poison_memory_region(P, N);
}
static void unpoison(const void *P, size_t N) {
  __asan_unpoison_memory_region(P, N);
}
#else
static void poison(const void *, size_t) {}
static void unpoison(const void *, size_t) {}
#endif

namespace {

constexpr size_t MaxPooledBlocks = 64; ///< 4 MiB per thread.

void freeBlock(char *Block) {
  unpoison(Block, PoolBlockBytes);
  ::operator delete(Block);
}

std::vector<char *> &pool() {
  struct Pool {
    std::vector<char *> Free;
    ~Pool() {
      for (char *B : Free)
        freeBlock(B);
    }
  };
  static thread_local Pool P;
  return P.Free;
}

} // namespace

char *srp::takeBlock(bool Zeroed) {
  std::vector<char *> &Free = pool();
  char *Block;
  if (Free.empty()) {
    Block = static_cast<char *>(::operator new(PoolBlockBytes));
  } else {
    Block = Free.back();
    Free.pop_back();
  }
  if (Zeroed) {
    unpoison(Block, PoolBlockBytes);
    std::memset(Block, 0, PoolBlockBytes);
  }
  return Block;
}

void srp::giveBlock(char *Block) {
  std::vector<char *> &Free = pool();
  if (Free.size() >= MaxPooledBlocks) {
    freeBlock(Block);
    return;
  }
  poison(Block, PoolBlockBytes);
  Free.push_back(Block);
}

void *Arena::allocate(size_t Size, size_t Align) {
  // ASan poisoning works at 8-byte shadow granularity; rounding every
  // request keeps allocation boundaries on granule boundaries so a
  // neighbour's redzone never overlaps live bytes.
  Align = std::max<size_t>(Align, 8);
  Size = (Size + 7) & ~size_t(7);

  char *P = reinterpret_cast<char *>(
      (reinterpret_cast<uintptr_t>(Cur) + Align - 1) & ~uintptr_t(Align - 1));
  if (!Cur || P + Size > End) {
    newSlab(Size + Align);
    P = reinterpret_cast<char *>(
        (reinterpret_cast<uintptr_t>(Cur) + Align - 1) &
        ~uintptr_t(Align - 1));
  }
  Cur = P + Size;
  BytesAllocated += Size;
  unpoison(P, Size);
  return P;
}

void Arena::newSlab(size_t Min) {
  // Advance through recycled slabs first (reset() rewinds CurSlab).
  while (!Slabs.empty() && CurSlab + 1 < Slabs.size()) {
    Slab &S = Slabs[++CurSlab];
    if (S.Size >= Min) {
      Cur = S.Base;
      End = S.Base + S.Size;
      return;
    }
  }
  size_t Want = Slabs.empty()
                    ? FirstSlabBytes
                    : std::min(Slabs.back().Size * 2, MaxSlabBytes);
  Want = std::max(Want, Min);
  Slab S;
  S.Base = Want == FirstSlabBytes ? takeBlock(/*Zeroed=*/false)
                                  : static_cast<char *>(::operator new(Want));
  S.Size = Want;
  poison(S.Base, S.Size);
  Slabs.push_back(S);
  CurSlab = Slabs.size() - 1;
  Cur = S.Base;
  End = S.Base + S.Size;
}

void Arena::reset() {
  for (auto It = Dtors.rbegin(), E = Dtors.rend(); It != E; ++It)
    It->Fn(It->Obj);
  Dtors.clear();
  publishStats(/*CountReset=*/true);
  BytesAllocated = 0;
  BytesPublished = 0;
  for (Slab &S : Slabs)
    poison(S.Base, S.Size);
  CurSlab = 0;
  Cur = Slabs.empty() ? nullptr : Slabs.front().Base;
  End = Slabs.empty() ? nullptr : Slabs.front().Base + Slabs.front().Size;
}

Arena::~Arena() {
  for (auto It = Dtors.rbegin(), E = Dtors.rend(); It != E; ++It)
    It->Fn(It->Obj);
  publishStats(/*CountReset=*/false);
  for (Slab &S : Slabs) {
    if (S.Size == FirstSlabBytes) {
      giveBlock(S.Base);
      continue;
    }
    unpoison(S.Base, S.Size);
    ::operator delete(S.Base);
  }
}

void Arena::publishStats(bool CountReset) {
  StatsRegistry &SR = StatsRegistry::current();
  if (BytesAllocated > BytesPublished) {
    SR.add("alloc.arena.bytes", BytesAllocated - BytesPublished);
    BytesPublished = BytesAllocated;
  }
  if (Slabs.size() > SlabsPublished) {
    SR.add("alloc.arena.slabs", Slabs.size() - SlabsPublished);
    SlabsPublished = Slabs.size();
  }
  if (CountReset)
    SR.add("alloc.arena.resets", 1);
}
