//===- PagedMemory.h - Sparse paged word store -------------------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sparse 64-bit word store backed by zero-initialized 64 KiB pages.
/// Both execution engines (the interpreter and the arch simulator)
/// model a flat address space with three far-apart regions — globals,
/// stack, heap — where unwritten words read as zero. A per-word hash map
/// gives that semantics but costs a hash probe per access; this store
/// gives the same semantics with a direct-mapped translation cache in
/// front of the page table, so the regions' working pages each settle
/// into their own cache slot and nearly every access is one mask and one
/// index.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_SUPPORT_PAGEDMEMORY_H
#define SRP_SUPPORT_PAGEDMEMORY_H

#include "support/Arena.h"

#include <cstdint>
#include <unordered_map>

namespace srp {

/// Word-addressed sparse memory (callers shift byte addresses down by 3).
/// Unwritten words read as zero.
///
/// Pages are blocks of the thread's block pool (support/Arena.h): a store
/// is built per simulated/interpreted run, and a fresh 64 KiB block per
/// touched page per run costs allocator round trips and soft page
/// faults. A page is zeroed when taken (a streaming write over resident
/// memory for a recycled block) and given back when the store dies.
class PagedMemory {
public:
  PagedMemory() = default;
  PagedMemory(const PagedMemory &) = delete;
  PagedMemory &operator=(const PagedMemory &) = delete;
  ~PagedMemory() {
    for (auto &[P, Data] : Pages)
      giveBlock(reinterpret_cast<char *>(Data));
  }
  uint64_t load(uint64_t Word) const {
    uint64_t P = Word >> PageWordBits;
    Slot &S = Cache[P & (NumSlots - 1)];
    if (S.Page != P) {
      auto It = Pages.find(P);
      if (It == Pages.end())
        return 0; // Absent pages stay uncached: a store must install one.
      S.Page = P;
      S.Data = It->second;
    }
    return S.Data[Word & (WordsPerPage - 1)];
  }

  void store(uint64_t Word, uint64_t Bits) {
    uint64_t P = Word >> PageWordBits;
    Slot &S = Cache[P & (NumSlots - 1)];
    if (S.Page != P) {
      uint64_t *&Entry = Pages[P];
      if (!Entry)
        Entry = reinterpret_cast<uint64_t *>(takeBlock(/*Zeroed=*/true));
      S.Page = P;
      S.Data = Entry;
    }
    S.Data[Word & (WordsPerPage - 1)] = Bits;
  }

private:
  static constexpr unsigned PageWordBits = 13; ///< 8 Ki words = 64 KiB
  static constexpr uint64_t WordsPerPage = 1ULL << PageWordBits;
  static_assert(WordsPerPage * sizeof(uint64_t) == PoolBlockBytes);
  static constexpr unsigned NumSlots = 64;

  struct Slot {
    /// Word addresses are at most 2^61 (byte addresses >> 3), so ~0
    /// never collides with a real page index.
    uint64_t Page = ~0ULL;
    uint64_t *Data = nullptr;
  };

  mutable Slot Cache[NumSlots];
  std::unordered_map<uint64_t, uint64_t *> Pages;
};

} // namespace srp

#endif // SRP_SUPPORT_PAGEDMEMORY_H
