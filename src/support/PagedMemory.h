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

#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

namespace srp {

/// Word-addressed sparse memory (callers shift byte addresses down by 3).
/// Unwritten words read as zero.
///
/// Pages are recycled through a thread-local free list: a store is built
/// per simulated/interpreted run, and allocating + zero-filling a fresh
/// 64 KiB block per touched page per run costs allocator round trips and
/// soft page faults. A recycled page is memset on reuse (a streaming
/// write over resident memory), which preserves the words-read-as-zero
/// contract.
class PagedMemory {
public:
  PagedMemory() = default;
  PagedMemory(const PagedMemory &) = delete;
  PagedMemory &operator=(const PagedMemory &) = delete;
  ~PagedMemory() {
    std::vector<std::unique_ptr<uint64_t[]>> &Free = freeList();
    if (Free.size() >= MaxPooledPages)
      return;
    for (auto &[P, Data] : Pages) {
      Free.push_back(std::move(Data));
      if (Free.size() >= MaxPooledPages)
        break;
    }
  }
  uint64_t load(uint64_t Word) const {
    uint64_t P = Word >> PageWordBits;
    Slot &S = Cache[P & (NumSlots - 1)];
    if (S.Page != P) {
      auto It = Pages.find(P);
      if (It == Pages.end())
        return 0; // Absent pages stay uncached: a store must install one.
      S.Page = P;
      S.Data = It->second.get();
    }
    return S.Data[Word & (WordsPerPage - 1)];
  }

  void store(uint64_t Word, uint64_t Bits) {
    uint64_t P = Word >> PageWordBits;
    Slot &S = Cache[P & (NumSlots - 1)];
    if (S.Page != P) {
      std::unique_ptr<uint64_t[]> &Entry = Pages[P];
      if (!Entry)
        Entry = newPage();
      S.Page = P;
      S.Data = Entry.get();
    }
    S.Data[Word & (WordsPerPage - 1)] = Bits;
  }

private:
  static constexpr unsigned PageWordBits = 13; ///< 8 Ki words = 64 KiB
  static constexpr uint64_t WordsPerPage = 1ULL << PageWordBits;
  static constexpr unsigned NumSlots = 64;
  /// Free-list cap per thread (4 MiB of parked pages): generous for the
  /// working set of any single run, bounded against pathological ones.
  static constexpr size_t MaxPooledPages = 64;

  static std::vector<std::unique_ptr<uint64_t[]>> &freeList() {
    static thread_local std::vector<std::unique_ptr<uint64_t[]>> Free;
    return Free;
  }

  static std::unique_ptr<uint64_t[]> newPage() {
    std::vector<std::unique_ptr<uint64_t[]>> &Free = freeList();
    if (!Free.empty()) {
      std::unique_ptr<uint64_t[]> Page = std::move(Free.back());
      Free.pop_back();
      std::memset(Page.get(), 0, WordsPerPage * sizeof(uint64_t));
      return Page;
    }
    return std::make_unique<uint64_t[]>(WordsPerPage); // zero-filled
  }

  struct Slot {
    /// Word addresses are at most 2^61 (byte addresses >> 3), so ~0
    /// never collides with a real page index.
    uint64_t Page = ~0ULL;
    uint64_t *Data = nullptr;
  };

  mutable Slot Cache[NumSlots];
  std::unordered_map<uint64_t, std::unique_ptr<uint64_t[]>> Pages;
};

} // namespace srp

#endif // SRP_SUPPORT_PAGEDMEMORY_H
