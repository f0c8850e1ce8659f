//===- ArenaTest.cpp - Tests for the bump allocator -------------*- C++ -*-===//

#include "support/Arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

using namespace srp;

namespace {

TEST(ArenaTest, PointerStability) {
  // IR pointers are map keys everywhere, so addresses handed out must
  // survive arbitrary later allocation (slab growth must never move
  // existing objects). Allocate well past several slab boundaries and
  // check every earlier object through each growth step.
  Arena A;
  std::vector<uint64_t *> Ptrs;
  for (uint64_t I = 0; I < 100000; ++I) {
    auto *P = A.create<uint64_t>(I);
    Ptrs.push_back(P);
  }
  EXPECT_GT(A.numSlabs(), 1u) << "test must cross a slab boundary";
  for (uint64_t I = 0; I < Ptrs.size(); ++I)
    ASSERT_EQ(*Ptrs[I], I);
}

TEST(ArenaTest, AlignmentRespected) {
  Arena A;
  for (size_t Align : {8u, 16u, 32u, 64u}) {
    void *P = A.allocate(24, Align);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % Align, 0u);
    // Interleave odd sizes so the bump pointer is rarely pre-aligned.
    A.allocate(3, 1);
  }
}

TEST(ArenaTest, ResetAndReuse) {
  Arena A;
  for (int I = 0; I < 50000; ++I)
    A.create<uint64_t>(uint64_t(I));
  size_t SlabsAfterFirstFill = A.numSlabs();
  size_t BytesAfterFirstFill = A.bytesAllocated();
  EXPECT_GE(BytesAfterFirstFill, 50000 * sizeof(uint64_t));

  A.reset();
  EXPECT_EQ(A.bytesAllocated(), 0u);
  EXPECT_EQ(A.numSlabs(), SlabsAfterFirstFill) << "reset keeps its slabs";

  // The same workload must fit in the recycled slabs: no new ones.
  for (int I = 0; I < 50000; ++I)
    A.create<uint64_t>(uint64_t(I));
  EXPECT_EQ(A.numSlabs(), SlabsAfterFirstFill)
      << "reset-and-reuse re-allocated slabs it already had";
  EXPECT_EQ(A.bytesAllocated(), BytesAfterFirstFill);
}

struct DtorProbe {
  explicit DtorProbe(std::vector<int> &Order, int Id)
      : Order(Order), Id(Id) {}
  ~DtorProbe() { Order.push_back(Id); }
  std::vector<int> &Order;
  int Id;
};

TEST(ArenaTest, ResetRunsDestructorsInReverseOrder) {
  std::vector<int> Order;
  Arena A;
  A.create<DtorProbe>(Order, 1);
  A.create<DtorProbe>(Order, 2);
  A.create<DtorProbe>(Order, 3);
  EXPECT_TRUE(Order.empty());
  A.reset();
  EXPECT_EQ(Order, (std::vector<int>{3, 2, 1}));
  // Destructors must not run a second time at arena teardown.
  Order.clear();
}

// Under AddressSanitizer the allocator poisons slab tails and re-poisons
// recycled memory at reset, so stale pointers trip ASan like a heap
// use-after-free. The shadow-state checks only exist under ASan; the
// test skips elsewhere rather than silently passing.
TEST(ArenaTest, AsanPoisoning) {
#ifdef SRP_ARENA_ASAN
  Arena A;
  char *P = static_cast<char *>(A.allocate(64, 8));
  EXPECT_FALSE(__asan_address_is_poisoned(P));
  EXPECT_FALSE(__asan_address_is_poisoned(P + 63));
  // The unused remainder of the slab is poisoned.
  EXPECT_TRUE(__asan_address_is_poisoned(P + 64));
  A.reset();
  EXPECT_TRUE(__asan_address_is_poisoned(P))
      << "reset must re-poison recycled memory";
#else
  GTEST_SKIP() << "requires an AddressSanitizer build";
#endif
}

} // namespace
