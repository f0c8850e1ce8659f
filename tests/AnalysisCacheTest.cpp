//===- AnalysisCacheTest.cpp - Tests for cached analyses --------*- C++ -*-===//

#include "ssa/AnalysisCache.h"

#include "ir/IRBuilder.h"

#include <gtest/gtest.h>

using namespace srp;
using namespace srp::ir;
using namespace srp::ssa;

namespace {

/// entry -> {left, right} -> join -> ret: enough CFG for the dominator
/// tree and loop finder to do real work.
Function *buildDiamond(IRBuilder &B, const char *Name) {
  Function *F = B.startFunction(Name);
  BasicBlock *Left = B.createBlock("left");
  BasicBlock *Right = B.createBlock("right");
  BasicBlock *Join = B.createBlock("join");
  B.setCondBr(Operand::constInt(1), Left, Right);
  B.setBlock(Left);
  B.setBr(Join);
  B.setBlock(Right);
  B.setBr(Join);
  B.setBlock(Join);
  B.setRet();
  return F;
}

TEST(AnalysisCacheTest, HitsAndMisses) {
  Module M;
  IRBuilder B(M);
  Function *F = buildDiamond(B, "main");

  AnalysisCache AC;
  EXPECT_EQ(AC.stats().Hits, 0u);
  EXPECT_EQ(AC.stats().Misses, 0u);

  DominatorTree &DT1 = AC.dominators(*F);
  EXPECT_EQ(AC.stats().Misses, 1u);
  DominatorTree &DT2 = AC.dominators(*F);
  EXPECT_EQ(AC.stats().Hits, 1u);
  EXPECT_EQ(&DT1, &DT2) << "cached analysis must be the same object";

  // Loops piggyback on the cached tree: one more miss, no recompute of
  // the dominator tree.
  AC.loops(*F);
  EXPECT_EQ(AC.stats().Misses, 2u);
  // Each loops() request first hits the cached dominator tree, so a
  // fully cached request counts two hits.
  AC.loops(*F);
  EXPECT_EQ(AC.stats().Hits, 4u);
}

TEST(AnalysisCacheTest, SingleFunctionInvalidation) {
  Module M;
  IRBuilder B(M);
  Function *F = buildDiamond(B, "main");
  Function *G = buildDiamond(B, "helper");

  AnalysisCache AC;
  DominatorTree &FDom = AC.dominators(*F);
  DominatorTree &GDom = AC.dominators(*G);
  EXPECT_EQ(AC.stats().Misses, 2u);

  // Invalidate F only: G's analysis survives, F's is recomputed.
  AC.invalidate(*F);
  EXPECT_EQ(AC.stats().Invalidations, 1u);

  EXPECT_EQ(&AC.dominators(*G), &GDom) << "sibling cache entry dropped";
  EXPECT_EQ(AC.stats().Hits, 1u);

  DominatorTree &FDom2 = AC.dominators(*F);
  EXPECT_EQ(AC.stats().Misses, 3u) << "invalidated entry must recompute";
  (void)FDom;
  (void)FDom2;

  // A second invalidation finds nothing cached and counts nothing.
  AC.invalidate(*F);
  AC.invalidate(*F);
  EXPECT_EQ(AC.stats().Invalidations, 2u);
}

} // namespace
