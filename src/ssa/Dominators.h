//===- Dominators.h - Dominator tree and frontiers --------------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator tree (Cooper-Harvey-Kennedy iterative algorithm), dominance
/// frontiers, and a preorder over the dominator tree — the substrate the
/// φ-insertion and both renaming passes (HSSA and SSAPRE) walk.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_SSA_DOMINATORS_H
#define SRP_SSA_DOMINATORS_H

#include "ir/CFG.h"

#include <memory>
#include <vector>

namespace srp::ssa {

/// Dominator information for one function. Requires Function::recomputeCFG
/// to have run. Blocks unreachable from the entry have no dominator data
/// and are reported by isReachable().
class DominatorTree {
public:
  explicit DominatorTree(ir::Function &F);

  ir::Function &function() const { return F; }

  bool isReachable(const ir::BasicBlock *BB) const {
    return RpoNumber[BB->getId()] != ~0u;
  }

  /// Immediate dominator; null for the entry and unreachable blocks.
  ir::BasicBlock *idom(const ir::BasicBlock *BB) const {
    return Idom[BB->getId()];
  }

  /// True if \p A dominates \p B (reflexive).
  bool dominates(const ir::BasicBlock *A, const ir::BasicBlock *B) const;

  /// Dominance frontier of \p BB.
  const std::vector<ir::BasicBlock *> &
  frontier(const ir::BasicBlock *BB) const {
    return Frontier[BB->getId()];
  }

  /// Children in the dominator tree.
  const std::vector<ir::BasicBlock *> &
  children(const ir::BasicBlock *BB) const {
    return Children[BB->getId()];
  }

  /// Reachable blocks in reverse postorder (entry first).
  const std::vector<ir::BasicBlock *> &rpo() const { return Rpo; }

  /// Iterated dominance frontier of a set of blocks (the φ placement set).
  std::vector<ir::BasicBlock *>
  iteratedFrontier(const std::vector<ir::BasicBlock *> &Defs) const;

private:
  void computeIdom();
  void computeFrontiers();

  ir::Function &F;
  std::vector<ir::BasicBlock *> Rpo;
  std::vector<unsigned> RpoNumber;             ///< by block id; ~0u if dead
  std::vector<ir::BasicBlock *> Idom;          ///< by block id
  std::vector<std::vector<ir::BasicBlock *>> Frontier;  ///< by block id
  std::vector<std::vector<ir::BasicBlock *>> Children;  ///< by block id
  /// Preorder in/out stamps for O(1) dominance queries.
  std::vector<unsigned> DfsIn, DfsOut;
};

/// Natural-loop information derived from the dominator tree.
///
/// A back edge T->H with H dominating T defines a loop with header H; the
/// loop body is found by the usual reverse reachability walk. Loops sharing
/// a header are merged.
class LoopInfo {
public:
  struct Loop {
    ir::BasicBlock *Header = nullptr;
    std::vector<ir::BasicBlock *> Blocks;    ///< includes the header
    std::vector<ir::BasicBlock *> Latches;   ///< sources of back edges
    Loop *Parent = nullptr;
    unsigned Depth = 1;

    bool contains(const ir::BasicBlock *BB) const;
  };

  explicit LoopInfo(const DominatorTree &DT);

  /// Innermost loop containing \p BB, or null.
  const Loop *loopFor(const ir::BasicBlock *BB) const {
    return BlockLoop[BB->getId()];
  }

  const std::vector<std::unique_ptr<Loop>> &loops() const { return Loops; }

  /// The unique block that branches into the header from outside the loop,
  /// or null if the header has multiple or fall-through-only outside
  /// predecessors (no preheader).
  ir::BasicBlock *preheader(const Loop &L) const;

private:
  std::vector<std::unique_ptr<Loop>> Loops;
  std::vector<Loop *> BlockLoop; ///< innermost loop by block id
};

} // namespace srp::ssa

#endif // SRP_SSA_DOMINATORS_H
