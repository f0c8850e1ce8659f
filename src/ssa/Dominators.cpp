//===- Dominators.cpp - Dominator tree and frontiers -------------------------===//

#include "ssa/Dominators.h"

#include "support/Error.h"

#include <algorithm>
#include <map>
#include <cassert>

using namespace srp;
using namespace srp::ir;
using namespace srp::ssa;

DominatorTree::DominatorTree(ir::Function &F) : F(F) {
  RpoNumber.assign(F.numBlocks(), ~0u);
  for (const BasicBlock *BB : reversePostorder(F)) {
    RpoNumber[BB->getId()] = static_cast<unsigned>(Rpo.size());
    Rpo.push_back(F.block(BB->getId()));
  }
  computeIdom();
  computeFrontiers();
}

void DominatorTree::computeIdom() {
  unsigned N = F.numBlocks();
  Idom.assign(N, nullptr);
  if (Rpo.empty())
    return;
  // Cooper-Harvey-Kennedy: iterate to fixpoint over RPO.
  std::vector<BasicBlock *> Doms(N, nullptr);
  BasicBlock *Entry = F.entry();
  Doms[Entry->getId()] = Entry;

  auto Intersect = [&](BasicBlock *A, BasicBlock *B) {
    while (A != B) {
      while (RpoNumber[A->getId()] > RpoNumber[B->getId()])
        A = Doms[A->getId()];
      while (RpoNumber[B->getId()] > RpoNumber[A->getId()])
        B = Doms[B->getId()];
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BasicBlock *BB : Rpo) {
      if (BB == Entry)
        continue;
      BasicBlock *NewIdom = nullptr;
      for (BasicBlock *Pred : BB->preds()) {
        if (!isReachable(Pred) || !Doms[Pred->getId()])
          continue;
        NewIdom = NewIdom ? Intersect(NewIdom, Pred) : Pred;
      }
      if (NewIdom && Doms[BB->getId()] != NewIdom) {
        Doms[BB->getId()] = NewIdom;
        Changed = true;
      }
    }
  }

  Children.assign(N, {});
  for (BasicBlock *BB : Rpo) {
    if (BB == Entry)
      continue;
    Idom[BB->getId()] = Doms[BB->getId()];
    Children[Doms[BB->getId()]->getId()].push_back(BB);
  }

  // Preorder stamps for dominates().
  DfsIn.assign(N, 0);
  DfsOut.assign(N, 0);
  unsigned Clock = 0;
  std::vector<std::pair<BasicBlock *, size_t>> Stack;
  Stack.push_back({Entry, 0});
  DfsIn[Entry->getId()] = ++Clock;
  while (!Stack.empty()) {
    auto &[BB, Next] = Stack.back();
    auto &Kids = Children[BB->getId()];
    if (Next < Kids.size()) {
      BasicBlock *Kid = Kids[Next++];
      DfsIn[Kid->getId()] = ++Clock;
      Stack.push_back({Kid, 0});
      continue;
    }
    DfsOut[BB->getId()] = ++Clock;
    Stack.pop_back();
  }
}

bool DominatorTree::dominates(const ir::BasicBlock *A,
                              const ir::BasicBlock *B) const {
  if (!isReachable(A) || !isReachable(B))
    return false;
  return DfsIn[A->getId()] <= DfsIn[B->getId()] &&
         DfsOut[B->getId()] <= DfsOut[A->getId()];
}

void DominatorTree::computeFrontiers() {
  Frontier.assign(F.numBlocks(), {});
  for (BasicBlock *BB : Rpo) {
    if (BB->preds().size() < 2)
      continue;
    for (BasicBlock *Pred : BB->preds()) {
      if (!isReachable(Pred))
        continue;
      BasicBlock *Runner = Pred;
      while (Runner && Runner != Idom[BB->getId()]) {
        auto &DF = Frontier[Runner->getId()];
        if (std::find(DF.begin(), DF.end(), BB) == DF.end())
          DF.push_back(BB);
        Runner = Idom[Runner->getId()];
      }
    }
  }
}

std::vector<ir::BasicBlock *> DominatorTree::iteratedFrontier(
    const std::vector<ir::BasicBlock *> &Defs) const {
  std::vector<char> InResult(F.numBlocks(), 0);
  std::vector<ir::BasicBlock *> Result;
  std::vector<ir::BasicBlock *> Work(Defs.begin(), Defs.end());
  std::vector<char> Queued(F.numBlocks(), 0);
  for (BasicBlock *BB : Work)
    Queued[BB->getId()] = 1;
  while (!Work.empty()) {
    BasicBlock *BB = Work.back();
    Work.pop_back();
    if (!isReachable(BB))
      continue;
    for (BasicBlock *DF : Frontier[BB->getId()]) {
      if (InResult[DF->getId()])
        continue;
      InResult[DF->getId()] = 1;
      Result.push_back(DF);
      if (!Queued[DF->getId()]) {
        Queued[DF->getId()] = 1;
        Work.push_back(DF);
      }
    }
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// LoopInfo
//===----------------------------------------------------------------------===//

bool LoopInfo::Loop::contains(const ir::BasicBlock *BB) const {
  return std::find(Blocks.begin(), Blocks.end(), BB) != Blocks.end();
}

LoopInfo::LoopInfo(const DominatorTree &DT) {
  ir::Function &F = DT.function();
  BlockLoop.assign(F.numBlocks(), nullptr);

  // Find back edges; group by header.
  std::map<BasicBlock *, std::vector<BasicBlock *>> HeaderLatches;
  for (BasicBlock *BB : DT.rpo())
    for (BasicBlock *Succ : BB->succs())
      if (DT.dominates(Succ, BB))
        HeaderLatches[Succ].push_back(BB);

  for (auto &[Header, Latches] : HeaderLatches) {
    auto L = std::make_unique<Loop>();
    L->Header = Header;
    L->Latches = Latches;
    // Reverse reachability from latches, stopping at the header.
    std::vector<char> InLoop(F.numBlocks(), 0);
    InLoop[Header->getId()] = 1;
    L->Blocks.push_back(Header);
    std::vector<BasicBlock *> Work(Latches.begin(), Latches.end());
    while (!Work.empty()) {
      BasicBlock *BB = Work.back();
      Work.pop_back();
      if (InLoop[BB->getId()])
        continue;
      InLoop[BB->getId()] = 1;
      L->Blocks.push_back(BB);
      for (BasicBlock *Pred : BB->preds())
        if (DT.isReachable(Pred))
          Work.push_back(Pred);
    }
    Loops.push_back(std::move(L));
  }

  // Nesting: smaller loops nested in larger ones containing their header.
  std::sort(Loops.begin(), Loops.end(),
            [](const auto &A, const auto &B) {
              return A->Blocks.size() < B->Blocks.size();
            });
  for (size_t I = 0; I < Loops.size(); ++I) {
    for (size_t J = I + 1; J < Loops.size(); ++J) {
      if (Loops[J].get() != Loops[I].get() &&
          Loops[J]->contains(Loops[I]->Header) &&
          Loops[J]->Blocks.size() > Loops[I]->Blocks.size()) {
        Loops[I]->Parent = Loops[J].get();
        break;
      }
    }
  }
  for (auto &L : Loops) {
    unsigned Depth = 1;
    for (Loop *P = L->Parent; P; P = P->Parent)
      ++Depth;
    L->Depth = Depth;
  }
  // Innermost mapping: loops are size-sorted, so first hit wins.
  for (auto &L : Loops)
    for (BasicBlock *BB : L->Blocks)
      if (!BlockLoop[BB->getId()])
        BlockLoop[BB->getId()] = L.get();
}

ir::BasicBlock *LoopInfo::preheader(const Loop &L) const {
  ir::BasicBlock *Candidate = nullptr;
  for (BasicBlock *Pred : L.Header->preds()) {
    if (L.contains(Pred))
      continue;
    if (Candidate)
      return nullptr; // multiple outside predecessors
    Candidate = Pred;
  }
  // The preheader must branch only into the header.
  if (Candidate && Candidate->succs().size() == 1)
    return Candidate;
  return nullptr;
}
