//===- Profile.h - Alias and edge profiles ----------------------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime feedback containers. The paper's framework instruments a run on
/// the train input and collects, for every load/store site, the set of
/// symbols the access actually touched (Chen et al. [7,8]); the HSSA
/// builder then marks χ/μ whose target never appears in the profile as
/// speculative. The edge profile guides PRE's profitability heuristics.
///
/// Both profiles are keyed by ids, not pointers: function index, statement
/// id and block id. A workload's train and ref builds share those ids, so
/// a profile recorded on the train module applies to the ref module as it
/// is.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_INTERP_PROFILE_H
#define SRP_INTERP_PROFILE_H

#include "ir/CFG.h"

#include <cassert>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

namespace srp::interp {

/// Per-site observed points-to targets.
///
/// A site is (function index, statement id); for an access of dereference
/// depth D, level i in [1, D] records the symbol whose storage the i-th
/// dereference landed in. Dereferences of addresses outside any known
/// object record the distinguished UnknownTarget.
class AliasProfile {
public:
  /// Marker for a dereference that escaped all known objects.
  static constexpr unsigned UnknownTarget = ~0u;

  /// Records one observed target at \p Level (1-based) of the access at
  /// statement \p StmtId in \p F. The interpreter calls it only when a
  /// site's target differs from the site's previous one.
  void recordTarget(const ir::Function *F, unsigned StmtId, unsigned Level,
                    unsigned SymbolId) {
    Targets[SiteKey{F->index(), StmtId, Level}].insert(SymbolId);
  }

  /// True if \p Sym was ever a level-\p Level target of the site. Returns
  /// true as well when the site recorded an unknown target at that level
  /// (the profile cannot rule anything out then).
  bool observed(const ir::Function *F, unsigned StmtId, unsigned Level,
                const ir::Symbol *Sym) const {
    const std::set<unsigned> *T = targets(F, StmtId, Level);
    return T && (T->count(Sym->Id) || T->count(UnknownTarget));
  }

  /// Observed target set of one level, or null.
  const std::set<unsigned> *targets(const ir::Function *F, unsigned StmtId,
                                    unsigned Level) const {
    auto It = Targets.find(SiteKey{F->index(), StmtId, Level});
    return It == Targets.end() ? nullptr : &It->second;
  }

private:
  struct SiteKey {
    unsigned FuncIdx;
    unsigned StmtId;
    unsigned Level;

    auto operator<=>(const SiteKey &) const = default;
  };

  std::map<SiteKey, std::set<unsigned>> Targets;
};

/// Block and edge execution counts, in flat per-function tables indexed
/// by block id.
class EdgeProfile {
public:
  /// Adds \p N entries of \p BB (the interpreter adds a run's counts at
  /// its end).
  void addBlock(const ir::BasicBlock *BB, uint64_t N) { at(BB).Count += N; }

  /// Adds \p N traversals of the edge \p From -> \p To.
  void addEdge(const ir::BasicBlock *From, const ir::BasicBlock *To,
               uint64_t N) {
    for (Edge &E : at(From).Succs)
      if (E.To == To->getId() || E.To == NoBlock) {
        E.To = To->getId();
        E.Count += N;
        return;
      }
    assert(false && "a block has at most two successors");
  }

  uint64_t blockCount(const ir::BasicBlock *BB) const {
    const Counts *C = find(BB);
    return C ? C->Count : 0;
  }

  uint64_t edgeCount(const ir::BasicBlock *From,
                     const ir::BasicBlock *To) const {
    if (const Counts *C = find(From))
      for (const Edge &E : C->Succs)
        if (E.To == To->getId())
          return E.Count;
    return 0;
  }

private:
  static constexpr unsigned NoBlock = ~0u;

  struct Edge {
    unsigned To = NoBlock; ///< target block id
    uint64_t Count = 0;
  };

  /// One block's count and out-edges (a terminator has at most two
  /// targets).
  struct Counts {
    uint64_t Count = 0;
    Edge Succs[2];
  };

  Counts &at(const ir::BasicBlock *BB) {
    const ir::Function *F = BB->getParent();
    if (F->index() >= Funcs.size())
      Funcs.resize(F->index() + 1);
    std::vector<Counts> &Blocks = Funcs[F->index()];
    if (BB->getId() >= Blocks.size())
      Blocks.resize(F->numBlocks());
    return Blocks[BB->getId()];
  }

  /// Null for a block the profile never saw (e.g. one created after the
  /// profiled run).
  const Counts *find(const ir::BasicBlock *BB) const {
    unsigned FI = BB->getParent()->index();
    if (FI >= Funcs.size() || BB->getId() >= Funcs[FI].size())
      return nullptr;
    return &Funcs[FI][BB->getId()];
  }

  std::vector<std::vector<Counts>> Funcs; ///< [function index][block id]
};

} // namespace srp::interp

#endif // SRP_INTERP_PROFILE_H
