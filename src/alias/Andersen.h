//===- Andersen.h - Inclusion-based points-to analysis ----------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Andersen-style inclusion-based points-to analysis: assignments become
/// subset constraints instead of Steensgaard's unifications, so `p = &a;
/// q = &b; r = p;` keeps pts(q) = {b} separate from pts(p) = pts(r) =
/// {a}. Cubic in the worst case but far more precise — the ablation
/// question it answers (paper §5: "the alias analysis could be
/// improved...") is how much of the speculation win a better static
/// analysis would already capture.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_ALIAS_ANDERSEN_H
#define SRP_ALIAS_ANDERSEN_H

#include "alias/AliasAnalysis.h"

#include <set>

namespace srp::alias {

/// Inclusion-based points-to analysis over the same node universe as the
/// Steensgaard solver (symbol locations and per-function temp values).
/// The constructor runs the whole-program fixpoint; queries are lookups.
class AndersenAnalysis final : public AliasAnalysis {
public:
  explicit AndersenAnalysis(const ir::Module &M);

  bool mayAlias(const ir::MemRef &A, const ir::Function *FA,
                const ir::MemRef &B, const ir::Function *FB) const override;

  std::vector<const ir::Symbol *>
  mayPointees(const ir::MemRef &Ref, const ir::Function *F) const override;

  bool isCallClobbered(const ir::Symbol *S) const override;

  const char *name() const override { return "andersen"; }

  /// Points-to set (symbol ids) of the cell chain of \p Ref at its final
  /// dereference level; empty for direct refs.
  const std::set<unsigned> &pointsToSetOf(const ir::MemRef &Ref,
                                          const ir::Function *F) const;

private:
  friend class AndersenSolver;

  /// Points-to set of the *contents* of node N (what a value loaded from
  /// N may point to).
  const std::set<unsigned> &pts(unsigned Node) const {
    return Node < Pts.size() ? Pts[Node] : Empty;
  }

  const ir::Module &M;
  /// Per node: pointee symbol ids.
  std::vector<std::set<unsigned>> Pts;
  static const std::set<unsigned> Empty;
};

} // namespace srp::alias

#endif // SRP_ALIAS_ANDERSEN_H
