//===- Promoter.h - SSAPRE-based speculative register promotion -*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's compiler algorithm (§3): register promotion of loads based
/// on SSAPRE (Kennedy et al., TOPLAS'99) over the HSSA form, extended with
/// alias speculation. Per lexical memory expression the pass runs:
///
///   1. Φ-insertion at the iterated dominance frontier of occurrences and
///      constituent definitions;
///   2. a Rename step whose version comparison uses *canonical* constituent
///      versions — the speculative Rename of §3.3: χs the active strategy
///      can check at run time (speculative χs for ALAT, store χs for the
///      software baseline) do not end a version;
///   3. DownSafety via all-paths anticipation;
///   4. WillBeAvail (CanBeAvail ∧ ¬Later) with an edge-profile
///      profitability gate on insertions;
///   5. CodeMotion (§3.4): defining occurrences become ld.a (or the loop
///      form ld.sa for insertions; st.a or an extra ld.a after store
///      occurrences), redundant loads collapse onto the promoted temp,
///      check statements (ld.c / chk.a for cascades) are placed after each
///      speculatively ignored store, software compare+forward pairs after
///      non-speculative aliasing stores, and invala.e + checking loads
///      implement the Figure 2 strategy where insertion was rejected;
///   6. a cleanup pass that erases checks no use can observe.
///
/// All decisions are made against the pristine CFG; mutations (including
/// critical-edge splits) are applied afterwards in one batch.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_PRE_PROMOTER_H
#define SRP_PRE_PROMOTER_H

#include "interp/Profile.h"
#include "pre/Promotion.h"
#include "ssa/HSSA.h"

namespace srp::ssa {
class AnalysisCache;
} // namespace srp::ssa

namespace srp::pre {

/// Runs promotion on one function. \p Profile supplies the alias profile
/// (may be null: no data speculation) and \p Edges the block/edge counts
/// for profitability (may be null: structural heuristics only).
/// \p Cache, when given, supplies dominators and loop info and is
/// invalidated for \p F after mutation; without one a local cache does
/// the same for this call.
PromotionStats promoteFunction(ir::Function &F,
                               const alias::AliasAnalysis &AA,
                               const interp::AliasProfile *Profile,
                               const interp::EdgeProfile *Edges,
                               const PromotionConfig &Config,
                               ssa::AnalysisCache *Cache = nullptr);

/// Runs promotion on every function of \p M and returns aggregate stats.
/// Recomputes each function's CFG afterwards.
PromotionStats promoteModule(ir::Module &M, const alias::AliasAnalysis &AA,
                             const interp::AliasProfile *Profile,
                             const interp::EdgeProfile *Edges,
                             const PromotionConfig &Config,
                             ssa::AnalysisCache *Cache = nullptr);

} // namespace srp::pre

#endif // SRP_PRE_PROMOTER_H
