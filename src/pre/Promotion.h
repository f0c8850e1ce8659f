//===- Promotion.h - Register promotion configuration ------------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration and statistics of the PRE-based register promotion pass.
/// The three strategies the paper's evaluation compares:
///
///  * conservative() — PRE-based promotion that respects every may-alias
///    (what plain -O2-style promotion can do);
///  * baselineO3()   — adds the software run-time disambiguation of
///    Nicolau [30]: an address compare plus conditional register forwarding
///    after each possibly-aliasing store (ORC enables this at -O3, and the
///    paper's baseline includes it);
///  * alat()         — the paper: adds profile-guided data speculation
///    with ALAT advanced loads and checks on top of the baseline.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_PRE_PROMOTION_H
#define SRP_PRE_PROMOTION_H

#include <cstdint>

namespace srp::pre {

/// Knobs of the promotion pass.
struct PromotionConfig {
  /// Software compare+forward checks after aliasing stores [30].
  bool EnableSoftwareCheck = false;
  /// ALAT data speculation (requires an alias profile to find χ_s).
  bool EnableAlat = false;
  /// Allow speculating the address part of indirect references; failed
  /// checks then need chk.a recovery (§2.4). Off by default, matching the
  /// paper's implementation ("limited to expressions that will not cause
  /// cascaded failure").
  bool EnableCascade = false;
  /// Use the proposed st.a store (§2.5) instead of an extra ld.a after
  /// store occurrences.
  bool UseStA = false;
  /// Place ALAT checks at the reuse site (the checking load itself is
  /// the reuse, Figure 1's form) instead of §3.4's check statement after
  /// each speculatively ignored store. After-store placement lets one
  /// check cover several later reuses; at-reuse placement keeps exactly
  /// one check per former load. Sound here without invala.e because the
  /// modeled ALAT verifies the full address on check hits.
  bool ChecksAtReuse = false;
  /// Apply software compare+forward to integer-typed expressions too.
  /// Off by default: an L1-hit integer load costs about what the
  /// compare+predicated-move pair does, so forwarding only clearly pays
  /// for floating-point loads (9 cycles on Itanium). The paper's ORC
  /// baseline gates the transformation with similar profitability
  /// heuristics.
  bool SoftwareCheckIntExprs = false;
  /// Maximum number of compare+forward pairs a software-checked reuse
  /// chain may need before promotion is considered unprofitable. The
  /// run-time disambiguation of [30] is pairwise (one compare and one
  /// predicated move per store), so the default allows a single pair —
  /// reuse chains crossing several ambiguous stores are exactly where
  /// the ALAT's single free check wins (§5).
  unsigned SoftwareMaxChecks = 1;

  static PromotionConfig conservative() { return {}; }

  static PromotionConfig baselineO3() {
    PromotionConfig C;
    C.EnableSoftwareCheck = true;
    return C;
  }

  static PromotionConfig alat() {
    PromotionConfig C;
    C.EnableSoftwareCheck = true;
    C.EnableAlat = true;
    return C;
  }
};

/// What the pass did (aggregated per module by the pipeline).
struct PromotionStats {
  unsigned PromotedExprs = 0;      ///< Expressions with at least one rewrite.
  unsigned LoadsRemovedDirect = 0; ///< Reuse loads of direct refs removed.
  unsigned LoadsRemovedIndirect = 0; ///< ... of indirect refs.
  unsigned AdvancedLoads = 0;      ///< ld.a / ld.sa flags placed.
  unsigned InsertedLoads = 0;      ///< PRE insertions on edges.
  unsigned ChecksInserted = 0;     ///< ld.c check statements placed.
  unsigned CascadeChecks = 0;      ///< chk.a check statements placed.
  unsigned InvalaInserted = 0;     ///< invala.e statements placed.
  unsigned InvalaModeLoads = 0;    ///< reuses turned into checking loads.
  unsigned SoftwareChecks = 0;     ///< compare+forward pairs placed.
  unsigned StAStores = 0;          ///< st.a completers placed.
  unsigned ChecksRemovedByCleanup = 0;
  /// Profile-weighted (dynamic) removal estimates: each removed load
  /// counted by its block's train execution count. Figure 9's
  /// direct/indirect split uses these.
  uint64_t DynLoadsRemovedDirect = 0;
  uint64_t DynLoadsRemovedIndirect = 0;

  PromotionStats &operator+=(const PromotionStats &O) {
    PromotedExprs += O.PromotedExprs;
    LoadsRemovedDirect += O.LoadsRemovedDirect;
    LoadsRemovedIndirect += O.LoadsRemovedIndirect;
    AdvancedLoads += O.AdvancedLoads;
    InsertedLoads += O.InsertedLoads;
    ChecksInserted += O.ChecksInserted;
    CascadeChecks += O.CascadeChecks;
    InvalaInserted += O.InvalaInserted;
    InvalaModeLoads += O.InvalaModeLoads;
    SoftwareChecks += O.SoftwareChecks;
    StAStores += O.StAStores;
    ChecksRemovedByCleanup += O.ChecksRemovedByCleanup;
    DynLoadsRemovedDirect += O.DynLoadsRemovedDirect;
    DynLoadsRemovedIndirect += O.DynLoadsRemovedIndirect;
    return *this;
  }

  unsigned loadsRemoved() const {
    return LoadsRemovedDirect + LoadsRemovedIndirect;
  }
};

} // namespace srp::pre

#endif // SRP_PRE_PROMOTION_H
