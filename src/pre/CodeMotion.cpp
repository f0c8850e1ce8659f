//===- CodeMotion.cpp - Mutation planning (§3.4) -------------------------------===//
//
// Stage 5 of the staged SSAPRE pass (see PromotionContext.h): decides,
// per expression, which reuses become register copies or checking loads,
// where PRE insertions and check statements go, and records everything in
// the shared MutationPlan. Purely analytical — ApplyPlan.cpp performs the
// IR mutations afterwards in one batch.
//
//===----------------------------------------------------------------------===//

#include "pre/PromotionContext.h"

#include <algorithm>

using namespace srp;
using namespace srp::ir;
using namespace srp::ssa;
using namespace srp::pre;
using namespace srp::pre::detail;

namespace {

/// Collects every collapsible χ on the version chain from \p FromVer
/// down to the nearest *capture points* (\p StopVers: raw versions at
/// saved defs and edge insertions) of \p Obj — these are exactly the
/// stores the reuse is speculated across and therefore the places check
/// statements must follow. φs fan out into all arguments: a pinned φ (a
/// real merge) still feeds the reuse through every arm, so each arm's
/// stores need checks just like an in-web arm's. Returns false when some
/// chain ends anywhere other than a capture point — a value reaches the
/// reuse that the promoted temp never captured, so no set of checks can
/// make the rewrite sound and the caller must drop the reuse.
bool collectCrossedChis(const PromotionContext &Ctx, ObjectId Obj,
                        unsigned FromVer,
                        const std::set<unsigned> &StopVers, bool DataLevel,
                        std::vector<const ChiRecord *> &Out) {
  std::set<unsigned> Visited;
  std::vector<unsigned> Work{FromVer};
  bool AllCaptured = true;
  while (!Work.empty()) {
    unsigned Ver = Work.back();
    Work.pop_back();
    if (!Visited.insert(Ver).second)
      continue;
    // A capture point ends the chain: the promoted temp was (re)written
    // with the expression's value at a program point carrying this raw
    // version, so χs at or above it are not between capture and reuse.
    if (StopVers.count(Ver))
      continue;
    const VersionOrigin &O = Ctx.H.origin(Obj, Ver);
    switch (O.K) {
    case VersionOrigin::Kind::Chi: {
      const ChiRecord &Chi = Ctx.H.chi(O.ChiIndex);
      bool Collapsible = DataLevel ? Ctx.chiCollapsibleData(Chi)
                                   : Ctx.chiCollapsibleAddr(Chi);
      if (!Collapsible) {
        // The reuse would read through a may-def no check can cover.
        AllCaptured = false;
        break;
      }
      if (std::find(Out.begin(), Out.end(), &Chi) == Out.end())
        Out.push_back(&Chi);
      Work.push_back(Chi.UseVer);
      break;
    }
    case VersionOrigin::Kind::Phi: {
      const auto &Phis2 = Ctx.H.phisOf(O.BB);
      if (O.PhiIndex < Phis2.size())
        for (unsigned Arg : Phis2[O.PhiIndex].Args)
          Work.push_back(Arg);
      break;
    }
    case VersionOrigin::Kind::LiveIn:
    case VersionOrigin::Kind::RealDef:
      // An uncaptured value source: on this path the temp was never
      // written with the expression's current value.
      AllCaptured = false;
      break;
    }
  }
  return AllCaptured;
}

} // namespace

void detail::planCodeMotion(PromotionContext &Ctx, ExprInfo &E,
                            ExprWork &W) {
  Function &F = Ctx.F;
  MutationPlan &Plan = Ctx.Plan;
  bool Indirect = E.Ref.isIndirect();

  // Which versions are available (def real, or def Φ that will be avail)?
  auto VersionAvailable = [&](unsigned Ver) {
    const ExprVer &V = W.Vers[Ver];
    if (V.Kind == ExprVer::DefKind::Real)
      return true;
    return W.Phis[V.PhiId].willBeAvail();
  };

  //===--------------------------------------------------------------===//
  // Phase A: tentative rewrites and capture points.
  //===--------------------------------------------------------------===//
  // A redundant load whose version is available will be rewritten; one
  // that is not may still become an invala-mode checking load (Figure 2).
  std::vector<unsigned> AvailReuses;
  std::vector<unsigned> InvalaOccs;
  std::set<unsigned> InvalaPhiVers;
  std::set<unsigned> SavedVersions;
  for (unsigned OI = 0; OI < E.Occs.size(); ++OI) {
    Occurrence &O = E.Occs[OI];
    if (!O.Redundant)
      continue;
    if (VersionAvailable(O.Version)) {
      AvailReuses.push_back(OI);
      SavedVersions.insert(O.Version);
      continue;
    }
    // Figure 2 strategy: only for scalar refs — the checking load's
    // address must be the same at every execution for the ALAT entry to
    // mean anything.
    if (Ctx.Config.EnableAlat && !Indirect && !O.IsStore &&
        !E.Ref.hasIndex()) {
      InvalaOccs.push_back(OI);
      InvalaPhiVers.insert(O.Version);
      SavedVersions.insert(O.Version);
    }
  }
  if (AvailReuses.empty() && InvalaOccs.empty())
    return;

  // Transitive closure: a saved Φ version saves its operands (invala-mode
  // Φs included, so their defining loads get ld.a flags).
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const ExprPhi &Phi : W.Phis) {
      if (!SavedVersions.count(Phi.Version))
        continue;
      if (!Phi.willBeAvail() && !InvalaPhiVers.count(Phi.Version))
        continue;
      for (unsigned Op : Phi.Operands)
        if (Op != ~0u && SavedVersions.insert(Op).second)
          Changed = true;
    }
  }

  // Planned edge insertions (needed now: they are capture points too).
  struct PlannedInsert {
    const ExprPhi *Phi;
    size_t OperandIdx;
  };
  std::vector<PlannedInsert> Inserts;
  for (const ExprPhi &Phi : W.Phis) {
    if (!Phi.willBeAvail())
      continue;
    if (!SavedVersions.count(Phi.Version) &&
        !W.Vers[Phi.Version].HasRealUse)
      continue;
    for (size_t PI = 0; PI < Phi.Operands.size(); ++PI) {
      unsigned Op = Phi.Operands[PI];
      bool NeedsInsert =
          Op == ~0u || (W.Vers[Op].Kind == ExprVer::DefKind::Phi &&
                        !W.Phis[W.Vers[Op].PhiId].willBeAvail());
      if (NeedsInsert)
        Inserts.push_back({&Phi, PI});
    }
  }

  // A refinement version whose Φ materializes is superseded: the promoted
  // temp already carries the value there, so its defining occurrence is
  // an ordinary reuse, not a capture point.
  auto RefinementSuperseded = [&](const ExprVer &V) {
    return V.RefinesVer != ~0u &&
           W.Vers[V.RefinesVer].Kind == ExprVer::DefKind::Phi &&
           W.Phis[W.Vers[V.RefinesVer].PhiId].willBeAvail();
  };

  // Capture points per reuse *version*: the raw signatures at which the
  // promoted temp is (re)written on the paths that define that version —
  // its real def, or recursively its Φ's operand defs and the planned
  // edge insertions. A flat per-expression stop set would be wrong: a
  // capture somewhere below the reuse can carry the same raw version at
  // one level and mask the χs the reuse actually crosses.
  std::map<unsigned, std::vector<std::set<unsigned>>> CaptureStops;
  auto captureStopsFor =
      [&](unsigned RootVer) -> const std::vector<std::set<unsigned>> & {
    auto It = CaptureStops.find(RootVer);
    if (It != CaptureStops.end())
      return It->second;
    std::vector<std::set<unsigned>> Stops(E.Constituents.size());
    auto Add = [&](const Sig &Raw) {
      for (size_t L = 0; L < Raw.size() && L < Stops.size(); ++L)
        Stops[L].insert(Raw[L]);
    };
    std::set<unsigned> Seen{RootVer};
    std::vector<unsigned> Pending{RootVer};
    while (!Pending.empty()) {
      unsigned Ver = Pending.back();
      Pending.pop_back();
      const ExprVer &V = W.Vers[Ver];
      if (V.Kind == ExprVer::DefKind::Real) {
        // A superseded refinement is an ordinary reuse, not a capture;
        // the temp's value there comes from the Φ it refines.
        if (RefinementSuperseded(V)) {
          if (Seen.insert(V.RefinesVer).second)
            Pending.push_back(V.RefinesVer);
        } else {
          Add(V.RawSig);
        }
        continue;
      }
      const ExprPhi &Phi = W.Phis[V.PhiId];
      for (size_t PI = 0; PI < Phi.Operands.size(); ++PI) {
        unsigned Op = Phi.Operands[PI];
        bool Inserted =
            Op == ~0u || (W.Vers[Op].Kind == ExprVer::DefKind::Phi &&
                          !W.Phis[W.Vers[Op].PhiId].willBeAvail());
        if (Inserted)
          Add(Ctx.rawSigAtExit(E, Phi.BB->preds()[PI]));
        else if (Seen.insert(Op).second)
          Pending.push_back(Op);
      }
    }
    return CaptureStops.emplace(RootVer, std::move(Stops)).first->second;
  };

  //===--------------------------------------------------------------===//
  // Phase B: per-reuse crossed-χ analysis and check planning.
  //===--------------------------------------------------------------===//
  std::vector<const ChiRecord *> AlatChecks, SoftChecks;
  std::vector<char> RewriteOcc(E.Occs.size(), 0);
  struct CheckReuseOcc {
    unsigned OI;
    SpecFlag Flag;
  };
  std::vector<CheckReuseOcc> CheckReuseOccs;
  bool NeedCascadeAny = false;
  for (unsigned OI : AvailReuses) {
    Occurrence &O = E.Occs[OI];
    Sig ReuseRaw = Ctx.rawSigOfOcc(E, O);
    const std::vector<std::set<unsigned>> &StopVers =
        captureStopsFor(O.Version);
    std::vector<const ChiRecord *> OccAlat, OccSoft;
    bool OccCascade = false;
    bool Feasible = true;
    for (size_t L = 0; L < ReuseRaw.size() && Feasible; ++L) {
      bool IsData = L + 1 == ReuseRaw.size();
      ObjectId Obj = E.Constituents[L];
      std::vector<const ChiRecord *> Crossed;
      if (!collectCrossedChis(Ctx, Obj, ReuseRaw[L], StopVers[L], IsData,
                              Crossed)) {
        Feasible = false;
        break;
      }
      for (const ChiRecord *Chi : Crossed) {
        if (!IsData) {
          OccCascade = true;
          OccAlat.push_back(Chi);
          continue;
        }
        if (Ctx.Config.EnableAlat && Chi->Spec) {
          OccAlat.push_back(Chi);
        } else if (Ctx.Config.EnableSoftwareCheck &&
                   (E.Ref.ValueType == TypeKind::Float ||
                    Ctx.Config.SoftwareCheckIntExprs) &&
                   Chi->S->Ref.ValueType == E.Ref.ValueType &&
                   !OccCascade && !E.Ref.Index.isTemp()) {
          OccSoft.push_back(Chi);
        } else if (Ctx.Config.EnableAlat) {
          // The profile predicts this store aliases (or never saw it), so
          // the speculation is not expected to be free — but a chk.a is
          // still *correct*: the ALAT validates the address at run time
          // and the recovery reload repairs any actual collision. Paying
          // a possible recovery beats abandoning the whole reuse web.
          OccAlat.push_back(Chi);
        } else {
          Feasible = false;
          break;
        }
      }
    }
    if (OccSoft.size() > Ctx.Config.SoftwareMaxChecks)
      Feasible = false;
    // Cascade recovery reloads one chain pointer plus the data (Figure
    // 4); deeper chains would need nested recoveries.
    if (OccCascade && (!Ctx.Config.EnableCascade || E.Ref.Depth != 1))
      Feasible = false;
    if (!Feasible)
      continue;
    // Figure-1-style placement: the reuse load itself becomes the check;
    // no after-store statements are needed for its ALAT χs. Software
    // pairs remain after-store (the compare needs the store's address).
    if (Ctx.Config.ChecksAtReuse && !OccAlat.empty() && OccSoft.empty() &&
        !O.IsStore) {
      CheckReuseOccs.push_back(
          {OI, OccCascade ? SpecFlag::ChkAnc : SpecFlag::LdCnc});
      NeedCascadeAny |= OccCascade;
      continue;
    }
    RewriteOcc[OI] = 1;
    NeedCascadeAny |= OccCascade;
    for (const ChiRecord *Chi : OccAlat)
      if (std::find(AlatChecks.begin(), AlatChecks.end(), Chi) ==
          AlatChecks.end())
        AlatChecks.push_back(Chi);
    for (const ChiRecord *Chi : OccSoft)
      if (std::find(SoftChecks.begin(), SoftChecks.end(), Chi) ==
          SoftChecks.end())
        SoftChecks.push_back(Chi);
  }

  bool AnyRewrite = !InvalaOccs.empty() || !CheckReuseOccs.empty();
  for (unsigned OI : AvailReuses)
    AnyRewrite |= RewriteOcc[OI] != 0;
  if (!AnyRewrite)
    return;

  // Feasibility may have dropped every reuse of some version web; the
  // insertions and def rewrites planned for those webs would be pure
  // cost (inserted loads nobody consumes). A web is identified by the
  // canonical signature. Crossed-χ walks leave a web only through a
  // pinned heap φ, whose arms correspond to expression-Φ operand edges —
  // and the Φ-operand closure below keeps those webs — so dropping the
  // remaining unused webs cannot invalidate the capture analysis above.
  std::set<Sig> UsedWebs;
  for (unsigned OI : AvailReuses)
    if (RewriteOcc[OI])
      UsedWebs.insert(W.Vers[E.Occs[OI].Version].CanonSig);
  for (unsigned OI : InvalaOccs)
    UsedWebs.insert(W.Vers[E.Occs[OI].Version].CanonSig);
  for (const CheckReuseOcc &CR : CheckReuseOccs)
    UsedWebs.insert(W.Vers[E.Occs[CR.OI].Version].CanonSig);
  // Close over Φ operand edges: a kept Φ draws its value from operand
  // versions whose canonical signatures can differ (the operand web is
  // what the defining loads and insertions belong to).
  Changed = true;
  while (Changed) {
    Changed = false;
    for (const ExprPhi &Phi : W.Phis) {
      if (!UsedWebs.count(W.Vers[Phi.Version].CanonSig))
        continue;
      if (!Phi.willBeAvail() && !InvalaPhiVers.count(Phi.Version))
        continue;
      for (unsigned Op : Phi.Operands)
        if (Op != ~0u && UsedWebs.insert(W.Vers[Op].CanonSig).second)
          Changed = true;
    }
  }
  {
    std::vector<PlannedInsert> Kept;
    for (const PlannedInsert &PI : Inserts)
      if (UsedWebs.count(W.Vers[PI.Phi->Version].CanonSig))
        Kept.push_back(PI);
    Inserts = std::move(Kept);
  }
  {
    std::set<unsigned> KeptSaved;
    for (unsigned Ver : SavedVersions)
      if (UsedWebs.count(W.Vers[Ver].CanonSig))
        KeptSaved.insert(Ver);
    SavedVersions = std::move(KeptSaved);
  }

  std::set<unsigned> InvalaOccSet(InvalaOccs.begin(), InvalaOccs.end());

  ++Ctx.Stats.PromotedExprs;
  unsigned Temp = F.createTemp(E.Ref.ValueType);
  unsigned AddrTemp = NoTemp;
  bool NeedAlatAnywhere =
      !AlatChecks.empty() || !InvalaOccs.empty() || !CheckReuseOccs.empty();
  bool NeedSoftAnywhere = !SoftChecks.empty();
  if (Indirect && (NeedAlatAnywhere || NeedSoftAnywhere))
    AddrTemp = F.createTemp(TypeKind::Int);
  unsigned ExprAddrTemp = NoTemp; // for software compares
  if (NeedSoftAnywhere) {
    if (Indirect) {
      ExprAddrTemp = AddrTemp;
    } else {
      ExprAddrTemp = F.createTemp(TypeKind::Int);
      Plan.AddrMats.push_back({E.Ref, ExprAddrTemp});
    }
  }
  Ctx.PromotedTemps.push_back({Temp, Indirect});

  SpecFlag DefFlag = NeedAlatAnywhere ? SpecFlag::LdA : SpecFlag::None;
  for (unsigned Ver : SavedVersions) {
    const ExprVer &V = W.Vers[Ver];
    if (V.Kind != ExprVer::DefKind::Real)
      continue;
    if (RefinementSuperseded(V))
      continue;
    // A refinement whose defining load was itself rewritten (as a reuse
    // or an invala-mode check) already writes the temp.
    if (V.RefinesVer != ~0u &&
        (RewriteOcc[V.DefOcc] || InvalaOccSet.count(V.DefOcc)))
      continue;
    Occurrence &O = E.Occs[V.DefOcc];
    if (O.IsStore) {
      MutationPlan::DefStoreRewrite R;
      R.S = O.S;
      R.Ref = E.Ref;
      R.Temp = Temp;
      R.AddrTemp = AddrTemp;
      R.UseStA = Ctx.Config.UseStA && NeedAlatAnywhere;
      R.NeedAlat = NeedAlatAnywhere;
      Plan.DefStores.push_back(R);
    } else {
      MutationPlan::DefLoadRewrite R;
      R.S = O.S;
      R.Temp = Temp;
      R.AddrTemp = AddrTemp;
      R.Flag = DefFlag;
      Plan.DefLoads.push_back(R);
      if (DefFlag != SpecFlag::None)
        ++Ctx.Stats.AdvancedLoads;
    }
  }

  // Φ-driven insertions (planned in Phase A as capture points).
  for (const PlannedInsert &PI : Inserts) {
    MutationPlan::EdgeInsert Ins;
    Ins.From = PI.Phi->BB->preds()[PI.OperandIdx];
    Ins.To = PI.Phi->BB;
    Ins.Ref = E.Ref;
    Ins.Temp = Temp;
    Ins.AddrTemp = AddrTemp;
    // Inserted loads are control-speculative; when the expression is
    // also data-speculative this is the combined ld.sa (§2.3).
    Ins.Flag = NeedAlatAnywhere ? SpecFlag::LdSA : SpecFlag::None;
    Plan.EdgeInserts.push_back(Ins);
    ++Ctx.Stats.InsertedLoads;
    if (Ins.Flag != SpecFlag::None)
      ++Ctx.Stats.AdvancedLoads;
  }

  // Reuse rewrites.
  for (unsigned OI : AvailReuses) {
    if (!RewriteOcc[OI])
      continue;
    Plan.Reuses.push_back({E.Occs[OI].S, Temp});
    uint64_t Weight = Ctx.Edges ? Ctx.Edges->blockCount(E.Occs[OI].BB) : 1;
    if (Indirect) {
      ++Ctx.Stats.LoadsRemovedIndirect;
      Ctx.Stats.DynLoadsRemovedIndirect += Weight;
    } else {
      ++Ctx.Stats.LoadsRemovedDirect;
      Ctx.Stats.DynLoadsRemovedDirect += Weight;
    }
  }
  for (const CheckReuseOcc &CR : CheckReuseOccs) {
    MutationPlan::InvalaReuse R;
    R.S = E.Occs[CR.OI].S;
    R.Temp = Temp;
    R.Flag = CR.Flag;
    R.AddrSrc = Indirect ? AddrTemp : NoTemp;
    Plan.InvalaReuses.push_back(R);
    if (CR.Flag == SpecFlag::ChkAnc)
      ++Ctx.Stats.CascadeChecks;
    else
      ++Ctx.Stats.ChecksInserted;
  }
  bool InvalaPlaced = false;
  for (unsigned OI : InvalaOccs) {
    MutationPlan::InvalaReuse R;
    R.S = E.Occs[OI].S;
    R.Temp = Temp;
    Plan.InvalaReuses.push_back(R);
    ++Ctx.Stats.InvalaModeLoads;
    if (!InvalaPlaced) {
      // One invala.e at a point dominating the whole expression region
      // (the entry block start always qualifies; see §2.3).
      Plan.Invalas.push_back({F.entry(), Temp});
      ++Ctx.Stats.InvalaInserted;
      InvalaPlaced = true;
    }
  }

  // Check statements after the crossed stores.
  std::set<const Stmt *> CheckAfterPlanned;
  for (const ChiRecord *Chi : AlatChecks) {
    if (!CheckAfterPlanned.insert(Chi->S).second)
      continue;
    MutationPlan::CheckInsert C;
    C.After = const_cast<Stmt *>(Chi->S);
    C.Ref = E.Ref;
    C.Temp = Temp;
    C.AddrTemp = AddrTemp;
    C.Cascade = NeedCascadeAny;
    Plan.Checks.push_back(C);
    if (NeedCascadeAny)
      ++Ctx.Stats.CascadeChecks;
    else
      ++Ctx.Stats.ChecksInserted;
  }
  for (const ChiRecord *Chi : SoftChecks) {
    if (!CheckAfterPlanned.insert(Chi->S).second)
      continue;
    MutationPlan::SoftwareCheckInsert C;
    C.After = const_cast<Stmt *>(Chi->S);
    C.Temp = Temp;
    C.ExprAddrTemp = ExprAddrTemp;
    C.ExprAddrIsChainPtr = Indirect;
    int64_t Extra = E.Ref.Offset;
    if (E.Ref.Index.K == Operand::Kind::ConstInt)
      Extra += E.Ref.Index.IntVal * 8;
    C.ExtraOffset = Indirect ? Extra : 0;
    Plan.SoftwareChecks.push_back(C);
    ++Ctx.Stats.SoftwareChecks;
  }
}
