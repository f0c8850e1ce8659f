//===- SpecVerifier.cpp - Speculation-safety static checks ------------------===//
//
// Four forward dataflow analyses over the post-promotion CFG, all keyed by
// the small set of temps that participate in speculation:
//
//   1. A per-register ALAT state machine (E1/E2): the power set of
//      {Unanchored, Cleared, Armed, Clobbered, PendingCopy} flows forward
//      with union at joins, so a check can be diagnosed against every
//      state any path can reach it in.
//   2. Definite assignment of saved addresses (E3): intersection at
//      joins; a check whose AddrSrc is not defined on all paths reads a
//      garbage address.
//   3. Saved-address staleness (E4): may-analysis marking a saved pointer
//      stale when a store can write the pointer cell it was loaded from.
//   4. May-live ALAT entries (W1): union at joins; the peak count per
//      program point, plus callee peaks at call sites, bounds the dynamic
//      entry pressure (interp::AlatObserver enforces the same accounting
//      dynamically, which is what the differential test compares).
//
// All four are one solver (FunctionChecker::solveForward) with different
// transfer functions. It sweeps the reachable blocks in the order of
// ir::reversePostorder until no OUT state changes, then replays each block
// once to report. The OUT states live in one flat block x temp byte table;
// temps, blocks and functions index flat vectors (dense temp index, RPO
// position, Function::index()).
//
//===----------------------------------------------------------------------===//

#include "analysis/SpecVerifier.h"

#include "alias/AliasAnalysis.h"
#include "ir/CFG.h"
#include "ir/Printer.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <optional>

using namespace srp;
using namespace srp::ir;
using namespace srp::analysis;

namespace {

/// Per-register abstract ALAT states (a power set; forward may-analysis).
enum StateBits : uint8_t {
  StUnanchored = 1 << 0, ///< No anchor reached on some path.
  StCleared = 1 << 1,    ///< Entry known absent (invala / clearing check).
  StArmed = 1 << 2,      ///< Entry may be valid, register in sync.
  StClobbered = 1 << 3,  ///< Entry may be valid, register redefined.
  StPendingCopy = 1 << 4 ///< st.a armed, companion copy still pending.
};

bool isChkFamily(SpecFlag Flag) {
  return Flag == SpecFlag::ChkA || Flag == SpecFlag::ChkAnc;
}

/// The software-check pattern the promoter emits (Select keeping the old
/// promoted value on the no-alias path) is a guarded, sound redefinition.
bool isGuardedSelect(const Stmt &S) {
  return S.Kind == StmtKind::Assign && S.Op == Opcode::Select &&
         S.C.isTemp() && S.C.getTemp() == S.Dst;
}

class FunctionChecker {
public:
  /// \p CalleePeak holds the ALAT pressure of every function verified so
  /// far, by Function::index() (0 for the rest).
  FunctionChecker(const Function &F, const SpecVerifyConfig &Config,
                  const std::vector<unsigned> &CalleePeak,
                  std::vector<SpecDiag> &Diags)
      : F(F), Config(Config), CalleePeak(CalleePeak), Diags(Diags) {}

  /// Runs every check. Returns the function's worst-case ALAT pressure
  /// (own live entries plus the deepest callee contribution).
  unsigned run() {
    // Unreachable blocks are skipped: no executable path means no
    // speculation obligation.
    RPO = reversePostorder(F);
    RpoIndex.assign(F.numBlocks(), NoIndex);
    for (unsigned I = 0; I < RPO.size(); ++I)
      RpoIndex[RPO[I]->getId()] = I;
    collectTemps();
    if (N == 0)
      return 0; // Nothing speculative anywhere in the function.
    checkStructure();
    // E1/E2: every register starts unanchored.
    solveForward(0, StUnanchored, 0, Meet::Union,
                 std::bind_front(&FunctionChecker::transferState, this));
    // E3: a must-analysis, so non-entry blocks start from the optimistic
    // all-defined state.
    solveForward(1, 0, 1, Meet::Intersection,
                 std::bind_front(&FunctionChecker::transferDefined, this));
    if (Config.AA)
      runAddrStaleness();
    return runCapacity();
  }

private:
  /// One byte per tracked temp (dense index).
  using State = std::vector<uint8_t>;
  enum class Meet { Union, Intersection };
  static constexpr unsigned NoIndex = ~0u;

  //===--------------------------------------------------------------===//
  // Infrastructure
  //===--------------------------------------------------------------===//

  /// Solves one forward analysis over the reachable blocks. Every OUT
  /// starts at \p Init; a block's IN is \p EntryIn at the entry and
  /// \p OtherIn elsewhere, met with the OUT of each reachable predecessor;
  /// \p Transfer(S, St, Report, BB) steps one statement. Sweeps RPO until
  /// no OUT changes, then replays each block once with Report set.
  template <typename TransferFn>
  void solveForward(uint8_t Init, uint8_t EntryIn, uint8_t OtherIn,
                    Meet Op, TransferFn Transfer) {
    Out.assign(RPO.size() * N, Init);
    // Leaves the block's OUT under the current table in In.
    auto RunBlock = [&](unsigned BI, bool Report) {
      const BasicBlock *BB = RPO[BI];
      In.assign(N, BB == F.entry() ? EntryIn : OtherIn);
      for (const BasicBlock *P : BB->preds()) {
        unsigned PI = RpoIndex[P->getId()];
        if (PI == NoIndex)
          continue;
        const uint8_t *POut = &Out[size_t(PI) * N];
        for (unsigned I = 0; I < N; ++I)
          In[I] = Op == Meet::Union ? In[I] | POut[I] : In[I] & POut[I];
      }
      for (size_t SI = 0, SE = BB->size(); SI != SE; ++SI)
        Transfer(*BB->stmt(SI), In, Report, BB);
    };
    for (bool Changed = true; Changed;) {
      Changed = false;
      for (unsigned BI = 0; BI < RPO.size(); ++BI) {
        RunBlock(BI, /*Report=*/false);
        uint8_t *BOut = &Out[size_t(BI) * N];
        if (!std::equal(In.begin(), In.end(), BOut)) {
          std::copy(In.begin(), In.end(), BOut);
          Changed = true;
        }
      }
    }
    for (unsigned BI = 0; BI < RPO.size(); ++BI)
      RunBlock(BI, /*Report=*/true);
  }

  void emit(SpecDiagKind Kind, SpecDiagSeverity Sev, const BasicBlock *BB,
            const Stmt *S, std::string Message) {
    SpecDiag D;
    D.Kind = Kind;
    D.Severity = Sev;
    D.FunctionName = F.getName();
    D.BlockName = BB ? BB->getName() : std::string();
    if (S) {
      D.StmtText = stmtToString(*S);
      D.Line = S->Line;
    }
    D.Message = std::move(Message);
    Diags.push_back(std::move(D));
  }

  bool tracked(unsigned Temp) const {
    return Temp < Index.size() && Index[Temp] != NoIndex;
  }
  unsigned idx(unsigned Temp) const {
    assert(tracked(Temp) && "temp takes no part in speculation");
    return Index[Temp];
  }

  void addTemp(unsigned Temp) {
    if (Temp == NoTemp || tracked(Temp))
      return;
    if (Temp >= Index.size())
      Index.resize(Temp + 1, NoIndex);
    Index[Temp] = N++;
  }

  /// Collects every temp participating in speculation: flagged load
  /// destinations, chain pointers (AddrDst of advanced loads, AddrSrc of
  /// checks), st.a entry registers and invala.e targets.
  void collectTemps() {
    Index.assign(F.numTemps(), NoIndex);
    for (const BasicBlock *BB : RPO) {
      for (size_t SI = 0, SE = BB->size(); SI != SE; ++SI) {
        const Stmt &S = *BB->stmt(SI);
        switch (S.Kind) {
        case StmtKind::Load:
          if (S.Flag != SpecFlag::None) {
            addTemp(S.Dst);
            if (isAdvancedFlag(S.Flag) && S.Ref.isIndirect())
              addTemp(S.AddrDst);
            if (isCheckFlag(S.Flag))
              addTemp(S.AddrSrc);
          }
          break;
        case StmtKind::Store:
          if (S.StA)
            addTemp(S.AlatDst);
          break;
        case StmtKind::Invala:
          addTemp(S.Dst);
          break;
        default:
          break;
        }
      }
    }
  }

  //===--------------------------------------------------------------===//
  // E3: structural checks and expression consistency
  //===--------------------------------------------------------------===//

  void checkStructure() {
    // Canonical promoted expression per register (by dense index), from
    // the first flagged statement that names it.
    std::vector<const MemRef *> Canon(N, nullptr);
    std::vector<char> RefMismatchReported(N, 0);
    auto NoteRef = [&](unsigned Temp, const Stmt &S, const BasicBlock *BB) {
      unsigned I = idx(Temp);
      if (!Canon[I])
        Canon[I] = &S.Ref;
      if (Canon[I]->sameLexicalRef(S.Ref) || RefMismatchReported[I])
        return;
      RefMismatchReported[I] = 1;
      emit(SpecDiagKind::MalformedRecovery, SpecDiagSeverity::Error, BB, &S,
           formatString("speculative statements for t%u disagree on the "
                        "promoted expression ('%s' here vs '%s' at its "
                        "first speculative use)",
                        Temp, memRefToString(S.Ref).c_str(),
                        memRefToString(*Canon[I]).c_str()));
    };

    for (const BasicBlock *BB : RPO) {
      for (size_t SI = 0, SE = BB->size(); SI != SE; ++SI) {
        const Stmt &S = *BB->stmt(SI);
        if (S.isStore() && S.StA && S.AlatDst != NoTemp)
          NoteRef(S.AlatDst, S, BB);
        if (!S.isLoad() || S.Flag == SpecFlag::None)
          continue;
        NoteRef(S.Dst, S, BB);
        if (isChkFamily(S.Flag)) {
          if (S.Ref.Depth != 1)
            emit(SpecDiagKind::MalformedRecovery, SpecDiagSeverity::Error,
                 BB, &S,
                 formatString("chk.a over a depth-%u reference: recovery "
                              "can only re-execute a single-level pointer "
                              "cascade (§2.4)",
                              S.Ref.Depth));
          if (S.AddrSrc == NoTemp)
            emit(SpecDiagKind::MalformedRecovery, SpecDiagSeverity::Error,
                 BB, &S,
                 "chk.a without a saved chain pointer: lowering has no "
                 "register to check and recovery cannot rebuild the "
                 "address");
        } else if (isCheckFlag(S.Flag) && S.Ref.isIndirect() &&
                   S.AddrSrc == NoTemp) {
          emit(SpecDiagKind::MalformedRecovery, SpecDiagSeverity::Error, BB,
               &S,
               "indirect checking load without a saved address: re-walking "
               "the chain would re-speculate the pointer load");
        }
      }
    }
  }

  //===--------------------------------------------------------------===//
  // E1/E2: the per-register ALAT state machine
  //===--------------------------------------------------------------===//

  void plainDef(uint8_t &M, const Stmt &S) {
    uint8_t Out = 0;
    if (M & StUnanchored)
      Out |= StUnanchored;
    if (M & StCleared)
      Out |= StCleared; // Entry absent: a later check misses and reloads.
    if (M & StArmed)
      Out |= isGuardedSelect(S) ? StArmed : StClobbered;
    if (M & StClobbered)
      Out |= StClobbered;
    if (M & StPendingCopy)
      Out |= (S.Kind == StmtKind::Assign && S.Op == Opcode::Copy)
                 ? StArmed // The st.a companion copy syncs the register.
                 : StClobbered;
    M = Out;
  }

  void transferState(const Stmt &S, State &St, bool Report,
                     const BasicBlock *BB) {
    switch (S.Kind) {
    case StmtKind::Load:
      if (isCheckFlag(S.Flag)) {
        uint8_t &M = St[idx(S.Dst)];
        if (Report) {
          if (M & StUnanchored)
            emit(SpecDiagKind::UnanchoredCheck, SpecDiagSeverity::Error, BB,
                 &S,
                 formatString(
                     "t%u is checked here, but no advanced load, st.a or "
                     "invala.e for it reaches this check on every path; a "
                     "register-keyed ALAT could hit a stale entry",
                     S.Dst));
          if (M & StClobbered)
            emit(SpecDiagKind::ClobberedRegister, SpecDiagSeverity::Error,
                 BB, &S,
                 formatString(
                     "t%u may have been redefined by an unflagged "
                     "statement since its ALAT entry was armed; a check "
                     "hit would keep the clobbered value",
                     S.Dst));
          if (M & StPendingCopy)
            emit(SpecDiagKind::ClobberedRegister, SpecDiagSeverity::Error,
                 BB, &S,
                 formatString("t%u is checked between its st.a and the "
                              "copy that syncs the register",
                              S.Dst));
          if (isChkFamily(S.Flag) && tracked(S.AddrSrc) &&
              (St[idx(S.AddrSrc)] & StUnanchored))
            emit(SpecDiagKind::UnanchoredCheck, SpecDiagSeverity::Error, BB,
                 &S,
                 formatString(
                     "chk.a checks chain pointer t%u, but no advanced "
                     "load allocates its entry on every path",
                     S.AddrSrc));
        }
        switch (S.Flag) {
        case SpecFlag::LdC:
          M = StCleared;
          break;
        case SpecFlag::LdCnc:
        case SpecFlag::ChkAnc:
          M = StArmed;
          break;
        case SpecFlag::ChkA:
          // Hit path clears the entry; miss path re-arms via recovery.
          M = StArmed | StCleared;
          break;
        default:
          break;
        }
        // chk.a recovery re-executes the pointer load, re-arming the
        // chain entry and refreshing the saved pointer register.
        if (isChkFamily(S.Flag) && tracked(S.AddrSrc))
          St[idx(S.AddrSrc)] = StArmed;
      } else if (isAdvancedFlag(S.Flag)) {
        St[idx(S.Dst)] = StArmed;
        if (S.Ref.isIndirect() && tracked(S.AddrDst))
          St[idx(S.AddrDst)] = StArmed; // Chain entry allocated alongside.
      } else {
        if (tracked(S.Dst))
          plainDef(St[idx(S.Dst)], S);
        if (tracked(S.AddrDst))
          plainDef(St[idx(S.AddrDst)], S);
      }
      break;
    case StmtKind::Store:
      if (S.StA && tracked(S.AlatDst))
        St[idx(S.AlatDst)] = StPendingCopy;
      if (tracked(S.AddrDst))
        plainDef(St[idx(S.AddrDst)], S);
      break;
    case StmtKind::Invala:
      if (tracked(S.Dst))
        St[idx(S.Dst)] = StCleared;
      break;
    default:
      if (S.definesTemp() && tracked(S.Dst))
        plainDef(St[idx(S.Dst)], S);
      break;
    }
  }

  //===--------------------------------------------------------------===//
  // E3 (dataflow half): saved addresses defined on all paths
  //===--------------------------------------------------------------===//

  void transferDefined(const Stmt &S, State &Def,
                       bool Report, const BasicBlock *BB) {
    if (S.isLoad() && isCheckFlag(S.Flag) && tracked(S.AddrSrc) &&
        !Def[idx(S.AddrSrc)] && Report)
      emit(SpecDiagKind::MalformedRecovery, SpecDiagSeverity::Error, BB, &S,
           formatString("saved check address t%u may be undefined on a "
                        "path reaching this check",
                        S.AddrSrc));
    if (S.definesTemp() && tracked(S.Dst))
      Def[idx(S.Dst)] = 1;
    if (S.accessesMemory() && tracked(S.AddrDst))
      Def[idx(S.AddrDst)] = 1;
    // chk.a refreshes the saved pointer after checking it.
    if (S.isLoad() && isChkFamily(S.Flag) && tracked(S.AddrSrc))
      Def[idx(S.AddrSrc)] = 1;
  }

  //===--------------------------------------------------------------===//
  // E4: saved-address staleness
  //===--------------------------------------------------------------===//

  /// The memory cell the saved address was loaded from: stripping one
  /// dereference level off the promoted reference (index/offset apply
  /// after the final deref, so they do not name the pointer cell).
  static MemRef pointerSlot(const MemRef &Ref) {
    MemRef Slot;
    Slot.Base = Ref.Base;
    Slot.Depth = Ref.Depth - 1;
    Slot.ValueType = TypeKind::Int;
    return Slot;
  }

  void runAddrStaleness() {
    // Saved pointers of plain (non-chk.a) checks over indirect refs; the
    // chk.a family re-walks the chain and cannot use a stale address.
    std::vector<std::optional<MemRef>> Slot(N); // by dense index
    bool AnySlot = false;
    for (const BasicBlock *BB : RPO)
      for (size_t SI = 0, SE = BB->size(); SI != SE; ++SI) {
        const Stmt &S = *BB->stmt(SI);
        if (S.isLoad() && isCheckFlag(S.Flag) && !isChkFamily(S.Flag) &&
            S.Ref.isIndirect() && tracked(S.AddrSrc) &&
            !Slot[idx(S.AddrSrc)]) {
          Slot[idx(S.AddrSrc)] = pointerSlot(S.Ref);
          AnySlot = true;
        }
      }
    if (!AnySlot)
      return;

    const alias::AliasAnalysis &AA = *Config.AA;
    solveForward(0, 0, 0, Meet::Union, [&](const Stmt &S, State &Stale,
                                           bool Report,
                                           const BasicBlock *BB) {
      if (Report && S.isLoad() && isCheckFlag(S.Flag) &&
          !isChkFamily(S.Flag) && tracked(S.AddrSrc)) {
        const std::optional<MemRef> &Cell = Slot[idx(S.AddrSrc)];
        if (Cell && Stale[idx(S.AddrSrc)])
          emit(SpecDiagKind::StaleCheckAddress, SpecDiagSeverity::Error, BB,
               &S,
               formatString("the saved address in t%u may be stale: a "
                            "store can modify '%s' between the advanced "
                            "load and this check",
                            S.AddrSrc, memRefToString(*Cell).c_str()));
      }
      if (S.isStore()) {
        for (unsigned I = 0; I < N; ++I)
          if (Slot[I] && AA.mayAlias(S.Ref, &F, *Slot[I], &F))
            Stale[I] = 1;
      } else if (S.Kind == StmtKind::Call) {
        for (unsigned I = 0; I < N; ++I)
          if (Slot[I] && (Slot[I]->Depth > 0 ||
                          AA.isCallClobbered(Slot[I]->Base)))
            Stale[I] = 1;
      }
      // Any (re)definition of the saved pointer freshens it: the advanced
      // load's AddrDst, an explicit address materialisation, or a chk.a
      // refresh after its recovery.
      if (S.definesTemp() && tracked(S.Dst))
        Stale[idx(S.Dst)] = 0;
      if (S.accessesMemory() && tracked(S.AddrDst))
        Stale[idx(S.AddrDst)] = 0;
      if (S.isLoad() && isChkFamily(S.Flag) && tracked(S.AddrSrc))
        Stale[idx(S.AddrSrc)] = 0;
    });
  }

  //===--------------------------------------------------------------===//
  // W1: ALAT capacity pressure
  //===--------------------------------------------------------------===//

  void transferLive(const Stmt &S, State &Live) {
    switch (S.Kind) {
    case StmtKind::Load:
      if (isAdvancedFlag(S.Flag)) {
        Live[idx(S.Dst)] = 1;
        if (S.Ref.isIndirect() && tracked(S.AddrDst))
          Live[idx(S.AddrDst)] = 1;
      } else if (S.Flag == SpecFlag::LdC) {
        Live[idx(S.Dst)] = 0; // .clr drops the entry, hit or miss.
      } else if (S.Flag == SpecFlag::LdCnc) {
        Live[idx(S.Dst)] = 1; // .nc keeps on hit, re-allocates on miss.
      } else if (isChkFamily(S.Flag)) {
        // Miss-path recovery re-allocates both data and chain entries.
        Live[idx(S.Dst)] = 1;
        if (tracked(S.AddrSrc))
          Live[idx(S.AddrSrc)] = 1;
      }
      break;
    case StmtKind::Store:
      if (S.StA && tracked(S.AlatDst))
        Live[idx(S.AlatDst)] = 1;
      break;
    case StmtKind::Invala:
      if (tracked(S.Dst))
        Live[idx(S.Dst)] = 0;
      break;
    default:
      break;
    }
  }

  unsigned runCapacity() {
    unsigned Peak = 0;
    bool Warned = false;
    solveForward(0, 0, 0, Meet::Union, [&](const Stmt &S, State &Live,
                                           bool Report,
                                           const BasicBlock *BB) {
      transferLive(S, Live);
      if (!Report)
        return;
      unsigned Count = 0;
      for (unsigned I = 0; I < N; ++I)
        Count += Live[I];
      if (S.Kind == StmtKind::Call && S.Callee)
        Count += CalleePeak[S.Callee->index()];
      Peak = std::max(Peak, Count);
      if (Count > Config.AlatEntries && !Warned) {
        Warned = true;
        emit(SpecDiagKind::OverCapacity, SpecDiagSeverity::Warning, BB, &S,
             formatString(
                 "%u ALAT entries may be live here but the table holds "
                 "%u; capacity evictions make some checks miss on every "
                 "execution reaching this point",
                 Count, Config.AlatEntries));
      }
    });
    return Peak;
  }

  const Function &F;
  const SpecVerifyConfig &Config;
  const std::vector<unsigned> &CalleePeak;
  std::vector<SpecDiag> &Diags;

  std::vector<const BasicBlock *> RPO;
  std::vector<unsigned> RpoIndex; ///< Block id -> RPO position.
  std::vector<unsigned> Index;    ///< Temp id -> dense index.
  unsigned N = 0;                 ///< Number of tracked temps.
  /// OUT state of every reachable block, [RPO position * N + dense
  /// index], and the IN state solveForward is stepping.
  State Out, In;
};

/// Verifies functions bottom-up over the call graph so each call site can
/// account for its callee's ALAT pressure. Recursive cycles contribute a
/// zero peak (their pressure is unbounded statically; the dynamic observer
/// still catches the evictions).
class ModuleChecker {
public:
  ModuleChecker(const Module &M, const SpecVerifyConfig &Config)
      : M(M), Config(Config), Peaks(M.numFunctions(), 0),
        Visited(M.numFunctions(), 0) {}

  std::vector<SpecDiag> run() {
    for (unsigned I = 0; I < M.numFunctions(); ++I)
      visit(M.function(I));
    return std::move(Diags);
  }

private:
  void visit(const Function *F) {
    if (Visited[F->index()])
      return;
    Visited[F->index()] = 1;
    for (unsigned BI = 0; BI < F->numBlocks(); ++BI) {
      const BasicBlock *BB = F->block(BI);
      for (size_t SI = 0, SE = BB->size(); SI != SE; ++SI) {
        const Stmt &S = *BB->stmt(SI);
        if (S.Kind == StmtKind::Call && S.Callee)
          visit(S.Callee);
      }
    }
    FunctionChecker FC(*F, Config, Peaks, Diags);
    Peaks[F->index()] = FC.run();
  }

  const Module &M;
  const SpecVerifyConfig &Config;
  std::vector<SpecDiag> Diags;
  std::vector<unsigned> Peaks;  ///< By Function::index().
  std::vector<char> Visited;    ///< By Function::index(); set on entry.
};

} // namespace

namespace srp::analysis {

const char *specDiagKindName(SpecDiagKind Kind) {
  switch (Kind) {
  case SpecDiagKind::UnanchoredCheck:
    return "unanchored-check";
  case SpecDiagKind::ClobberedRegister:
    return "clobbered-register";
  case SpecDiagKind::MalformedRecovery:
    return "malformed-recovery";
  case SpecDiagKind::StaleCheckAddress:
    return "stale-check-address";
  case SpecDiagKind::OverCapacity:
    return "over-capacity";
  }
  return "unknown";
}

std::vector<SpecDiag> verifySpeculation(const Module &M,
                                        const SpecVerifyConfig &Config) {
  return ModuleChecker(M, Config).run();
}

bool hasSpecErrors(const std::vector<SpecDiag> &Diags) {
  for (const SpecDiag &D : Diags)
    if (D.Severity == SpecDiagSeverity::Error)
      return true;
  return false;
}

std::string formatSpecDiag(const SpecDiag &D, std::string_view File) {
  std::string Out;
  if (!File.empty()) {
    Out += File;
    Out += ':';
    if (D.Line)
      Out += std::to_string(D.Line) + ":";
    Out += ' ';
  }
  Out += D.Severity == SpecDiagSeverity::Error ? "error: " : "warning: ";
  Out += D.Message;
  Out += " [";
  Out += specDiagKindName(D.Kind);
  Out += ']';
  Out += "\n  in " + D.FunctionName;
  if (!D.BlockName.empty())
    Out += ", block '" + D.BlockName + "'";
  if (!D.StmtText.empty())
    Out += ": " + D.StmtText;
  return Out;
}

} // namespace srp::analysis
