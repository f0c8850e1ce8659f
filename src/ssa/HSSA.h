//===- HSSA.h - Alias-aware SSA with chi/mu and speculation -----*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The HSSA-style SSA form of Chow et al. (CC'96) as adopted by ORC, plus
/// the paper's speculative extension (§3.1):
///
///  * every *symbol* and every *virtual variable* (one per lexical indirect
///    reference) carries SSA versions;
///  * stores and calls carry χ operations (may-defs) on everything they may
///    alias; loads carry μ operations (may-uses) on their may-pointees;
///  * with an alias profile attached, χ/μ whose target was never observed
///    at run time are flagged *speculative* (χ_s / μ_s, Figure 5);
///  * specCanonicalVersion() exposes the paper's speculative Rename rule:
///    versions created only by speculative χs (and φs that merge nothing
///    else) collapse to the version they shadow, which is what lets the
///    promotion pass treat the occurrences as redundant.
///
/// The IR invariant that temps are single-assignment (each temp has exactly
/// one defining statement) means temps need no versions here; an index
/// temp's defining statement is simply an extra kill site for expressions
/// using it, handled by the PRE pass directly.
///
/// Storage is flat: per-statement tables are indexed by ir::Stmt::Id,
/// per-block tables by block id, per-version tables by a per-object row
/// offset. A statement or block created after the build is outside every
/// table and answers null or empty.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_SSA_HSSA_H
#define SRP_SSA_HSSA_H

#include "alias/AliasAnalysis.h"
#include "interp/Profile.h"
#include "ir/CFG.h"
#include "ssa/Dominators.h"

#include <algorithm>
#include <cassert>
#include <compare>
#include <cstdint>
#include <ranges>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace srp::ssa {

/// Index into the HSSA object table.
using ObjectId = unsigned;
inline constexpr ObjectId InvalidObject = ~0u;

/// Most levels an access path has: the base symbol plus one per
/// dereference.
inline constexpr unsigned MaxLevels = ir::MaxRefDepth + 1;

/// One value per level of an access path, base first, held inline. The
/// verifier caps ir::MemRef::Depth at ir::MaxRefDepth, so MaxLevels slots
/// always suffice. Compares like a std::vector of its elements.
template <typename T> class LevelArray {
public:
  size_t size() const { return N; }
  bool empty() const { return N == 0; }
  T &operator[](size_t I) { return Vals[I]; }
  const T &operator[](size_t I) const { return Vals[I]; }
  T &back() { return Vals[N - 1]; }
  const T &back() const { return Vals[N - 1]; }
  T *begin() { return Vals; }
  T *end() { return Vals + N; }
  const T *begin() const { return Vals; }
  const T *end() const { return Vals + N; }

  void push_back(T V) {
    assert(N < MaxLevels && "access path deeper than ir::MaxRefDepth");
    Vals[N++] = V;
  }

  friend bool operator==(const LevelArray &A, const LevelArray &B) {
    return std::equal(A.begin(), A.end(), B.begin(), B.end());
  }
  friend bool operator<(const LevelArray &A, const LevelArray &B) {
    return std::lexicographical_compare(A.begin(), A.end(), B.begin(),
                                        B.end());
  }

private:
  T Vals[MaxLevels] = {};
  uint8_t N = 0;
};

/// One versioned entity: a symbol's memory content, or a virtual variable
/// standing for the locations a lexical indirect reference can touch.
struct SSAObject {
  enum class Kind : uint8_t { Symbol, Virtual };

  Kind K = Kind::Symbol;
  const ir::Symbol *Sym = nullptr; ///< Symbol kind: the symbol itself.
  ir::MemRef Ref;                  ///< Virtual kind: canonical lexical ref.

  bool isVirtual() const { return K == Kind::Virtual; }

  /// "a" for symbols, "v(*p)" style for virtual variables.
  std::string name() const;
};

/// The versioned entities of one function and the level objects of each
/// of its loads and stores. Objects are numbered in discovery order: per
/// memory statement in block order, the base symbol, the virtual variable
/// of each dereference level, then every may-pointee of those levels.
///
/// HSSA builds on this table. An analysis that only asks which objects an
/// access touches (analysis::TaintFlow) builds it alone and skips χ/μ
/// planning, φ placement and renaming.
class ObjectTable {
public:
  ObjectTable(const ir::Function &F, const alias::AliasAnalysis &AA);

  ObjectTable(const ObjectTable &) = delete;
  ObjectTable &operator=(const ObjectTable &) = delete;

  unsigned numObjects() const {
    return static_cast<unsigned>(Objects.size());
  }
  const SSAObject &object(ObjectId Id) const { return Objects[Id]; }

  /// Object of a symbol's content; InvalidObject if the function never
  /// references it.
  ObjectId symbolObject(const ir::Symbol *Sym) const {
    return Sym->Id < SymbolObjects.size() ? SymbolObjects[Sym->Id]
                                          : InvalidObject;
  }

  /// All level objects of \p Ref, base first (InvalidObject where the
  /// function has no such object).
  LevelArray<ObjectId> refObjects(const ir::MemRef &Ref) const;

  /// Level objects of load or store \p S, base first; the last entry is
  /// the data object. Null for other statements and for statements
  /// created after the table was built.
  const LevelArray<ObjectId> *levelsOf(const ir::Stmt *S) const {
    if (S->Id >= Levels.size() || Levels[S->Id].empty())
      return nullptr;
    return &Levels[S->Id];
  }

  /// Key of a virtual variable: the level-\p Level prefix of a ref.
  struct VKey {
    unsigned BaseId;
    unsigned Depth;
    int IndexKind; ///< 0 none, 1 temp, 2 const
    uint64_t IndexVal;
    int64_t Offset;
    auto operator<=>(const VKey &O) const = default;
  };
  static VKey vkeyFor(const ir::MemRef &Ref, unsigned Level);

  /// Every virtual variable with its key, in key order (the order χ
  /// planning walks them in).
  const std::vector<std::pair<VKey, ObjectId>> &virtuals() const {
    return Virtuals;
  }

private:
  ObjectId addSymbol(const ir::Symbol *Sym);
  ObjectId addVirtual(const ir::MemRef &Ref, unsigned Level);
  ObjectId findVirtual(const VKey &Key) const;
  /// First entry of Virtuals whose key is not below \p Key.
  std::vector<std::pair<VKey, ObjectId>>::const_iterator
  virtualSlot(const VKey &Key) const;

  std::vector<SSAObject> Objects;
  std::vector<ObjectId> SymbolObjects;             ///< by Symbol::Id
  std::vector<std::pair<VKey, ObjectId>> Virtuals; ///< sorted by key
  std::vector<LevelArray<ObjectId>> Levels;        ///< by Stmt::Id
};

/// A may-def: the statement may overwrite Obj; DefVer shadows UseVer.
struct ChiRecord {
  ObjectId Obj = InvalidObject;
  unsigned DefVer = 0;
  unsigned UseVer = 0;
  bool Spec = false;           ///< χ_s: profile says this def never happens.
  const ir::Stmt *S = nullptr;
  ir::BasicBlock *BB = nullptr;
};

/// A may-use: the load may read Obj at version Ver.
struct MuRecord {
  ObjectId Obj = InvalidObject;
  unsigned Ver = 0;
  bool Spec = false;           ///< μ_s: profile says this use never happens.
  const ir::Stmt *S = nullptr;
};

/// A variable φ at a block head. Args are parallel to BB->preds() and
/// point into the owning HSSA's storage.
struct PhiRecord {
  ObjectId Obj = InvalidObject;
  unsigned DefVer = 0;
  std::span<const unsigned> Args;
  ir::BasicBlock *BB = nullptr;
};

/// Provenance of one version of one object.
struct VersionOrigin {
  enum class Kind : uint8_t { LiveIn, RealDef, Chi, Phi };
  Kind K = Kind::LiveIn;
  const ir::Stmt *DefStmt = nullptr; ///< RealDef and Chi.
  ir::BasicBlock *BB = nullptr;
  unsigned ChiIndex = ~0u;           ///< Into chis().
  unsigned PhiIndex = ~0u;           ///< Into phisOf(BB).
};

/// Versions a load/store sees along its access path.
///
/// LevelObjs/LevelVers have Depth+1 entries: index 0 is the base symbol's
/// content (the address chain's root), index i (1..Depth) is the virtual
/// variable of the i-th dereference; for direct references there is just
/// the one entry (the symbol). The last entry is the *data object*.
struct StmtAccess {
  LevelArray<ObjectId> LevelObjs;
  LevelArray<unsigned> LevelVers;
  unsigned DefVer = 0; ///< Stores: the new version of the data object.

  ObjectId dataObj() const { return LevelObjs.back(); }
  unsigned dataVer() const { return LevelVers.back(); }
};

/// One value per version of every object of an HSSA form, stored flat;
/// Table[Obj][Ver]. Only valid while the HSSA that made it lives.
class VersionTable {
public:
  const unsigned *operator[](ObjectId Obj) const {
    return Vals.data() + RowBegin[Obj];
  }
  unsigned *operator[](ObjectId Obj) { return Vals.data() + RowBegin[Obj]; }

private:
  friend class HSSA;

  const unsigned *RowBegin = nullptr; ///< the HSSA's per-object offsets
  std::vector<unsigned> Vals;
};

/// The computed SSA form for one function. Immutable once built; passes
/// that transform the IR must rebuild it.
class HSSA {
public:
  /// Builds the form. \p Profile may be null: every χ/μ is then real and
  /// specCanonicalVersion degenerates to the identity (no speculation).
  HSSA(ir::Function &F, const DominatorTree &DT,
       const alias::AliasAnalysis &AA,
       const interp::AliasProfile *Profile);

  HSSA(const HSSA &) = delete;
  HSSA &operator=(const HSSA &) = delete;

  ir::Function &function() const { return F; }

  //===--------------------------------------------------------------===//
  // Object table
  //===--------------------------------------------------------------===//

  unsigned numObjects() const { return Objs.numObjects(); }
  const SSAObject &object(ObjectId Id) const { return Objs.object(Id); }
  ObjectId symbolObject(const ir::Symbol *Sym) const {
    return Objs.symbolObject(Sym);
  }
  LevelArray<ObjectId> refObjects(const ir::MemRef &Ref) const {
    return Objs.refObjects(Ref);
  }

  //===--------------------------------------------------------------===//
  // Per-statement and per-block annotations
  //===--------------------------------------------------------------===//

  /// Access-path versions at a Load or Store in a reachable block; null
  /// for other statements.
  const StmtAccess *accessInfo(const ir::Stmt *S) const {
    if (S->Id >= Stmts.size() || Stmts[S->Id].Access.LevelObjs.empty())
      return nullptr;
    return &Stmts[S->Id].Access;
  }

  /// Indices (into chis()) of the χ operations attached to \p S (stores
  /// and calls).
  std::ranges::iota_view<unsigned, unsigned>
  chiIndicesOf(const ir::Stmt *S) const {
    if (S->Id >= Stmts.size())
      return {0u, 0u};
    return {Stmts[S->Id].ChiBegin, Stmts[S->Id].ChiEnd};
  }

  std::span<const MuRecord> musOf(const ir::Stmt *S) const {
    if (S->Id >= Stmts.size())
      return {};
    return std::span<const MuRecord>(Mus).subspan(
        Stmts[S->Id].MuBegin, Stmts[S->Id].MuEnd - Stmts[S->Id].MuBegin);
  }

  std::span<const PhiRecord> phisOf(const ir::BasicBlock *BB) const {
    if (BB->getId() + 1 >= BlockPhiBegin.size())
      return {};
    unsigned Begin = BlockPhiBegin[BB->getId()];
    return std::span<const PhiRecord>(Phis).subspan(
        Begin, BlockPhiBegin[BB->getId() + 1] - Begin);
  }

  const std::vector<ChiRecord> &chis() const { return Chis; }
  const ChiRecord &chi(unsigned Index) const { return Chis[Index]; }

  /// Version of \p Obj live after the φs of \p BB.
  unsigned versionAtEntry(const ir::BasicBlock *BB, ObjectId Obj) const {
    return EntryVer[BB->getId() * numObjects() + Obj];
  }

  /// Version of \p Obj live at the end of \p BB.
  unsigned versionAtExit(const ir::BasicBlock *BB, ObjectId Obj) const {
    return ExitVer[BB->getId() * numObjects() + Obj];
  }

  unsigned numVersions(ObjectId Obj) const {
    return VersionBegin[Obj + 1] - VersionBegin[Obj];
  }
  const VersionOrigin &origin(ObjectId Obj, unsigned Ver) const {
    return Origins[VersionBegin[Obj] + Ver];
  }

  //===--------------------------------------------------------------===//
  // Speculative renaming support (§3.3)
  //===--------------------------------------------------------------===//

  /// The version \p Ver collapses to when speculative χs are ignored and
  /// φs that merge a single speculative-canonical version are looked
  /// through. Equal canonical versions mean "speculatively redundant".
  unsigned specCanonicalVersion(ObjectId Obj, unsigned Ver) const {
    return Canonical[Obj][Ver];
  }

  /// Generalized collapse: computes a canonical-version map that looks
  /// through every χ for which \p Collapsible returns true (and φs whose
  /// arguments all collapse to one version). The promotion strategies
  /// instantiate this differently: ALAT collapses speculative χs, the
  /// software-check baseline collapses all store χs it can guard with an
  /// address compare.
  template <typename Pred>
  VersionTable canonicalMap(const Pred &Collapsible) const {
    VersionTable Map = uncollapsedMap();
    for (const ChiRecord &Chi : Chis)
      if (!Collapsible(Chi))
        Map[Chi.Obj][Chi.DefVer] = Chi.DefVer;
    solveCanonical(Map);
    return Map;
  }

  /// The speculative χ records a reuse of canonical version
  /// specCanonicalVersion(Obj, Ver) speculates across, i.e. every spec χ
  /// of Obj whose Def collapses to that canonical version. These are the
  /// stores after which the promotion pass must place check statements.
  std::vector<const ChiRecord *> speculatedChis(ObjectId Obj,
                                                unsigned CanonicalVer) const;

private:
  friend class HSSABuilder;

  /// The canonical map's starting point: live-in versions and real defs
  /// pinned to themselves, everything else unknown.
  VersionTable uncollapsedMap() const;
  /// The optimistic fixpoint behind canonicalMap.
  void solveCanonical(VersionTable &Map) const;

  /// Per-statement annotations, by Stmt::Id.
  struct StmtEntry {
    StmtAccess Access;  ///< empty unless a load/store in a reachable block
    unsigned MuBegin = 0, MuEnd = 0;   ///< into Mus
    unsigned ChiBegin = 0, ChiEnd = 0; ///< into Chis
  };

  ir::Function &F;
  ObjectTable Objs;
  std::vector<StmtEntry> Stmts;
  std::vector<MuRecord> Mus;
  std::vector<ChiRecord> Chis;
  std::vector<PhiRecord> Phis;          ///< grouped by block, then object
  std::vector<unsigned> PhiArgs;        ///< storage behind PhiRecord::Args
  std::vector<unsigned> BlockPhiBegin;  ///< by block id; one extra entry
  std::vector<unsigned> EntryVer, ExitVer; ///< [block * objects + obj]
  std::vector<unsigned> VersionBegin;   ///< row offset by object; one extra
  std::vector<VersionOrigin> Origins;   ///< [VersionBegin[obj] + ver]
  VersionTable Canonical;
};

} // namespace srp::ssa

#endif // SRP_SSA_HSSA_H
