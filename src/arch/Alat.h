//===- Alat.h - Advanced Load Address Table model ----------------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ALAT (§2.1): a small set-associative table of (register, address)
/// entries. Advanced loads allocate entries; every store compares its
/// address against all entries using a *partial* tag and invalidates
/// matches — partial tags make false collisions possible, which is a pure
/// performance effect the ablation benches measure. invala.e removes a
/// single register's entry; checks query by register.
///
/// One deliberate safety deviation from the Itanium manuals: check hits
/// additionally require the full address recorded at allocation to match
/// the checking load's address. Production IA-64 compilers guarantee this
/// by construction (a path from every ld.c leads back to a matching ld.a
/// or an invala); verifying it in hardware-model code makes register
/// reuse by the allocator architecturally safe rather than a compiler
/// proof obligation.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_ARCH_ALAT_H
#define SRP_ARCH_ALAT_H

#include "arch/FaultPlan.h"
#include "support/RNG.h"

#include <cstdint>
#include <vector>

namespace srp::arch {

/// ALAT geometry and behaviour knobs.
struct AlatConfig {
  unsigned Entries = 32;      ///< Total entries (Itanium: 32).
  unsigned Ways = 2;          ///< Set associativity (Itanium: 2).
  unsigned PartialTagBits = 20; ///< Address bits compared on stores.
};

/// Statistics the evaluation section needs.
struct AlatStats {
  uint64_t Allocations = 0;
  uint64_t Invalidations = 0;      ///< Entries removed by stores.
  uint64_t FalseInvalidations = 0; ///< ... where full addresses differed.
  uint64_t CapacityEvictions = 0;  ///< Entries displaced by allocation.
  uint64_t CheckHits = 0;
  uint64_t CheckMisses = 0;
  /// Injected-fault counters; all zero when no FaultPlan is attached.
  FaultStats Faults;
};

/// The table itself.
class Alat {
public:
  explicit Alat(const AlatConfig &Config);

  /// A table with a fault-injection schedule attached (FaultPlan.h). A
  /// disabled plan behaves bit-identically to the plain constructor.
  Alat(const AlatConfig &Config, const FaultPlan &Faults);

  /// Allocates (or refreshes) the entry for \p Reg covering \p Addr.
  /// Runs once per advanced load; the no-fault, no-trace refresh path
  /// (the common case: promoted loops re-allocate the same register
  /// every iteration) stays inline.
  void allocate(unsigned Reg, uint64_t Addr) {
    if (Faults.enabled() || Trace)
      return allocateSlow(Reg, Addr);
    ++Stats.Allocations;
    if (Entry *E = findEntry(Reg)) {
      E->Addr = Addr;
      TagBloom |= uint64_t(1) << bloomBit(partialTag(Addr));
      return;
    }
    allocateFill(Reg, Addr);
  }

  /// A store to \p Addr: invalidates every entry whose partial tag
  /// matches. Runs once per simulated store, so the empty-table and
  /// Bloom rejections stay inline and the table scan is out of line.
  void storeNotify(uint64_t Addr) {
    if (NumValid == 0)
      return;
    uint64_t Tag = partialTag(Addr);
    if (!((TagBloom >> bloomBit(Tag)) & 1))
      return; // no live entry can carry this tag
    storeNotifyScan(Addr, Tag);
  }

  /// True if \p Reg has a valid entry whose recorded address is \p Addr.
  /// \p Clear removes the entry on a hit (the .clr completer). Runs once
  /// per check load; inline except under fault injection or tracing.
  bool check(unsigned Reg, uint64_t Addr, bool Clear) {
    if (Faults.enabled() || Trace)
      return checkSlow(Reg, Addr, Clear);
    Entry *E = findEntry(Reg);
    if (!E || E->Addr != Addr) {
      ++Stats.CheckMisses;
      return false;
    }
    ++Stats.CheckHits;
    if (Clear) {
      E->Valid = false;
      noteDropped();
    }
    return true;
  }

  /// chk.a-style query: valid entry for \p Reg (address already verified
  /// at allocation; the recovery reloads everything anyway). Non-const:
  /// an attached FaultPlan may invalidate entries during the check.
  bool checkRegister(unsigned Reg) {
    if (Faults.enabled())
      return checkRegisterSlow(Reg);
    return findEntry(Reg) != nullptr;
  }

  /// invala.e: drops \p Reg's entry.
  void invalidateRegister(unsigned Reg);

  const AlatStats &stats() const { return Stats; }
  unsigned numValidEntries() const;

private:
  struct Entry {
    bool Valid = false;
    unsigned Reg = 0;
    uint64_t Addr = 0;
  };

  uint64_t partialTag(uint64_t Addr) const {
    return Addr & ((uint64_t(1) << Config.PartialTagBits) - 1);
  }

  /// Bloom bucket of a partial tag. Skips the low three bits: accesses
  /// are 8-byte aligned, so they never discriminate and would collapse
  /// the filter to eight buckets.
  static unsigned bloomBit(uint64_t Tag) {
    return static_cast<unsigned>((Tag >> 3) & 63);
  }

  /// Entries are organized in Entries/Ways sets indexed by register
  /// number, mirroring the register-indexed Itanium organization.
  unsigned setOf(unsigned Reg) const { return Reg % NumSets; }

  void storeNotifyScan(uint64_t Addr, uint64_t Tag);

  /// Fault-injection / trace variants of the inline fast paths above;
  /// behaviour is bit-identical when the plan is disabled.
  bool checkSlow(unsigned Reg, uint64_t Addr, bool Clear);
  bool checkRegisterSlow(unsigned Reg);
  void allocateSlow(unsigned Reg, uint64_t Addr);
  /// Miss half of allocate(): victim selection and fill.
  void allocateFill(unsigned Reg, uint64_t Addr);

  Entry *findEntry(unsigned Reg) {
    unsigned Set = setOf(Reg);
    Entry *const SetBase = &Table[static_cast<size_t>(Set) * Config.Ways];
    for (unsigned W = 0; W < Config.Ways; ++W)
      if (SetBase[W].Valid && SetBase[W].Reg == Reg)
        return &SetBase[W];
    return nullptr;
  }
  const Entry *findEntry(unsigned Reg) const {
    return const_cast<Alat *>(this)->findEntry(Reg);
  }

  /// Fault hooks (no-ops when Faults is disabled): \see FaultPlan.
  void faultSpuriousInvalidate();
  void faultCapacitySqueeze();
  bool faultForcesMiss();
  void dropRandomValidEntry(uint64_t &Counter);

  AlatConfig Config;
  unsigned NumSets;
  std::vector<Entry> Table; ///< NumSets * Ways.
  /// Count of valid entries, maintained at every transition: storeNotify
  /// runs per simulated store and skips the table scan when it is zero
  /// (always, for non-speculative configs).
  unsigned NumValid = 0;
  /// Bloom mask over the partial tags of entries allocated since the
  /// table was last empty (bit = tag's low six bits). storeNotify's
  /// table scan is skipped when the store's tag cannot match any entry;
  /// invalidations leave the mask conservatively stale, and it resets
  /// whenever NumValid reaches zero.
  uint64_t TagBloom = 0;
  /// Drops one valid entry's accounting (the caller clears E.Valid).
  void noteDropped() {
    if (--NumValid == 0)
      TagBloom = 0;
  }
  bool Trace = false; ///< SRP_ALAT_TRACE, latched at construction.
  AlatStats Stats;
  FaultPlan Faults;   ///< Disabled by default.
  RNG FaultRng{0};    ///< Only drawn from when Faults.enabled().
};

} // namespace srp::arch

#endif // SRP_ARCH_ALAT_H
