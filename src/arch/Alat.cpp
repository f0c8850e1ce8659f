//===- Alat.cpp - Advanced Load Address Table model ---------------------------===//

#include "arch/Alat.h"

#include <cassert>

using namespace srp::arch;

Alat::Alat(const AlatConfig &Config, const FaultPlan &Faults)
    : Config(Config), Faults(Faults), FaultRng(Faults.Seed) {
  assert(Config.Ways >= 1 && Config.Entries >= Config.Ways &&
         "degenerate ALAT geometry");
  NumSets = Config.Entries / Config.Ways;
  if (NumSets == 0)
    NumSets = 1;
  Table.assign(NumSets * Config.Ways, Entry());
}

// Fault injection only ever drops entries or forces misses (see
// FaultPlan.h), so a correct recovery discipline keeps the simulated
// program's output unchanged under any schedule. The RNG is drawn from
// on every eligible event regardless of outcome, so the schedule is a
// pure function of (plan seed, event sequence) and replays exactly.

void Alat::dropRandomValidEntry(uint64_t &Counter) {
  if (NumValid == 0)
    return;
  unsigned Pick = static_cast<unsigned>(FaultRng.nextBelow(NumValid));
  for (Entry &E : Table) {
    if (!E.Valid)
      continue;
    if (Pick-- == 0) {
      E.Valid = false;
      noteDropped();
      ++Counter;
      return;
    }
  }
}

void Alat::faultSpuriousInvalidate() {
  if (Faults.SpuriousInvalidateProb > 0.0 &&
      FaultRng.nextBool(Faults.SpuriousInvalidateProb))
    dropRandomValidEntry(Stats.Faults.SpuriousInvalidations);
}

void Alat::faultsAfterAllocate() {
  faultSpuriousInvalidate();
  if (Faults.CapacityLimit == 0)
    return;
  while (NumValid > Faults.CapacityLimit)
    dropRandomValidEntry(Stats.Faults.CapacityDrops);
}

void Alat::faultsBeforeCheck(unsigned Reg) {
  faultSpuriousInvalidate();
  if (Faults.ForcedMissProb > 0.0 &&
      FaultRng.nextBool(Faults.ForcedMissProb)) {
    if (Entry *E = findEntry(Reg)) {
      E->Valid = false;
      noteDropped();
      ++Stats.Faults.ForcedMisses;
    }
  }
}

void Alat::storeNotifyScan(uint64_t Addr, uint64_t Tag) {
  // The table is mostly empty (promotion keeps a handful of live
  // entries in a 32-slot table): stop once every entry that was valid
  // at scan start has been seen.
  unsigned Unseen = NumValid;
  for (Entry &E : Table) {
    if (Unseen == 0)
      break;
    if (!E.Valid)
      continue;
    --Unseen;
    if (partialTag(E.Addr) != Tag)
      continue;
    E.Valid = false;
    noteDropped();
    ++Stats.Invalidations;
    if (E.Addr != Addr)
      ++Stats.FalseInvalidations;
  }
}

void Alat::allocateFill(unsigned Reg, uint64_t Addr) {
  unsigned Set = setOf(Reg);
  // Prefer an invalid way; otherwise evict the first way (the table has
  // no use-ordering; entries are short-lived).
  Entry *Victim = nullptr;
  for (unsigned W = 0; W < Config.Ways; ++W) {
    Entry &E = Table[Set * Config.Ways + W];
    if (!E.Valid) {
      Victim = &E;
      break;
    }
  }
  if (!Victim) {
    Victim = &Table[Set * Config.Ways];
    ++Stats.CapacityEvictions;
  }
  if (!Victim->Valid)
    ++NumValid;
  Victim->Valid = true;
  Victim->Reg = Reg;
  Victim->Addr = Addr;
  TagBloom |= uint64_t(1) << bloomBit(partialTag(Addr));
}

void Alat::invalidateRegister(unsigned Reg) {
  if (Entry *E = findEntry(Reg)) {
    E->Valid = false;
    noteDropped();
  }
}
