//===- Alat.cpp - Advanced Load Address Table model ---------------------------===//

#include "arch/Alat.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

static bool traceOn() {
  // Written once under the magic-static lock, read-only afterwards.
  static bool On = getenv("SRP_ALAT_TRACE") != nullptr;
  return On;
}
// Each pipeline worker (core::runExperiments) simulates its own ALATs
// concurrently, so the debug-trace budget is per-thread.
static thread_local int TraceBudget = 400;

using namespace srp::arch;

Alat::Alat(const AlatConfig &Config) : Config(Config) {
  assert(Config.Ways >= 1 && Config.Entries >= Config.Ways &&
         "degenerate ALAT geometry");
  NumSets = Config.Entries / Config.Ways;
  if (NumSets == 0)
    NumSets = 1;
  Table.assign(NumSets * Config.Ways, Entry());
  Trace = traceOn();
}

Alat::Alat(const AlatConfig &Config, const FaultPlan &Plan) : Alat(Config) {
  Faults = Plan;
  FaultRng = RNG(Plan.Seed);
}

// Fault injection only ever drops entries or forces misses (see
// FaultPlan.h), so a correct recovery discipline keeps the simulated
// program's output unchanged under any schedule. The RNG is drawn from
// on every eligible event regardless of outcome, so the schedule is a
// pure function of (plan seed, event sequence) and replays exactly.

void Alat::dropRandomValidEntry(uint64_t &Counter) {
  unsigned Valid = numValidEntries();
  if (Valid == 0)
    return;
  unsigned Pick = static_cast<unsigned>(FaultRng.nextBelow(Valid));
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
  if (Faults.SpuriousInvalidateProb <= 0.0)
    return;
  if (FaultRng.nextBool(Faults.SpuriousInvalidateProb))
    dropRandomValidEntry(Stats.Faults.SpuriousInvalidations);
}

void Alat::faultCapacitySqueeze() {
  if (Faults.CapacityLimit == 0)
    return;
  while (numValidEntries() > Faults.CapacityLimit)
    dropRandomValidEntry(Stats.Faults.CapacityDrops);
}

bool Alat::faultForcesMiss() {
  return Faults.ForcedMissProb > 0.0 &&
         FaultRng.nextBool(Faults.ForcedMissProb);
}

void Alat::allocateSlow(unsigned Reg, uint64_t Addr) {
  ++Stats.Allocations;
  if (Trace && TraceBudget-- > 0)
    fprintf(stderr, "alloc r%u @%llx\n", Reg, (unsigned long long)Addr);
  if (Entry *E = findEntry(Reg)) {
    E->Addr = Addr;
    TagBloom |= uint64_t(1) << bloomBit(partialTag(Addr));
    if (Faults.enabled()) {
      faultSpuriousInvalidate();
      faultCapacitySqueeze();
    }
    return;
  }
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
  if (Trace && Victim->Valid && TraceBudget > 0)
    fprintf(stderr, "evict r%u for r%u\n", Victim->Reg, Reg);
  if (!Victim->Valid)
    ++NumValid;
  Victim->Valid = true;
  Victim->Reg = Reg;
  Victim->Addr = Addr;
  TagBloom |= uint64_t(1) << bloomBit(partialTag(Addr));
  if (Faults.enabled()) {
    faultSpuriousInvalidate();
    faultCapacitySqueeze();
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
    if (Trace && TraceBudget-- > 0)
      fprintf(stderr, "inval r%u @%llx by store @%llx\n", E.Reg,
              (unsigned long long)E.Addr, (unsigned long long)Addr);
    if (E.Addr != Addr)
      ++Stats.FalseInvalidations;
  }
}

void Alat::allocateFill(unsigned Reg, uint64_t Addr) {
  unsigned Set = setOf(Reg);
  // Prefer an invalid way; otherwise evict the first way (the table has
  // no use-ordering; entries are short-lived). Mirrors allocateSlow.
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

bool Alat::checkSlow(unsigned Reg, uint64_t Addr, bool Clear) {
  if (Faults.enabled()) {
    faultSpuriousInvalidate();
    if (faultForcesMiss()) {
      if (Entry *E = findEntry(Reg)) {
        E->Valid = false;
        noteDropped();
        ++Stats.Faults.ForcedMisses;
      }
    }
  }
  Entry *E = findEntry(Reg);
  if (!E || E->Addr != Addr) {
    ++Stats.CheckMisses;
    if (Trace && TraceBudget-- > 0)
      fprintf(stderr, "miss r%u @%llx (%s)\n", Reg,
              (unsigned long long)Addr, E ? "addr-mismatch" : "no-entry");
    return false;
  }
  ++Stats.CheckHits;
  if (Clear) {
    E->Valid = false;
    noteDropped();
  }
  return true;
}

bool Alat::checkRegisterSlow(unsigned Reg) {
  if (Faults.enabled()) {
    faultSpuriousInvalidate();
    if (faultForcesMiss()) {
      if (Entry *E = findEntry(Reg)) {
        E->Valid = false;
        noteDropped();
        ++Stats.Faults.ForcedMisses;
      }
    }
  }
  return findEntry(Reg) != nullptr;
}

void Alat::invalidateRegister(unsigned Reg) {
  if (Entry *E = findEntry(Reg)) {
    E->Valid = false;
    noteDropped();
  }
}

unsigned Alat::numValidEntries() const { return NumValid; }
