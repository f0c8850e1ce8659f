//===- Simulator.h - ITA functional + timing simulator -----------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes ITA machine code functionally while charging an in-order,
/// issue-width-limited timing model with the performance effects the
/// paper's evaluation measures:
///
///  * loads pay cache-hierarchy latency (int L1 2cy, FP from L2 9cy);
///    consumers stall until the value is ready, and stall cycles caused
///    by loads accumulate into DataAccessCycles (the "data access cycles"
///    series of Figure 8);
///  * checking loads cost an issue slot and nothing else on an ALAT hit;
///    on a miss they become real loads (retired-load counter included);
///  * chk.a costs a recovery trip (trap + branches + the recovery code)
///    on a miss;
///  * the RSE spills/fills stacked registers when call chains overflow
///    the 96-register physical stack (Figure 11's counter);
///  * print output is formatted exactly like the IR interpreter's, so a
///    simulated binary is differentially comparable against the oracle.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_ARCH_SIMULATOR_H
#define SRP_ARCH_SIMULATOR_H

#include "arch/Alat.h"
#include "arch/Caches.h"
#include "codegen/MIR.h"

#include <string>
#include <vector>

namespace srp::arch {

/// Timing and machine-configuration knobs.
struct SimConfig {
  AlatConfig Alat;
  /// Optional ALAT fault-injection schedule (FaultPlan.h); disabled by
  /// default, in which case the simulation is bit-identical to a build
  /// without the fault layer.
  FaultPlan Faults;
  MemoryConfig Memory;
  unsigned IssueWidth = 6;          ///< Two bundles of three.
  unsigned TakenBranchPenalty = 1;  ///< Pipeline bubble per taken branch.
  unsigned CallPenalty = 2;
  unsigned ChkMissPenalty = 15;     ///< Light-weight trap plus branches.
  unsigned MulLatency = 3;
  unsigned DivLatency = 12;
  unsigned FpLatency = 4;           ///< FP ALU (Itanium FMAC ~ 4-5).
  unsigned FpDivLatency = 30;
  unsigned RsePerRegCycles = 2;     ///< Mandatory RSE spill/fill cost.
  uint64_t MaxInstructions = 400'000'000;
  bool UseStA = true;               ///< st.a implemented (else it traps).
};

/// Architecture event counters (the pfmon substitute).
struct PerfCounters {
  uint64_t Cycles = 0;
  uint64_t Instructions = 0;
  uint64_t RetiredLoads = 0;   ///< ld/ld.a/ld.sa plus checking-load misses.
  uint64_t RetiredStores = 0;
  uint64_t DataAccessCycles = 0;
  uint64_t AlatChecks = 0;     ///< ld.c + chk.a executed.
  uint64_t AlatCheckFailures = 0;
  uint64_t ChkARecoveries = 0;
  uint64_t RseCycles = 0;
  uint64_t RseSpills = 0;
  uint64_t RseFills = 0;
  uint64_t TakenBranches = 0;
  uint64_t L1Hits = 0, L1Misses = 0, L2Hits = 0, L2Misses = 0;
};

/// Outcome of one simulated run.
struct SimResult {
  bool Ok = false;
  std::string Error;
  std::vector<std::string> Output;
  int64_t ExitValue = 0;
  PerfCounters Counters;
  AlatStats Alat;
};

/// Runs \p M (register-allocated) from its main function. Decodes the
/// module into an arch::DecodedModule micro-op stream (Decoded.h) and
/// runs the threaded executor; callers that re-simulate the same
/// module should decode once and call the DecodedModule overload.
SimResult simulate(const codegen::MModule &M, const SimConfig &Config);

/// The original per-instruction fetch-decode interpreter loop, kept as
/// the differential reference for the decoded executor (DecodedModuleTest,
/// bench/micro_sim). Counter-for-counter identical to simulate().
SimResult simulateLegacy(const codegen::MModule &M, const SimConfig &Config);

} // namespace srp::arch

#endif // SRP_ARCH_SIMULATOR_H
