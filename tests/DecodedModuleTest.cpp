//===- DecodedModuleTest.cpp - decoded micro-op stream tests -----*- C++ -*-===//
//
// The decoded executor (arch/Decoded.h, arch/DecodedSim.cpp) must be a
// pure performance transformation: for every program, every counter the
// legacy per-instruction loop produces must come out of the decoded
// stream byte-for-byte identical, including under fault injection and
// instruction budgets (the paths where fusion and pointer-PC dispatch
// are most at risk). These tests pin that contract over the ten standard
// workloads, the checked-in fuzz repro corpus and a wide sweep of random
// programs, and pin the decode itself as a deterministic function of the
// MModule (two decodes of one module memcmp equal).
//
//===----------------------------------------------------------------------===//

#include "arch/Decoded.h"
#include "arch/Simulator.h"

#include "alias/AliasAnalysis.h"
#include "codegen/Lowering.h"
#include "codegen/RegAlloc.h"
#include "fuzz/RandomProgram.h"
#include "ir/CFG.h"
#include "ir/Parser.h"
#include "pre/Promoter.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

using namespace srp;
using namespace srp::arch;

namespace {

/// Lowers \p M to register-allocated machine code.
std::unique_ptr<codegen::MModule> lower(ir::Module &M) {
  for (unsigned I = 0; I < M.numFunctions(); ++I)
    M.function(I)->recomputeCFG();
  auto MM = codegen::lowerModule(M);
  codegen::allocateRegisters(*MM);
  return MM;
}

/// Asserts that the decoded executor and the legacy loop produce the
/// same run, counter for counter.
void expectParity(const codegen::MModule &MM, const SimConfig &Config,
                  const char *What) {
  SCOPED_TRACE(What);
  SimResult Legacy = simulateLegacy(MM, Config);
  DecodedModule DM(MM);
  SimResult Decoded = simulate(DM, Config);

  EXPECT_EQ(Legacy.Ok, Decoded.Ok);
  EXPECT_EQ(Legacy.Error, Decoded.Error);
  EXPECT_EQ(Legacy.Output, Decoded.Output);
  EXPECT_EQ(Legacy.ExitValue, Decoded.ExitValue);

  const PerfCounters &L = Legacy.Counters, &D = Decoded.Counters;
  EXPECT_EQ(L.Cycles, D.Cycles);
  EXPECT_EQ(L.Instructions, D.Instructions);
  EXPECT_EQ(L.RetiredLoads, D.RetiredLoads);
  EXPECT_EQ(L.RetiredStores, D.RetiredStores);
  EXPECT_EQ(L.DataAccessCycles, D.DataAccessCycles);
  EXPECT_EQ(L.AlatChecks, D.AlatChecks);
  EXPECT_EQ(L.AlatCheckFailures, D.AlatCheckFailures);
  EXPECT_EQ(L.ChkARecoveries, D.ChkARecoveries);
  EXPECT_EQ(L.RseCycles, D.RseCycles);
  EXPECT_EQ(L.RseSpills, D.RseSpills);
  EXPECT_EQ(L.RseFills, D.RseFills);
  EXPECT_EQ(L.TakenBranches, D.TakenBranches);
  EXPECT_EQ(L.L1Hits, D.L1Hits);
  EXPECT_EQ(L.L1Misses, D.L1Misses);
  EXPECT_EQ(L.L2Hits, D.L2Hits);
  EXPECT_EQ(L.L2Misses, D.L2Misses);

  const AlatStats &LA = Legacy.Alat, &DA = Decoded.Alat;
  EXPECT_EQ(LA.Allocations, DA.Allocations);
  EXPECT_EQ(LA.Invalidations, DA.Invalidations);
  EXPECT_EQ(LA.FalseInvalidations, DA.FalseInvalidations);
  EXPECT_EQ(LA.CapacityEvictions, DA.CapacityEvictions);
  EXPECT_EQ(LA.CheckHits, DA.CheckHits);
  EXPECT_EQ(LA.CheckMisses, DA.CheckMisses);
}

/// The parity sweep one program gets: the plain run, a fault-injected
/// run (ld.c misses and chk.a recoveries fire on promoted code), and a
/// tight instruction budget (the mid-flight trap path — a fused pair
/// must not retire its second op past the budget).
void sweepConfigs(const codegen::MModule &MM) {
  expectParity(MM, SimConfig(), "default config");

  SimConfig Faulted;
  Faulted.Faults = FaultPlan::fromSeed(7);
  expectParity(MM, Faulted, "fault plan seed 7");

  SimConfig Budget;
  Budget.MaxInstructions = 100;
  expectParity(MM, Budget, "100-instruction budget");
}

/// Promotes \p M when \p Promote (ALAT strategy, static heuristics — no
/// profiles) and lowers it. Promotion matters here: it is what puts
/// ld.a/ld.c/chk.a and recovery blocks into the stream.
std::unique_ptr<codegen::MModule> compile(ir::Module &M, bool Promote) {
  for (unsigned I = 0; I < M.numFunctions(); ++I)
    M.function(I)->recomputeCFG();
  if (Promote) {
    alias::SteensgaardAnalysis AA(M);
    pre::promoteModule(M, AA, nullptr, nullptr,
                       pre::PromotionConfig::alat());
  }
  return lower(M);
}

/// Parses one .sir text, then compile()s it.
std::unique_ptr<codegen::MModule> compileText(const std::string &Text,
                                              bool Promote) {
  ir::Module M;
  std::string Error;
  EXPECT_TRUE(ir::parseModule(Text, M, Error)) << Error;
  return compile(M, Promote);
}

/// Decoding is a pure function of the MModule: two independent decodes
/// must produce byte-identical op streams (this is what lets repeat
/// simulations share one stream — PipelineState::Decoded, the serve
/// daemon, DiffOracle fault re-sims).
TEST(DecodedModule, ByteStableDecode) {
  ir::Module M;
  fuzz::buildRandomProgram(M, 1);
  auto MM = lower(M);

  DecodedModule A(*MM);
  DecodedModule B(*MM);
  ASSERT_EQ(A.numOps(), B.numOps());
  ASSERT_GT(A.numOps(), 0u);
  EXPECT_EQ(A.mainIndex(), B.mainIndex());
  EXPECT_EQ(std::memcmp(A.ops(), B.ops(), A.numOps() * sizeof(DecodedOp)),
            0);
}

/// The ten standard workloads (the programs behind the grid fingerprint)
/// at scale 1 run identically on both engines, unpromoted and under the
/// ALAT strategy.
TEST(DecodedModule, StandardWorkloadParity) {
  std::vector<core::Workload> Ws = workloads::standardWorkloads();
  ASSERT_EQ(Ws.size(), 10u);
  uint64_t AlatChecks = 0;
  for (const core::Workload &W : Ws)
    for (bool Promote : {false, true}) {
      SCOPED_TRACE(W.Name + (Promote ? " promoted" : " unpromoted"));
      ir::Module M;
      W.Build(M, 1);
      auto MM = compile(M, Promote);
      sweepConfigs(*MM);
      if (Promote)
        AlatChecks += simulate(*MM, SimConfig()).Counters.AlatChecks;
    }
  // Promotion put speculative loads and checks into the streams compared.
  EXPECT_GT(AlatChecks, 0u);
}

/// Every checked-in fuzzer repro — each one a minimized program that
/// once broke the promoter — runs identically on both engines, both
/// unpromoted and under the ALAT strategy.
TEST(DecodedModule, ReproCorpusParity) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::path(SRP_SOURCE_DIR) / "fuzz-repros";
  ASSERT_TRUE(fs::exists(Dir)) << Dir << " missing";
  unsigned Replayed = 0;
  for (const auto &Entry : fs::directory_iterator(Dir)) {
    if (Entry.path().extension() != ".sir")
      continue;
    std::ifstream In(Entry.path());
    ASSERT_TRUE(In) << "cannot read " << Entry.path();
    std::stringstream Buf;
    Buf << In.rdbuf();
    std::string Text = Buf.str();
    for (bool Promote : {false, true}) {
      SCOPED_TRACE(Entry.path().filename().string() +
                   (Promote ? " promoted" : " unpromoted"));
      auto MM = compileText(Text, Promote);
      sweepConfigs(*MM);
    }
    ++Replayed;
  }
  EXPECT_GT(Replayed, 0u) << "corpus is empty";
}

/// 500 random programs through the full config sweep. Promotion runs on
/// every fourth seed (it triples compile time); the unpromoted majority
/// still covers the whole scalar/branch/call/memory op surface.
TEST(DecodedModule, RandomProgramParity) {
  for (uint64_t Seed = 1; Seed <= 500; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    ir::Module M;
    fuzz::buildRandomProgram(M, Seed);
    if (Seed % 4 == 0) {
      alias::SteensgaardAnalysis AA(M);
      pre::promoteModule(M, AA, nullptr, nullptr,
                         pre::PromotionConfig::alat());
    }
    auto MM = lower(M);
    if (Seed % 4 == 0)
      sweepConfigs(*MM);
    else
      expectParity(*MM, SimConfig(), "default config");
  }
}

} // namespace
