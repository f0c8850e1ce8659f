//===- DecodedModuleTest.cpp - decoded micro-op stream tests -----*- C++ -*-===//
//
// Pins the simulator (arch/Decoded.h, arch/DecodedSim.cpp) two ways:
//
//   * the decode is a deterministic function of the MModule (two decodes
//     of one module memcmp equal);
//   * every number a simulated run reports — Ok, error and output hashes,
//     exit value, every PerfCounters field and every AlatStats field,
//     FaultStats included — matches tests/golden/sim.golden, one line per
//     (program, SimConfig) run.
//
// The golden corpus crosses the ten standard workloads at scale 1, the
// fuzz-repros/ files and 500 random programs with {unpromoted, alat} x
// {default, fault plan, 100-instruction budget}; it adds the 30 grid
// pipelines, the ALAT-promoted workloads under the ablation benches' ALAT
// geometries and chk.a penalties, and two hand-written programs for the
// paths the rest leave cold: RSE spills and fills, and chk.a recovery.
// The golden test also asserts that each of those paths is reached.
//
//===----------------------------------------------------------------------===//

#include "GoldenFile.h"

#include "arch/Decoded.h"

#include "alias/AliasAnalysis.h"
#include "codegen/Lowering.h"
#include "codegen/RegAlloc.h"
#include "core/Pass.h"
#include "fuzz/RandomProgram.h"
#include "ir/CFG.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "pre/Promoter.h"
#include "support/Hash.h"
#include "support/StringUtils.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

using namespace srp;
using namespace srp::arch;

namespace {

// The golden line spells out every field; a new counter must join it.
static_assert(sizeof(PerfCounters) == 16 * sizeof(uint64_t));
static_assert(sizeof(AlatStats) == 9 * sizeof(uint64_t));

/// Lowers \p M to register-allocated machine code.
std::unique_ptr<codegen::MModule> lower(ir::Module &M) {
  for (unsigned I = 0; I < M.numFunctions(); ++I)
    M.function(I)->recomputeCFG();
  auto MM = codegen::lowerModule(M);
  codegen::allocateRegisters(*MM);
  return MM;
}

/// Promotes \p M when \p Promote (ALAT strategy, static heuristics — no
/// profiles) and lowers it. Promotion matters here: it is what puts
/// ld.a/ld.c and recovery blocks into the stream.
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

/// Parses and verifies one .sir text, then compile()s it.
std::unique_ptr<codegen::MModule> compileText(const std::string &Text,
                                              bool Promote) {
  ir::Module M;
  std::string Error;
  EXPECT_TRUE(ir::parseModule(Text, M, Error)) << Error;
  EXPECT_TRUE(ir::verifyModule(M).empty());
  return compile(M, Promote);
}

using NamedConfigs = std::vector<std::pair<std::string, SimConfig>>;

/// The sweep every corpus program gets: the plain run, a fault-injected
/// run (ld.c misses and chk.a recoveries fire on promoted code), and a
/// tight instruction budget (the mid-flight trap path — a fused pair
/// must not retire its second op past the budget).
NamedConfigs standardConfigs() {
  NamedConfigs Cs(3);
  Cs[0].first = "default";
  Cs[1].first = "faults=7";
  Cs[1].second.Faults = FaultPlan::fromSeed(7);
  Cs[2].first = "budget=100";
  Cs[2].second.MaxInstructions = 100;
  return Cs;
}

/// ablation_alat_size's geometries other than the default 32x2 with
/// 20-bit tags, and ablation_recovery's chk.a penalties, each with and
/// without the fault plan.
NamedConfigs ablationConfigs() {
  struct Geometry {
    unsigned Entries, Ways, TagBits;
  };
  const Geometry Geoms[] = {{16, 2, 20}, {8, 2, 20},  {4, 2, 20},
                            {32, 1, 20}, {64, 4, 20}, {32, 2, 14},
                            {32, 2, 11}, {32, 2, 8},  {32, 2, 48}};
  NamedConfigs Base;
  for (const Geometry &G : Geoms) {
    SimConfig C;
    C.Alat.Entries = G.Entries;
    C.Alat.Ways = G.Ways;
    C.Alat.PartialTagBits = G.TagBits;
    Base.emplace_back(
        formatString("alat=%ux%u/%u", G.Entries, G.Ways, G.TagBits), C);
  }
  for (unsigned Penalty : {5u, 50u, 150u}) {
    SimConfig C;
    C.ChkMissPenalty = Penalty;
    Base.emplace_back(formatString("chkpen=%u", Penalty), C);
  }
  NamedConfigs Cs;
  for (auto &[Label, C] : Base) {
    Cs.emplace_back(Label, C);
    C.Faults = FaultPlan::fromSeed(7);
    Cs.emplace_back(Label + ",faults=7", C);
  }
  return Cs;
}

/// A recursion 150 calls deep: the frames overflow the 96 stacked
/// registers, so the RSE spills on the way down and fills on the way up.
constexpr const char *DeepRecursion = R"(func down(n : int) -> int {
entry:
  t0 = ld n
  t1 = cmplt t0, 1
  condbr t1, base, rec
base:
  ret 0
rec:
  t2 = sub t0, 1
  t3 = call down(t2)
  t4 = mul t0, 3
  t5 = add t3, t4
  ret t5
}

func main() -> int {
entry:
  t0 = call down(150)
  print t0
  t1 = call down(40)
  print t1
  ret t0
}
)";

/// A cascade-checked pointer chase: *p is advanced once, and every
/// iteration chk.a tests the saved pointer. Every seventh iteration
/// re-stores p, so the check fails and the recovery reloads both loads.
constexpr const char *ChkALoop = R"(global a : int
global b : int
global p : int
global i : int
global acc : int

func main() -> int {
entry:
  st a = 11
  st b = 22
  t0 = addrof a
  st p = t0
  st i = 0
  t1 = ld<ld.a> *p addr->t2
  br loop
loop:
  t3 = ld i
  t4 = rem t3, 7
  t5 = cmpeq t4, 3
  condbr t5, flip, check
flip:
  st b = t3
  t6 = addrof b
  st p = t6
  br check
check:
  t1 = ld<chk.a.clr> *p @addr(t2)
  t7 = ld acc
  t8 = add t7, t1
  st acc = t8
  t9 = add t3, 1
  st i = t9
  t10 = cmplt t9, 60
  condbr t10, loop, exit
exit:
  t11 = ld acc
  print t11
  ret t11
}
)";

/// Simulates every (program, config) run of the golden corpus, in a
/// fixed order, and returns each result under its run name.
std::vector<std::pair<std::string, SimResult>> simulateCorpus() {
  std::vector<std::pair<std::string, SimResult>> Runs;
  auto Visit = [&Runs](const std::string &Name, const codegen::MModule &MM,
                       const NamedConfigs &Configs) {
    DecodedModule DM(MM);
    for (const auto &[Label, Config] : Configs)
      Runs.emplace_back(Name + " " + Label, simulate(DM, Config));
  };
  const NamedConfigs Standard = standardConfigs();
  const NamedConfigs Ablation = ablationConfigs();
  NamedConfigs StandardAndAblation = Standard;
  StandardAndAblation.insert(StandardAndAblation.end(), Ablation.begin(),
                             Ablation.end());

  std::vector<core::Workload> Ws = workloads::standardWorkloads();
  for (const core::Workload &W : Ws)
    for (bool Promote : {false, true}) {
      ir::Module M;
      W.Build(M, 1);
      Visit("workload:" + W.Name + (Promote ? " alat" : " unpromoted"),
            *compile(M, Promote), Promote ? StandardAndAblation : Standard);
    }

  namespace fs = std::filesystem;
  std::vector<fs::path> Repros;
  for (const fs::directory_entry &E :
       fs::directory_iterator(fs::path(SRP_SOURCE_DIR) / "fuzz-repros"))
    if (E.path().extension() == ".sir")
      Repros.push_back(E.path());
  std::sort(Repros.begin(), Repros.end());
  for (const fs::path &P : Repros)
    for (bool Promote : {false, true})
      Visit("repro:" + P.filename().string() +
                (Promote ? " alat" : " unpromoted"),
            *compileText(test::readFile(P), Promote), Standard);

  // Promotion runs on every fourth seed (it triples compile time); the
  // unpromoted majority still covers the whole scalar/branch/call/memory
  // op surface.
  const NamedConfigs Default(Standard.begin(), Standard.begin() + 1);
  for (uint64_t Seed = 1; Seed <= 500; ++Seed) {
    ir::Module M;
    fuzz::buildRandomProgram(M, Seed);
    bool Promote = Seed % 4 == 0;
    Visit(formatString("random:%llu %s", (unsigned long long)Seed,
                       Promote ? "alat" : "unpromoted"),
          *compile(M, Promote), Promote ? Standard : Default);
  }

  // The paper grid: each workload at its default scales under the three
  // strategies, compiled by the full pipeline; the ref run's config.
  for (const core::Workload &W : Ws)
    for (const char *Strategy : {"conservative", "baseline", "alat"}) {
      core::PipelineState S;
      S.W = &W;
      S.Config = core::configFor(
          Strategy[0] == 'c'   ? pre::PromotionConfig::conservative()
          : Strategy[0] == 'b' ? pre::PromotionConfig::baselineO3()
                               : pre::PromotionConfig::alat());
      core::PassManager PM;
      core::addStandardPasses(PM);
      EXPECT_TRUE(PM.run(S)) << S.Result.Error;
      Visit("grid:" + W.Name + "/" + Strategy, *S.MM,
            {{"ref", S.Config.Sim}});
    }

  Visit("hand:deep-recursion", *compileText(DeepRecursion, false), Standard);
  Visit("hand:chk.a-loop", *compileText(ChkALoop, false),
        StandardAndAblation);
  return Runs;
}

/// One golden line: everything \p R reports.
std::string goldenLine(const std::string &Name, const SimResult &R) {
  uint64_t Out = Fnv1a64Offset;
  for (const std::string &L : R.Output)
    Out = fnv1a64(L + "\n", Out);
  const PerfCounters &C = R.Counters;
  const AlatStats &A = R.Alat;
  auto U = [](uint64_t V) { return (unsigned long long)V; };
  return formatString(
      "%s ok=%d err=%016llx out=%016llx exit=%lld "
      "perf=%llu/%llu/%llu/%llu/%llu/%llu/%llu/%llu/%llu/%llu/%llu/%llu/"
      "%llu/%llu/%llu/%llu alat=%llu/%llu/%llu/%llu/%llu/%llu/%llu/%llu/%llu",
      Name.c_str(), int(R.Ok), U(fnv1a64(R.Error)), U(Out),
      (long long)R.ExitValue, U(C.Cycles), U(C.Instructions),
      U(C.RetiredLoads), U(C.RetiredStores), U(C.DataAccessCycles),
      U(C.AlatChecks), U(C.AlatCheckFailures), U(C.ChkARecoveries),
      U(C.RseCycles), U(C.RseSpills), U(C.RseFills), U(C.TakenBranches),
      U(C.L1Hits), U(C.L1Misses), U(C.L2Hits), U(C.L2Misses),
      U(A.Allocations), U(A.Invalidations), U(A.FalseInvalidations),
      U(A.CapacityEvictions), U(A.CheckHits), U(A.CheckMisses),
      U(A.Faults.ForcedMisses), U(A.Faults.SpuriousInvalidations),
      U(A.Faults.CapacityDrops));
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

/// Every run of the corpus reports exactly the numbers sim.golden
/// records, and the corpus reaches every path whose cost the paper's
/// figures count.
TEST(DecodedModule, SimulatedRunsMatchGolden) {
  std::vector<std::string> Lines;
  PerfCounters Sum;
  AlatStats AlatSum;
  unsigned BudgetTraps = 0;
  for (const auto &[Name, R] : simulateCorpus()) {
    Lines.push_back(goldenLine(Name, R));
    Sum.AlatCheckFailures += R.Counters.AlatCheckFailures;
    Sum.ChkARecoveries += R.Counters.ChkARecoveries;
    Sum.RseSpills += R.Counters.RseSpills;
    Sum.RseFills += R.Counters.RseFills;
    AlatSum.FalseInvalidations += R.Alat.FalseInvalidations;
    AlatSum.CapacityEvictions += R.Alat.CapacityEvictions;
    BudgetTraps += R.Error == "instruction budget exhausted";
  }
  EXPECT_GT(Sum.AlatCheckFailures, 0u);
  EXPECT_GT(Sum.ChkARecoveries, 0u);
  EXPECT_GT(Sum.RseSpills, 0u);
  EXPECT_GT(Sum.RseFills, 0u);
  EXPECT_GT(AlatSum.FalseInvalidations, 0u);
  EXPECT_GT(AlatSum.CapacityEvictions, 0u);
  EXPECT_GT(BudgetTraps, 0u);
  test::expectMatchesGolden(
      "sim.golden",
      "Simulated numbers per (program, config) run; see "
      "tests/DecodedModuleTest.cpp.",
      Lines);
}

} // namespace
