//===- ExperimentTest.cpp - Parallel experiment driver tests -------------------===//
//
// The determinism contract of core::runExperiments: a pipeline run is a
// pure function of (workload, config), so the results coming back must
// be byte-identical for any thread count. The paper grid's summed
// counters are pinned to their recorded values.
//
//===----------------------------------------------------------------------===//

#include "core/Experiment.h"

#include "ir/IRBuilder.h"
#include "support/StringUtils.h"
#include "workloads/LoopHelper.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace srp;
using namespace srp::core;
using namespace srp::ir;

namespace {

/// A Figure 1(a)-in-a-loop kernel: the invariant load of `a` crosses a
/// may-aliasing store every iteration, so the ALAT strategy speculates
/// while the baseline falls back to software checking — both paths of the
/// pipeline get exercised.
Workload specKernel() {
  Workload W;
  W.Name = "speckernel";
  W.TrainScale = 1;
  W.RefScale = 2;
  W.Build = [](Module &M, uint64_t Scale) {
    const int64_t N = static_cast<int64_t>(200 * Scale);
    Symbol *A = M.createGlobal("a", TypeKind::Int);
    Symbol *B2 = M.createGlobal("b", TypeKind::Int);
    Symbol *P = M.createGlobal("p", TypeKind::Int);
    Symbol *Zero = M.createGlobal("always_zero", TypeKind::Int);
    Symbol *I = M.createGlobal("i", TypeKind::Int);
    Symbol *Acc = M.createGlobal("acc", TypeKind::Int);
    IRBuilder B(M);
    B.startFunction("main");
    B.emitStore(directRef(A), Operand::constInt(7));
    // p may point at a (decoy path) but really points at b.
    {
      BasicBlock *Decoy = B.createBlock("decoy");
      BasicBlock *Join = B.createBlock("seeded");
      unsigned TZ = B.emitLoad(directRef(Zero));
      B.setCondBr(Operand::temp(TZ), Decoy, Join);
      B.setBlock(Decoy);
      unsigned TA = B.emitAddrOf(A);
      B.emitStore(directRef(P), Operand::temp(TA));
      B.setBr(Join);
      B.setBlock(Join);
      unsigned TB = B.emitAddrOf(B2);
      B.emitStore(directRef(P), Operand::temp(TB));
    }
    workloads::LoopCtx L =
        workloads::beginLoop(B, I, Operand::constInt(N));
    {
      unsigned T1 = B.emitLoad(directRef(A));
      B.emitStore(indirectRef(P, TypeKind::Int), Operand::temp(L.IdxTemp));
      unsigned T2 = B.emitLoad(directRef(A));
      unsigned TS = B.emitAssign(Opcode::Add, Operand::temp(T1),
                                 Operand::temp(T2));
      unsigned TAcc = B.emitLoad(directRef(Acc));
      unsigned TNew = B.emitAssign(Opcode::Add, Operand::temp(TAcc),
                                   Operand::temp(TS));
      B.emitStore(directRef(Acc), Operand::temp(TNew));
    }
    workloads::endLoop(B, L);
    unsigned TOut = B.emitLoad(directRef(Acc));
    B.emitPrint(Operand::temp(TOut));
    B.setRet(Operand::temp(TOut));
  };
  return W;
}

/// Everything of a result that must be thread-count independent.
void expectIdentical(const PipelineResult &A, const PipelineResult &B) {
  EXPECT_EQ(A.Ok, B.Ok);
  EXPECT_EQ(A.Error, B.Error);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(0, std::memcmp(&A.Sim.Counters, &B.Sim.Counters,
                           sizeof(A.Sim.Counters)));
  EXPECT_EQ(0, std::memcmp(&A.Promotion, &B.Promotion,
                           sizeof(A.Promotion)));
  EXPECT_EQ(A.MaxStackedRegs, B.MaxStackedRegs);
  EXPECT_EQ(A.SpecDiags.size(), B.SpecDiags.size());
}

std::vector<Experiment> grid(const Workload &W) {
  std::vector<Experiment> Exps;
  for (const char *Strategy : {"conservative", "baseline", "alat"}) {
    PipelineConfig C =
        configFor(Strategy[0] == 'c'   ? pre::PromotionConfig::conservative()
                  : Strategy[0] == 'b' ? pre::PromotionConfig::baselineO3()
                                       : pre::PromotionConfig::alat());
    Exps.push_back({&W, C, std::string(W.Name) + "/" + Strategy});
  }
  return Exps;
}

TEST(ExperimentTest, ParallelCountersMatchSerialByteForByte) {
  Workload W = specKernel();
  std::vector<Experiment> Exps = grid(W);

  ExperimentOptions Serial;
  Serial.Threads = 1;
  Serial.CheckOracle = true;
  std::vector<PipelineResult> SerialR = runExperiments(Exps, Serial);

  ExperimentOptions Parallel;
  Parallel.Threads = 4;
  Parallel.CheckOracle = true;
  std::vector<PipelineResult> ParallelR = runExperiments(Exps, Parallel);

  ASSERT_EQ(SerialR.size(), Exps.size());
  ASSERT_EQ(ParallelR.size(), Exps.size());
  for (size_t I = 0; I < Exps.size(); ++I) {
    EXPECT_TRUE(SerialR[I].Ok) << Exps[I].Label << ": " << SerialR[I].Error;
    expectIdentical(SerialR[I], ParallelR[I]);
  }
  // The grid is not degenerate: the strategies really differ.
  EXPECT_LT(SerialR[2].Sim.Counters.RetiredLoads,
            SerialR[0].Sim.Counters.RetiredLoads)
      << "alat must retire fewer loads than conservative";
}

TEST(ExperimentTest, CachedProfilesMatchUncachedPipelines) {
  // runExperiments shares one ProfileCache across the grid, so up to 20
  // of the 30 pipelines take a cached train profile; at four threads the
  // configs of one workload can also miss together and race to insert.
  // Each result must match a pipeline that runs its own train run.
  std::vector<Workload> Ws = workloads::standardWorkloads();
  std::vector<Experiment> Exps;
  for (const Workload &W : Ws)
    for (Experiment &E : grid(W))
      Exps.push_back(std::move(E));
  ExperimentOptions Opts;
  Opts.Threads = 4;
  std::vector<PipelineResult> Cached = runExperiments(Exps, Opts);
  ASSERT_EQ(Cached.size(), Exps.size());
  for (size_t I = 0; I < Exps.size(); ++I) {
    SCOPED_TRACE(Exps[I].Label);
    EXPECT_TRUE(Cached[I].Ok) << Cached[I].Error;
    expectIdentical(Cached[I], runPipeline(*Exps[I].W, Exps[I].Config));
  }
}

// The 30-pipeline grid's summed counters as BENCH_pipeline.json records
// them: cycles / instructions / retired loads | promoted exprs - loads
// removed - checks. Any drift changes what the reproduction measures.
TEST(ExperimentTest, GridFingerprintIsPinned) {
  std::vector<Workload> Ws = workloads::standardWorkloads();
  std::vector<Experiment> Exps;
  for (const Workload &W : Ws)
    for (Experiment &E : grid(W))
      Exps.push_back(std::move(E));
  ASSERT_EQ(Exps.size(), 30u);
  ExperimentOptions Opts;
  Opts.Threads = 4;
  uint64_t Cycles = 0, Instructions = 0, Loads = 0;
  unsigned Exprs = 0, LoadsRemoved = 0, Checks = 0;
  // The statistics the headline fingerprint does not sum: the cache
  // hierarchy's hit/miss split, the load-stall cycles it charges, the
  // store count, and the ALAT's event counts.
  arch::PerfCounters Mem;
  arch::AlatStats Alat;
  for (const PipelineResult &R : runExperiments(Exps, Opts)) {
    EXPECT_TRUE(R.Ok) << R.Error;
    const arch::PerfCounters &C = R.Sim.Counters;
    Cycles += C.Cycles;
    Instructions += C.Instructions;
    Loads += C.RetiredLoads;
    Exprs += R.Promotion.PromotedExprs;
    LoadsRemoved += R.Promotion.loadsRemoved();
    Checks += R.Promotion.ChecksInserted + R.Promotion.CascadeChecks;
    Mem.L1Hits += C.L1Hits;
    Mem.L1Misses += C.L1Misses;
    Mem.L2Hits += C.L2Hits;
    Mem.L2Misses += C.L2Misses;
    Mem.DataAccessCycles += C.DataAccessCycles;
    Mem.RetiredStores += C.RetiredStores;
    Alat.Allocations += R.Sim.Alat.Allocations;
    Alat.Invalidations += R.Sim.Alat.Invalidations;
    Alat.FalseInvalidations += R.Sim.Alat.FalseInvalidations;
    Alat.CapacityEvictions += R.Sim.Alat.CapacityEvictions;
    Alat.CheckHits += R.Sim.Alat.CheckHits;
    Alat.CheckMisses += R.Sim.Alat.CheckMisses;
  }
  EXPECT_EQ(formatString("%llu/%llu/%llu|%u-%u-%u",
                         (unsigned long long)Cycles,
                         (unsigned long long)Instructions,
                         (unsigned long long)Loads, Exprs, LoadsRemoved,
                         Checks),
            "3701473/5465971/1277609|122-275-23");
  EXPECT_EQ(formatString("L1 %llu/%llu L2 %llu/%llu data %llu stores %llu",
                         (unsigned long long)Mem.L1Hits,
                         (unsigned long long)Mem.L1Misses,
                         (unsigned long long)Mem.L2Hits,
                         (unsigned long long)Mem.L2Misses,
                         (unsigned long long)Mem.DataAccessCycles,
                         (unsigned long long)Mem.RetiredStores),
            "L1 1139676/714 L2 137816/117 data 1810296 stores 1067229");
  EXPECT_EQ(formatString("alat alloc %llu inval %llu false %llu cap %llu "
                         "check %llu/%llu",
                         (unsigned long long)Alat.Allocations,
                         (unsigned long long)Alat.Invalidations,
                         (unsigned long long)Alat.FalseInvalidations,
                         (unsigned long long)Alat.CapacityEvictions,
                         (unsigned long long)Alat.CheckHits,
                         (unsigned long long)Alat.CheckMisses),
            "alat alloc 53538 inval 12529 false 0 cap 0 check 160005/277");
}

TEST(ExperimentTest, ResultsComeBackInInputOrder) {
  Workload W = specKernel();
  std::vector<Experiment> Exps = grid(W);
  ExperimentOptions Opts;
  Opts.Threads = 3;
  std::vector<PipelineResult> R = runExperiments(Exps, Opts);
  ASSERT_EQ(R.size(), 3u);
  // Index 0 is conservative, 2 is alat — distinguishable by ALAT checks.
  EXPECT_EQ(R[0].Sim.Counters.AlatChecks, 0u);
  EXPECT_GT(R[2].Sim.Counters.AlatChecks, 0u);
}

TEST(ExperimentTest, MoreThreadsThanExperiments) {
  Workload W = specKernel();
  std::vector<Experiment> Exps = {
      {&W, configFor(pre::PromotionConfig::alat()), "only"}};
  ExperimentOptions Opts;
  Opts.Threads = 8;
  Opts.CheckOracle = true;
  std::vector<PipelineResult> R = runExperiments(Exps, Opts);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_TRUE(R[0].Ok) << R[0].Error;
}

} // namespace
