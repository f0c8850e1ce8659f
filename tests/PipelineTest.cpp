//===- PipelineTest.cpp - End-to-end pipeline and workload tests -*- C++ -*-===//

#include "core/Pipeline.h"
#include "ir/IRBuilder.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace srp;
using namespace srp::core;
using namespace srp::workloads;

namespace {

PipelineConfig conservativeConfig() {
  return configFor(pre::PromotionConfig::conservative());
}
PipelineConfig baselineConfig() {
  return configFor(pre::PromotionConfig::baselineO3());
}
PipelineConfig alatConfig() {
  return configFor(pre::PromotionConfig::alat());
}

/// Every strategy must produce the oracle's output on every workload.
class WorkloadCorrectness
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

static const char *strategyName(int S) {
  switch (S) {
  case 0:
    return "conservative";
  case 1:
    return "baselineO3";
  default:
    return "alat";
  }
}

TEST_P(WorkloadCorrectness, MatchesOracle) {
  auto [WorkloadIdx, Strategy] = GetParam();
  Workload W = standardWorkloads()[static_cast<size_t>(WorkloadIdx)];
  SCOPED_TRACE(W.Name + std::string("/") + strategyName(Strategy));

  PipelineConfig Config = Strategy == 0   ? conservativeConfig()
                          : Strategy == 1 ? baselineConfig()
                                          : alatConfig();
  std::vector<std::string> Oracle = oracleOutput(W);
  ASSERT_FALSE(Oracle.empty()) << "oracle produced no output";
  PipelineResult R = runPipeline(W, Config);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, Oracle);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloadsAllStrategies, WorkloadCorrectness,
    ::testing::Combine(::testing::Range(0, 10), ::testing::Range(0, 3)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>> &Info) {
      Workload W =
          standardWorkloads()[static_cast<size_t>(std::get<0>(Info.param))];
      return W.Name + "_" + strategyName(std::get<1>(Info.param));
    });

//===----------------------------------------------------------------------===//
// The paper's qualitative claims, per workload.
//===----------------------------------------------------------------------===//

TEST(PipelineTest, AlatReducesRetiredLoadsOnEveryWorkload) {
  for (const Workload &W : standardWorkloads()) {
    SCOPED_TRACE(W.Name);
    PipelineResult Base = runPipeline(W, baselineConfig());
    PipelineResult Spec = runPipeline(W, alatConfig());
    ASSERT_TRUE(Base.Ok) << Base.Error;
    ASSERT_TRUE(Spec.Ok) << Spec.Error;
    EXPECT_LT(Spec.Sim.Counters.RetiredLoads,
              Base.Sim.Counters.RetiredLoads)
        << "speculation must remove loads the baseline cannot";
  }
}

TEST(PipelineTest, AlatReducesCyclesOnEveryWorkload) {
  for (const Workload &W : standardWorkloads()) {
    SCOPED_TRACE(W.Name);
    PipelineResult Base = runPipeline(W, baselineConfig());
    PipelineResult Spec = runPipeline(W, alatConfig());
    ASSERT_TRUE(Base.Ok && Spec.Ok);
    // Allow 0.1% noise: when every removed load was an L1 hit that
    // scheduled perfectly, checks and loads cost about the same (the
    // paper's own explanation of its small integer gains).
    EXPECT_LE(Spec.Sim.Counters.Cycles,
              Base.Sim.Counters.Cycles + Base.Sim.Counters.Cycles / 1000)
        << "speculation must not slow the workload down";
  }
}

TEST(PipelineTest, GzipHasVisibleMisSpeculation) {
  PipelineResult R = runPipeline(gzipWorkload(), alatConfig());
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_GT(R.Sim.Counters.AlatChecks, 0u);
  double Ratio = double(R.Sim.Counters.AlatCheckFailures) /
                 double(R.Sim.Counters.AlatChecks);
  EXPECT_GT(Ratio, 0.01) << "gzip is built to collide ~5% of the time";
  EXPECT_LT(Ratio, 0.15);
}

TEST(PipelineTest, QuietWorkloadsHaveTinyMisSpeculation) {
  for (const char *Name : {"ammp", "mcf", "vpr"}) {
    for (const Workload &W : standardWorkloads()) {
      if (W.Name != Name)
        continue;
      SCOPED_TRACE(Name);
      PipelineResult R = runPipeline(W, alatConfig());
      ASSERT_TRUE(R.Ok) << R.Error;
      if (R.Sim.Counters.AlatChecks == 0)
        continue;
      double Ratio = double(R.Sim.Counters.AlatCheckFailures) /
                     double(R.Sim.Counters.AlatChecks);
      EXPECT_LT(Ratio, 0.02) << "these workloads never really collide";
    }
  }
}

TEST(PipelineTest, FpWorkloadsGainMoreCyclesPerRemovedLoad) {
  // The §4 explanation: each removed FP load is worth ~9 cycles, an int
  // load ~2. Compare cycle-gain per removed load between ammp (FP) and
  // vpr (int).
  auto GainPerLoad = [](const Workload &W) {
    PipelineResult Base = runPipeline(W, baselineConfig());
    PipelineResult Spec = runPipeline(W, alatConfig());
    EXPECT_TRUE(Base.Ok && Spec.Ok);
    uint64_t LoadsSaved = Base.Sim.Counters.RetiredLoads -
                          Spec.Sim.Counters.RetiredLoads;
    uint64_t CyclesSaved =
        Base.Sim.Counters.Cycles > Spec.Sim.Counters.Cycles
            ? Base.Sim.Counters.Cycles - Spec.Sim.Counters.Cycles
            : 0;
    return LoadsSaved ? double(CyclesSaved) / double(LoadsSaved) : 0.0;
  };
  double FpGain = GainPerLoad(ammpWorkload());
  double IntGain = GainPerLoad(vprWorkload());
  EXPECT_GT(FpGain, IntGain)
      << "FP loads cost more, so removing them buys more";
}

TEST(PipelineTest, RseCyclesAreNegligible) {
  // Figure 11: RSE cycles are a vanishing fraction of total cycles even
  // after promotion grows register frames.
  for (const Workload &W : standardWorkloads()) {
    SCOPED_TRACE(W.Name);
    PipelineResult Spec = runPipeline(W, alatConfig());
    ASSERT_TRUE(Spec.Ok);
    EXPECT_LT(Spec.Sim.Counters.RseCycles,
              Spec.Sim.Counters.Cycles / 100)
        << "RSE cost must stay in the noise";
  }
}

TEST(PipelineTest, PromotionGrowsRegisterFramesModestly) {
  for (const Workload &W : standardWorkloads()) {
    SCOPED_TRACE(W.Name);
    PipelineResult Base = runPipeline(W, conservativeConfig());
    PipelineResult Spec = runPipeline(W, alatConfig());
    ASSERT_TRUE(Base.Ok && Spec.Ok);
    // Promoted temps live longer, but copy propagation can also retire
    // registers; the paper's point is just that the frame stays well
    // inside the 96-register stacked file.
    EXPECT_LE(Spec.MaxStackedRegs, 96u);
    EXPECT_EQ(Spec.RegAlloc.SpilledRegs, 0u)
        << "the large register file absorbs the added pressure";
  }
}

TEST(PipelineTest, ProfileRemapAcrossScalesIsStable) {
  // Train scale 1, ref scale 4 (the default): the pipeline must not
  // reject the workload for shape changes, and speculation must engage.
  PipelineResult R = runPipeline(ammpWorkload(), alatConfig());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(R.Promotion.loadsRemoved(), 0u);
  EXPECT_GT(R.Sim.Counters.AlatChecks, 0u);
}

/// A workload whose ref build breaks the shape contract: it adds a block,
/// or a statement to an existing block, that the train build lacks.
Workload shapeChangingWorkload(bool ExtraBlock) {
  Workload W;
  W.Name = ExtraBlock ? "extrablock" : "extrastmt";
  W.TrainScale = 1;
  W.RefScale = 2;
  W.Build = [ExtraBlock](ir::Module &M, uint64_t Scale) {
    ir::Symbol *G = M.createGlobal("g", ir::TypeKind::Int);
    ir::IRBuilder B(M);
    B.startFunction("main");
    B.emitStore(ir::directRef(G),
                ir::Operand::constInt(static_cast<int64_t>(Scale)));
    if (Scale == 2 && ExtraBlock) {
      ir::BasicBlock *Next = B.createBlock("next");
      B.setBr(Next);
      B.setBlock(Next);
    } else if (Scale == 2) {
      B.emitStore(ir::directRef(G), ir::Operand::constInt(0));
    }
    unsigned T = B.emitLoad(ir::directRef(G));
    B.emitPrint(ir::Operand::temp(T));
    B.setRet();
  };
  return W;
}

TEST(PipelineTest, RejectsRefBuildWithExtraBlock) {
  PipelineResult R = runPipeline(shapeChangingWorkload(true), alatConfig());
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "workload changes CFG shape across scales");
}

TEST(PipelineTest, RejectsRefBuildWithExtraStatement) {
  PipelineResult R = runPipeline(shapeChangingWorkload(false), alatConfig());
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "workload changes CFG shape across scales");
}

TEST(PipelineTest, DisablingAliasProfileDisablesDataSpeculation) {
  PipelineConfig C = alatConfig();
  C.UseAliasProfile = false;
  PipelineResult R = runPipeline(ammpWorkload(), C);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Promotion.ChecksInserted, 0u)
      << "no profile, no speculative chis, no ALAT checks";
}

} // namespace
