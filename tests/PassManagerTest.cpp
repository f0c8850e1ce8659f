//===- PassManagerTest.cpp - Pass manager tests ---------------------------===//
//
// The pass-composition contract of runPipeline: the standard pass list,
// run order and per-pass timing (pass.<name>.us in the stats registry),
// and --disable-pass semantics (graceful diagnostics when a dependency is
// missing).
//
//===----------------------------------------------------------------------===//

#include "core/Pass.h"

#include "ir/IRBuilder.h"
#include "support/Stats.h"
#include "support/StringUtils.h"
#include "workloads/LoopHelper.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace srp;
using namespace srp::core;
using namespace srp::ir;

namespace {

/// A loop-invariant load kernel — small, but enough for every pass to do
/// real work.
Workload tinyWorkload() {
  Workload W;
  W.Name = "tiny";
  W.TrainScale = 1;
  W.RefScale = 2;
  W.Build = [](Module &M, uint64_t Scale) {
    const int64_t N = static_cast<int64_t>(50 * Scale);
    Symbol *Cell = M.createGlobal("cell", TypeKind::Int);
    Symbol *I = M.createGlobal("i", TypeKind::Int);
    Symbol *Acc = M.createGlobal("acc", TypeKind::Int);
    IRBuilder B(M);
    B.startFunction("main");
    B.emitStore(directRef(Cell), Operand::constInt(5));
    workloads::LoopCtx L =
        workloads::beginLoop(B, I, Operand::constInt(N));
    {
      unsigned T = B.emitLoad(directRef(Cell));
      unsigned TAcc = B.emitLoad(directRef(Acc));
      unsigned TNew = B.emitAssign(Opcode::Add, Operand::temp(TAcc),
                                   Operand::temp(T));
      B.emitStore(directRef(Acc), Operand::temp(TNew));
    }
    workloads::endLoop(B, L);
    unsigned TOut = B.emitLoad(directRef(Acc));
    B.emitPrint(Operand::temp(TOut));
    B.setRet(Operand::temp(TOut));
  };
  return W;
}

TEST(PassManagerTest, StandardPassList) {
  std::vector<std::string> Names = standardPassNames();
  std::vector<std::string> Expected = {"build",     "profile",
                                       "promote",   "specverify",
                                       "taintflow", "lower",
                                       "regalloc",  "simulate"};
  EXPECT_EQ(Names, Expected);

  PassManager PM;
  addStandardPasses(PM);
  for (const std::string &Name : Names) {
    const Pass *P = PM.find(Name);
    ASSERT_NE(P, nullptr) << Name;
    EXPECT_FALSE(P->description().empty()) << Name;
  }
  EXPECT_EQ(PM.find("nonexistent"), nullptr);
}

/// One standard-pipeline run inside its own stats epoch.
struct TimedRun {
  PipelineResult Result;
  std::vector<std::string> Ran;     ///< after-pass callback order
  std::set<std::string> TimingKeys; ///< the epoch's pass.* keys
};

TimedRun runTimed(const Workload &W, const PipelineConfig &C) {
  TimedRun T;
  ScopedStatsCapture Capture;
  PipelineState S;
  S.W = &W;
  S.Config = C;
  PassManager PM;
  addStandardPasses(PM);
  PM.run(S, [&T](const Pass &P, PipelineState &) {
    T.Ran.emplace_back(P.name());
  });
  for (const auto &[Key, Value] : Capture.captured().snapshot())
    if (startsWith(Key, "pass."))
      T.TimingKeys.insert(Key);
  T.Result = std::move(S.Result);
  return T;
}

std::set<std::string> timingKeys(const std::vector<std::string> &Passes) {
  std::set<std::string> Keys;
  for (const std::string &Name : Passes)
    Keys.insert("pass." + Name + ".us");
  return Keys;
}

TEST(PassManagerTest, TimingsCoverEveryPassThatRan) {
  Workload W = tinyWorkload();
  TimedRun T = runTimed(W, configFor(pre::PromotionConfig::alat()));
  ASSERT_TRUE(T.Result.Ok) << T.Result.Error;
  EXPECT_EQ(T.Ran, standardPassNames());
  EXPECT_EQ(T.TimingKeys, timingKeys(standardPassNames()));
}

TEST(PassManagerTest, DisabledPassIsSkipped) {
  Workload W = tinyWorkload();
  PipelineConfig C = configFor(pre::PromotionConfig::alat());
  C.DisabledPasses = {"promote"};
  TimedRun T = runTimed(W, C);
  ASSERT_TRUE(T.Result.Ok) << T.Result.Error;
  EXPECT_EQ(T.Result.Promotion.PromotedExprs, 0u);
  std::vector<std::string> Expected = standardPassNames();
  Expected.erase(std::find(Expected.begin(), Expected.end(), "promote"));
  EXPECT_EQ(T.Ran, Expected);
  EXPECT_EQ(T.TimingKeys, timingKeys(Expected));
  // The unpromoted program still simulates correctly.
  EXPECT_EQ(T.Result.Output, oracleOutput(W));
}

TEST(PassManagerTest, DisablingADependencyFailsGracefully) {
  Workload W = tinyWorkload();
  PipelineConfig C = configFor(pre::PromotionConfig::alat());
  C.DisabledPasses = {"lower"};
  PipelineResult R = runPipeline(W, C);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("lower disabled"), std::string::npos) << R.Error;
}

TEST(PassManagerTest, DisablingSimulateLeavesNoOutput) {
  Workload W = tinyWorkload();
  PipelineConfig C = configFor(pre::PromotionConfig::alat());
  C.DisabledPasses = {"simulate"};
  PipelineResult R = runPipeline(W, C);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.Output.empty());
}

} // namespace
