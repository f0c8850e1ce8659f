//===- PropertyTest.cpp - Differential property tests ------------*- C++ -*-===//
//
// The project's headline invariant (DESIGN.md §5): for any program, every
// promotion strategy and the full compile-to-simulate pipeline produce the
// interpreter's output. Random programs sweep the space; each seed runs
// through conservative / baseline / ALAT / ALAT+cascade / ALAT+st.a, at
// the IR level (interpret the promoted module) and through the backend
// (lower, allocate, simulate).
//
//===----------------------------------------------------------------------===//

#include "fuzz/RandomProgram.h"

#include "alias/AliasAnalysis.h"
#include "arch/Simulator.h"
#include "codegen/Lowering.h"
#include "codegen/RegAlloc.h"
#include "interp/Interpreter.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "pre/Promoter.h"

#include <gtest/gtest.h>

using namespace srp;
using namespace srp::ir;
using namespace srp::interp;

namespace {

struct StrategyCase {
  const char *Name;
  pre::PromotionConfig Config;
};

std::vector<StrategyCase> strategies() {
  pre::PromotionConfig Cascade = pre::PromotionConfig::alat();
  Cascade.EnableCascade = true;
  pre::PromotionConfig StA = pre::PromotionConfig::alat();
  StA.UseStA = true;
  pre::PromotionConfig SwInt = pre::PromotionConfig::baselineO3();
  SwInt.SoftwareCheckIntExprs = true;
  SwInt.SoftwareMaxChecks = 4;
  pre::PromotionConfig AtReuse = pre::PromotionConfig::alat();
  AtReuse.ChecksAtReuse = true;
  AtReuse.EnableCascade = true;
  return {
      {"conservative", pre::PromotionConfig::conservative()},
      {"baselineO3", pre::PromotionConfig::baselineO3()},
      {"baselineO3+intfwd", SwInt},
      {"alat", pre::PromotionConfig::alat()},
      {"alat+cascade", Cascade},
      {"alat+sta", StA},
      {"alat+at-reuse", AtReuse},
  };
}

class RandomDifferential : public ::testing::TestWithParam<int> {};

TEST_P(RandomDifferential, AllStrategiesMatchOracle) {
  uint64_t Seed = static_cast<uint64_t>(GetParam()) * 7919 + 17;

  // Oracle.
  Module Ref;
  srp::fuzz::buildRandomProgram(Ref, Seed);
  {
    auto Errors = verifyModule(Ref);
    ASSERT_TRUE(Errors.empty()) << Errors[0];
  }
  for (unsigned I = 0; I < Ref.numFunctions(); ++I)
    Ref.function(I)->recomputeCFG();
  Interpreter OracleInterp(Ref);
  RunResult Oracle = OracleInterp.run(20'000'000);
  ASSERT_TRUE(Oracle.Ok) << Oracle.Error;

  for (const StrategyCase &S : strategies()) {
    SCOPED_TRACE(S.Name);
    Module M;
    srp::fuzz::buildRandomProgram(M, Seed);
    for (unsigned I = 0; I < M.numFunctions(); ++I)
      M.function(I)->recomputeCFG();

    AliasProfile AP;
    EdgeProfile EP;
    Interpreter Train(M);
    Train.setAliasProfile(&AP);
    Train.setEdgeProfile(&EP);
    ASSERT_TRUE(Train.run(20'000'000).Ok);

    alias::SteensgaardAnalysis AA(M);
    pre::promoteModule(M, AA, &AP, &EP, S.Config);
    auto Errors = verifyModule(M);
    ASSERT_TRUE(Errors.empty())
        << Errors[0] << "\n"
        << moduleToString(M);

    // IR level.
    Interpreter After(M);
    RunResult R = After.run(20'000'000);
    ASSERT_TRUE(R.Ok) << R.Error;
    ASSERT_EQ(R.Output, Oracle.Output) << moduleToString(M);

    // Backend level.
    auto MM = codegen::lowerModule(M);
    codegen::allocateRegisters(*MM);
    arch::SimResult Sim = arch::simulate(*MM, arch::SimConfig());
    ASSERT_TRUE(Sim.Ok) << Sim.Error;
    ASSERT_EQ(Sim.Output, Oracle.Output) << moduleToString(M);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDifferential,
                         ::testing::Range(0, 40));

/// Register pressure must not break correctness: the same differential
/// under a tiny register pool (forcing spills around speculation).
class RandomTinyRegs : public ::testing::TestWithParam<int> {};

TEST_P(RandomTinyRegs, SpillsPreserveSemantics) {
  uint64_t Seed = static_cast<uint64_t>(GetParam()) * 104729 + 3;

  Module Ref;
  srp::fuzz::buildRandomProgram(Ref, Seed);
  for (unsigned I = 0; I < Ref.numFunctions(); ++I)
    Ref.function(I)->recomputeCFG();
  Interpreter OracleInterp(Ref);
  RunResult Oracle = OracleInterp.run(20'000'000);
  ASSERT_TRUE(Oracle.Ok) << Oracle.Error;

  Module M;
  srp::fuzz::buildRandomProgram(M, Seed);
  for (unsigned I = 0; I < M.numFunctions(); ++I)
    M.function(I)->recomputeCFG();
  AliasProfile AP;
  Interpreter Train(M);
  Train.setAliasProfile(&AP);
  ASSERT_TRUE(Train.run(20'000'000).Ok);
  alias::SteensgaardAnalysis AA(M);
  pre::promoteModule(M, AA, &AP, nullptr, pre::PromotionConfig::alat());
  ASSERT_TRUE(verifyModule(M).empty());

  auto MM = codegen::lowerModule(M);
  codegen::RegAllocOptions RA;
  RA.IntPoolSize = 10;
  RA.FpPoolSize = 6;
  codegen::allocateRegisters(*MM, RA);
  arch::SimResult Sim = arch::simulate(*MM, arch::SimConfig());
  ASSERT_TRUE(Sim.Ok) << Sim.Error;
  EXPECT_EQ(Sim.Output, Oracle.Output);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTinyRegs, ::testing::Range(0, 15));

} // namespace
