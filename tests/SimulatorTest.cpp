//===- SimulatorTest.cpp - Timing-model semantics tests ----------*- C++ -*-===//
//
// Unit tests for the ITA simulator's *timing* behaviour (functional
// behaviour is covered by the differential suites): check costs, load
// latencies, issue width, and the dependence-stall accounting.
//
//===----------------------------------------------------------------------===//

#include "arch/Simulator.h"

#include "codegen/MIR.h"

#include <gtest/gtest.h>

using namespace srp;
using namespace srp::codegen;
using namespace srp::arch;

namespace {

/// Builds a single-block main() from raw instructions (plus Ret).
std::unique_ptr<MModule> makeMain(std::vector<MInstr> Instrs) {
  auto MM = std::make_unique<MModule>();
  MFunction *F = MM->createFunction("main");
  unsigned B = F->createBlock("entry");
  for (MInstr &I : Instrs)
    F->block(B).Instrs.push_back(I);
  MInstr Ret;
  Ret.Op = MOp::Ret;
  F->block(B).Instrs.push_back(Ret);
  return MM;
}

MInstr movi(unsigned Rd, int64_t Imm) {
  MInstr I;
  I.Op = MOp::MovI;
  I.Rd = Rd;
  I.Imm = Imm;
  return I;
}

MInstr ld(MOp Op, unsigned Rd, unsigned Base, int64_t Imm,
          bool Fp = false) {
  MInstr I;
  I.Op = Op;
  I.Rd = Rd;
  I.Rs1 = Base;
  I.Imm = Imm;
  I.FpVal = Fp;
  return I;
}

MInstr st(unsigned Base, int64_t Imm, unsigned Val) {
  MInstr I;
  I.Op = MOp::St;
  I.Rs1 = Base;
  I.Imm = Imm;
  I.Rs3 = Val;
  return I;
}

MInstr add(unsigned Rd, unsigned Rs1, unsigned Rs2) {
  MInstr I;
  I.Op = MOp::Add;
  I.Rd = Rd;
  I.Rs1 = Rs1;
  I.Rs2 = Rs2;
  return I;
}

TEST(SimulatorTest, CheckHitIsFreeCheckMissIsALoad) {
  // Warm a value, advance-load it, then run N checking loads.
  SimConfig SC;
  auto Run = [&](bool Invalidate) {
    std::vector<MInstr> Is;
    Is.push_back(st(RegZero, 0x10000, RegZero));
    Is.push_back(ld(MOp::LdA, 40, RegZero, 0x10000));
    if (Invalidate) {
      MInstr Inv;
      Inv.Op = MOp::InvalaE;
      Inv.Rs1 = 40;
      Is.push_back(Inv);
    }
    Is.push_back(ld(MOp::LdCNc, 40, RegZero, 0x10000));
    auto MM = makeMain(Is);
    return simulate(*MM, SC);
  };
  SimResult Hit = Run(false);
  SimResult Miss = Run(true);
  ASSERT_TRUE(Hit.Ok && Miss.Ok);
  EXPECT_EQ(Hit.Counters.AlatChecks, 1u);
  EXPECT_EQ(Hit.Counters.AlatCheckFailures, 0u);
  EXPECT_EQ(Miss.Counters.AlatCheckFailures, 1u);
  // A miss retires an extra load; a hit does not.
  EXPECT_EQ(Miss.Counters.RetiredLoads, Hit.Counters.RetiredLoads + 1);
}

TEST(SimulatorTest, StoreInvalidatesMatchingEntry) {
  std::vector<MInstr> Is;
  Is.push_back(ld(MOp::LdA, 40, RegZero, 0x10000));
  Is.push_back(movi(33, 5));
  Is.push_back(st(RegZero, 0x10000, 33)); // collides
  Is.push_back(ld(MOp::LdCNc, 40, RegZero, 0x10000));
  auto MM = makeMain(Is);
  SimResult R = simulate(*MM, SimConfig());
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Counters.AlatCheckFailures, 1u);
}

TEST(SimulatorTest, StoreToOtherAddressKeepsEntry) {
  std::vector<MInstr> Is;
  Is.push_back(ld(MOp::LdA, 40, RegZero, 0x10000));
  Is.push_back(movi(33, 5));
  Is.push_back(st(RegZero, 0x20000, 33)); // different address
  Is.push_back(ld(MOp::LdCNc, 40, RegZero, 0x10000));
  auto MM = makeMain(Is);
  SimResult R = simulate(*MM, SimConfig());
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Counters.AlatCheckFailures, 0u);
}

TEST(SimulatorTest, DependentLoadStallsAccumulate) {
  // A chain of loads each feeding the next address: stalls pile up as
  // DataAccessCycles; an independent stream does not stall.
  auto Chain = [&](bool Dependent) {
    std::vector<MInstr> Is;
    // Build a pointer chain in memory: [a] = b, [b] = c, ...
    Is.push_back(movi(33, 0x10100));
    Is.push_back(st(RegZero, 0x10000, 33));
    Is.push_back(movi(34, 0x10200));
    Is.push_back(st(RegZero, 0x10100, 34));
    Is.push_back(movi(35, 0x10300));
    Is.push_back(st(RegZero, 0x10200, 35));
    if (Dependent) {
      Is.push_back(ld(MOp::Ld, 40, RegZero, 0x10000));
      Is.push_back(ld(MOp::Ld, 41, 40, 0));
      Is.push_back(ld(MOp::Ld, 42, 41, 0));
    } else {
      Is.push_back(ld(MOp::Ld, 40, RegZero, 0x10000));
      Is.push_back(ld(MOp::Ld, 41, RegZero, 0x10100));
      Is.push_back(ld(MOp::Ld, 42, RegZero, 0x10200));
    }
    auto MM = makeMain(Is);
    return simulate(*MM, SimConfig());
  };
  SimResult Dep = Chain(true);
  SimResult Indep = Chain(false);
  ASSERT_TRUE(Dep.Ok && Indep.Ok);
  EXPECT_GT(Dep.Counters.DataAccessCycles,
            Indep.Counters.DataAccessCycles);
  EXPECT_GT(Dep.Counters.Cycles, Indep.Counters.Cycles);
}

TEST(SimulatorTest, IssueWidthBoundsThroughput) {
  // 60 independent ALU ops: at timing::IssueWidth (6) per cycle they
  // need >= 10 cycles, and a machine that issues more than one op per
  // cycle needs fewer than 60.
  std::vector<MInstr> Is;
  for (unsigned K = 0; K < 60; ++K)
    Is.push_back(movi(33 + (K % 8), static_cast<int64_t>(K)));
  auto MM = makeMain(Is);
  SimResult R = simulate(*MM, SimConfig());
  ASSERT_TRUE(R.Ok);
  EXPECT_GE(R.Counters.Cycles, 60u / timing::IssueWidth);
  EXPECT_LT(R.Counters.Cycles, 60u);
}

TEST(SimulatorTest, FpLoadLatencyExceedsIntLatency) {
  auto Run = [&](bool Fp) {
    std::vector<MInstr> Is;
    // Warm the line so both runs hit the same level.
    Is.push_back(ld(MOp::Ld, 40, RegZero, 0x10000, false));
    Is.push_back(ld(MOp::Ld, 41, RegZero, 0x10000, Fp));
    Is.push_back(add(42, 41, 41)); // consumer: exposes the latency
    auto MM = makeMain(Is);
    return simulate(*MM, SimConfig());
  };
  SimResult Int = Run(false);
  SimResult Fp = Run(true);
  ASSERT_TRUE(Int.Ok && Fp.Ok);
  EXPECT_GT(Fp.Counters.Cycles, Int.Counters.Cycles)
      << "FP loads come from L2 (9cy) even when L1 has the line";
}

TEST(SimulatorTest, ChkAMissPaysRecoveryPenalty) {
  // chk.a with no entry: must branch to recovery and pay the penalty.
  auto MM = std::make_unique<MModule>();
  MFunction *F = MM->createFunction("main");
  unsigned Entry = F->createBlock("entry");
  unsigned Rec = F->createBlock("recover");
  unsigned Cont = F->createBlock("cont");
  F->block(Rec).IsRecovery = true;
  {
    MInstr Chk;
    Chk.Op = MOp::ChkA;
    Chk.Rs1 = 40;
    Chk.Recovery = Rec;
    Chk.Target = Cont;
    F->block(Entry).Instrs.push_back(Chk);
  }
  {
    MInstr Reload = ld(MOp::LdA, 40, RegZero, 0x10000);
    F->block(Rec).Instrs.push_back(Reload);
    MInstr Br;
    Br.Op = MOp::Br;
    Br.Target = Cont;
    F->block(Rec).Instrs.push_back(Br);
  }
  {
    MInstr Ret;
    Ret.Op = MOp::Ret;
    F->block(Cont).Instrs.push_back(Ret);
  }
  SimConfig SC;
  SC.ChkMissPenalty = 50;
  SimResult R = simulate(*MM, SC);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Counters.ChkARecoveries, 1u);
  EXPECT_GE(R.Counters.Cycles, 50u);
}

TEST(SimulatorTest, StAAllocatesEntry) {
  std::vector<MInstr> Is;
  {
    MInstr S;
    S.Op = MOp::StA;
    S.Rs1 = RegZero;
    S.Imm = 0x10000;
    S.Rs3 = RegZero;
    S.Rs2 = 40; // tracked register
    Is.push_back(S);
  }
  Is.push_back(ld(MOp::LdCNc, 40, RegZero, 0x10000));
  auto MM = makeMain(Is);
  SimResult R = simulate(*MM, SimConfig());
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Counters.AlatCheckFailures, 0u)
      << "the st.a entry must satisfy the check";
}

TEST(SimulatorTest, UnalignedAccessTraps) {
  std::vector<MInstr> Is;
  Is.push_back(ld(MOp::Ld, 40, RegZero, 0x10001));
  auto MM = makeMain(Is);
  SimResult R = simulate(*MM, SimConfig());
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("unaligned"), std::string::npos);
}

TEST(SimulatorTest, InstructionBudgetGuardsInfiniteLoops) {
  auto MM = std::make_unique<MModule>();
  MFunction *F = MM->createFunction("main");
  unsigned B = F->createBlock("spin");
  MInstr Br;
  Br.Op = MOp::Br;
  Br.Target = B;
  F->block(B).Instrs.push_back(Br);
  SimConfig SC;
  SC.MaxInstructions = 1000;
  SimResult R = simulate(*MM, SC);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("budget"), std::string::npos);
}

} // namespace
