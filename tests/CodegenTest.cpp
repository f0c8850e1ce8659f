//===- CodegenTest.cpp - Lowering, regalloc and simulator tests --*- C++ -*-===//

#include "arch/Simulator.h"
#include "codegen/Lowering.h"
#include "codegen/RegAlloc.h"

#include "alias/AliasAnalysis.h"
#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "pre/Promoter.h"

#include <gtest/gtest.h>

#include <cstdint>

using namespace srp;
using namespace srp::ir;
using namespace srp::codegen;
using namespace srp::arch;

namespace {

interp::RunResult interpret(Module &M) {
  for (unsigned I = 0; I < M.numFunctions(); ++I)
    M.function(I)->recomputeCFG();
  interp::Interpreter I(M);
  return I.run();
}

SimResult compileAndRun(Module &M,
                        const RegAllocOptions &RA = RegAllocOptions(),
                        const SimConfig &SC = SimConfig()) {
  EXPECT_TRUE(verifyModule(M).empty());
  for (unsigned I = 0; I < M.numFunctions(); ++I)
    M.function(I)->recomputeCFG();
  auto MM = lowerModule(M);
  allocateRegisters(*MM, RA);
  return simulate(*MM, SC);
}

/// Differential harness: simulated output must equal interpreted output.
SimResult checkAgainstInterpreter(Module &M) {
  interp::RunResult Ref = interpret(M);
  EXPECT_TRUE(Ref.Ok) << Ref.Error;
  SimResult Sim = compileAndRun(M);
  EXPECT_TRUE(Sim.Ok) << Sim.Error;
  EXPECT_EQ(Sim.Output, Ref.Output);
  return Sim;
}

TEST(CodegenTest, ArithmeticProgram) {
  Module M;
  IRBuilder B(M);
  B.startFunction("main");
  unsigned T0 = B.emitAssign(Opcode::Add, Operand::constInt(40),
                             Operand::constInt(2));
  unsigned T1 = B.emitAssign(Opcode::Mul, Operand::temp(T0),
                             Operand::constInt(-3));
  unsigned T2 = B.emitAssign(Opcode::Div, Operand::temp(T1),
                             Operand::constInt(5));
  unsigned T3 = B.emitAssign(Opcode::Rem, Operand::temp(T1),
                             Operand::constInt(0)); // defined: 0
  B.emitPrint(Operand::temp(T0));
  B.emitPrint(Operand::temp(T1));
  B.emitPrint(Operand::temp(T2));
  B.emitPrint(Operand::temp(T3));
  B.setRet();
  checkAgainstInterpreter(M);
}

// INT64_MIN / -1 and INT64_MIN % -1 overflow in C++ (the host traps),
// and add/sub/mul overflow is undefined there. Both engines define them
// (ir::divI64, ir::remI64, wrapping add/sub/mul) and must agree on every
// edge pair, in register and immediate form.
TEST(CodegenTest, IntegerEdgeArithmeticIsTotal) {
  const int64_t Edges[] = {INT64_MIN, -1, 0, 1, INT64_MAX};
  const Opcode Ops[] = {Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::Div,
                        Opcode::Rem};
  Module M;
  IRBuilder B(M);
  B.startFunction("main");
  for (Opcode Op : Ops)
    for (int64_t X : Edges)
      for (int64_t Y : Edges) {
        unsigned TX = B.emitAssign(Opcode::Copy, Operand::constInt(X));
        unsigned TY = B.emitAssign(Opcode::Copy, Operand::constInt(Y));
        B.emitPrint(Operand::temp(
            B.emitAssign(Op, Operand::temp(TX), Operand::temp(TY))));
        B.emitPrint(Operand::temp(
            B.emitAssign(Op, Operand::temp(TX), Operand::constInt(Y))));
      }
  B.setRet();
  SimResult R = checkAgainstInterpreter(M);
  // Output index of (Op, X, Y) in register form.
  auto At = [&R](unsigned Op, unsigned X, unsigned Y) {
    return R.Output.at(((Op * 5 + X) * 5 + Y) * 2);
  };
  EXPECT_EQ(At(3, 0, 1), "-9223372036854775808"); // INT64_MIN / -1
  EXPECT_EQ(At(4, 0, 1), "0");                    // INT64_MIN % -1
  EXPECT_EQ(At(0, 4, 3), "-9223372036854775808"); // INT64_MAX + 1
  EXPECT_EQ(At(2, 4, 4), "1");                    // INT64_MAX * INT64_MAX
  EXPECT_EQ(At(3, 3, 2), "0");                    // 1 / 0
}

TEST(CodegenTest, FloatProgram) {
  Module M;
  IRBuilder B(M);
  B.startFunction("main");
  unsigned T0 = B.emitAssign(Opcode::FAdd, Operand::constFloat(1.5),
                             Operand::constFloat(2.25));
  unsigned T1 = B.emitAssign(Opcode::FMul, Operand::temp(T0),
                             Operand::constFloat(-2.0));
  unsigned T2 = B.emitAssign(Opcode::FpToInt, Operand::temp(T1));
  unsigned T3 = B.emitAssign(Opcode::IntToFp, Operand::temp(T2));
  B.emitPrint(Operand::temp(T0));
  B.emitPrint(Operand::temp(T1));
  B.emitPrint(Operand::temp(T2));
  B.emitPrint(Operand::temp(T3));
  B.setRet();
  checkAgainstInterpreter(M);
}

TEST(CodegenTest, GlobalsArraysAndPointers) {
  Module M;
  Symbol *Arr = M.createGlobal("arr", TypeKind::Int, 16);
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  IRBuilder B(M);
  B.startFunction("main");
  for (int I = 0; I < 16; ++I)
    B.emitStore(arrayRef(Arr, Operand::constInt(I)),
                Operand::constInt(I * 3));
  unsigned TI = B.emitAssign(Opcode::Copy, Operand::constInt(5));
  unsigned T1 = B.emitLoad(arrayRef(Arr, Operand::temp(TI)));
  unsigned TAddr = B.emitAddrOf(Arr, Operand::constInt(7));
  B.emitStore(directRef(P), Operand::temp(TAddr));
  unsigned T2 = B.emitLoad(indirectRef(P, TypeKind::Int));
  B.emitPrint(Operand::temp(T1));
  B.emitPrint(Operand::temp(T2));
  B.setRet();
  SimResult R = checkAgainstInterpreter(M);
  EXPECT_EQ(R.Output[0], "15");
  EXPECT_EQ(R.Output[1], "21");
}

TEST(CodegenTest, ControlFlowLoop) {
  Module M;
  Symbol *Sum = M.createGlobal("sum", TypeKind::Int);
  Symbol *I = M.createGlobal("i", TypeKind::Int);
  IRBuilder B(M);
  B.startFunction("main");
  BasicBlock *Hdr = B.createBlock("hdr");
  BasicBlock *Body = B.createBlock("body");
  BasicBlock *Exit = B.createBlock("exit");
  B.emitStore(directRef(I), Operand::constInt(0));
  B.setBr(Hdr);
  B.setBlock(Hdr);
  unsigned TI = B.emitLoad(directRef(I));
  unsigned TC = B.emitAssign(Opcode::CmpLt, Operand::temp(TI),
                             Operand::constInt(100));
  B.setCondBr(Operand::temp(TC), Body, Exit);
  B.setBlock(Body);
  unsigned TS = B.emitLoad(directRef(Sum));
  unsigned TN = B.emitAssign(Opcode::Add, Operand::temp(TS),
                             Operand::temp(TI));
  B.emitStore(directRef(Sum), Operand::temp(TN));
  unsigned TInc = B.emitAssign(Opcode::Add, Operand::temp(TI),
                               Operand::constInt(1));
  B.emitStore(directRef(I), Operand::temp(TInc));
  B.setBr(Hdr);
  B.setBlock(Exit);
  unsigned TOut = B.emitLoad(directRef(Sum));
  B.emitPrint(Operand::temp(TOut));
  B.setRet();
  SimResult R = checkAgainstInterpreter(M);
  EXPECT_EQ(R.Output[0], "4950");
  EXPECT_GT(R.Counters.Cycles, 0u);
  EXPECT_GT(R.Counters.RetiredLoads, 0u);
}

TEST(CodegenTest, CallsAndRecursion) {
  Module M;
  IRBuilder B(M);
  Function *Fib = B.startFunction("fib");
  Symbol *N = M.createLocal(Fib, "n", TypeKind::Int, 1, /*IsFormal=*/true);
  BasicBlock *Base = B.createBlock("base");
  BasicBlock *Rec = B.createBlock("rec");
  unsigned TN = B.emitLoad(directRef(N));
  unsigned TC = B.emitAssign(Opcode::CmpLt, Operand::temp(TN),
                             Operand::constInt(2));
  B.setCondBr(Operand::temp(TC), Base, Rec);
  B.setBlock(Base);
  unsigned TN2 = B.emitLoad(directRef(N));
  B.setRet(Operand::temp(TN2));
  B.setBlock(Rec);
  unsigned TN3 = B.emitLoad(directRef(N));
  unsigned TM1 = B.emitAssign(Opcode::Sub, Operand::temp(TN3),
                              Operand::constInt(1));
  unsigned TM2 = B.emitAssign(Opcode::Sub, Operand::temp(TN3),
                              Operand::constInt(2));
  unsigned TF1 = B.emitCall(Fib, {Operand::temp(TM1)});
  unsigned TF2 = B.emitCall(Fib, {Operand::temp(TM2)});
  unsigned TSum = B.emitAssign(Opcode::Add, Operand::temp(TF1),
                               Operand::temp(TF2));
  B.setRet(Operand::temp(TSum));

  B.startFunction("main");
  unsigned TR = B.emitCall(Fib, {Operand::constInt(12)});
  B.emitPrint(Operand::temp(TR));
  B.setRet(Operand::temp(TR));

  SimResult R = checkAgainstInterpreter(M);
  EXPECT_EQ(R.Output[0], "144");
  EXPECT_EQ(R.ExitValue, 144);
}

TEST(CodegenTest, HeapAllocation) {
  Module M;
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  IRBuilder B(M);
  B.startFunction("main");
  unsigned T = B.emitAlloc(Operand::constInt(4), "blk");
  B.emitStore(directRef(P), Operand::temp(T));
  B.emitStore(indirectRef(P, TypeKind::Int, 16), Operand::constInt(77));
  unsigned TV = B.emitLoad(indirectRef(P, TypeKind::Int, 16));
  B.emitPrint(Operand::temp(TV));
  B.setRet();
  SimResult R = checkAgainstInterpreter(M);
  EXPECT_EQ(R.Output[0], "77");
}

TEST(CodegenTest, SelectLowering) {
  Module M;
  IRBuilder B(M);
  B.startFunction("main");
  unsigned T0 = B.emitSelect(Operand::constInt(1), Operand::constInt(10),
                             Operand::constInt(20));
  unsigned T1 = B.emitSelect(Operand::constInt(0), Operand::constInt(10),
                             Operand::constInt(20));
  B.emitPrint(Operand::temp(T0));
  B.emitPrint(Operand::temp(T1));
  B.setRet();
  SimResult R = checkAgainstInterpreter(M);
  EXPECT_EQ(R.Output[0], "10");
  EXPECT_EQ(R.Output[1], "20");
}

TEST(CodegenTest, SpillsUnderTinyRegisterPool) {
  // Force spilling with a 4-register pool: many simultaneously live temps.
  Module M;
  IRBuilder B(M);
  B.startFunction("main");
  std::vector<unsigned> Temps;
  for (int I = 0; I < 12; ++I)
    Temps.push_back(
        B.emitAssign(Opcode::Add, Operand::constInt(I),
                     Operand::constInt(I * 7)));
  Operand Acc = Operand::temp(Temps[0]);
  for (int I = 1; I < 12; ++I) {
    unsigned T = B.emitAssign(Opcode::Add, Acc, Operand::temp(Temps[I]));
    Acc = Operand::temp(T);
  }
  B.emitPrint(Acc);
  B.setRet();

  interp::RunResult Ref = interpret(M);
  RegAllocOptions RA;
  RA.IntPoolSize = 4;
  SimResult Sim = compileAndRun(M, RA);
  ASSERT_TRUE(Sim.Ok) << Sim.Error;
  EXPECT_EQ(Sim.Output, Ref.Output);
}

//===----------------------------------------------------------------------===//
// Promoted code through the whole backend
//===----------------------------------------------------------------------===//

/// Full pipeline fixture: profile, promote with ALAT, lower, simulate, and
/// compare against the interpreter running the *original* module.
struct EndToEnd {
  static SimResult run(Module &M, pre::PromotionConfig Config,
                       std::vector<std::string> &RefOutput) {
    interp::RunResult Ref = interpret(M);
    EXPECT_TRUE(Ref.Ok) << Ref.Error;
    RefOutput = Ref.Output;

    interp::AliasProfile AP;
    interp::EdgeProfile EP;
    interp::Interpreter Train(M);
    Train.setAliasProfile(&AP);
    Train.setEdgeProfile(&EP);
    EXPECT_TRUE(Train.run().Ok);

    alias::SteensgaardAnalysis AA(M);
    pre::promoteModule(M, AA, &AP, &EP, Config);
    EXPECT_TRUE(verifyModule(M).empty());

    auto MM = lowerModule(M);
    allocateRegisters(*MM);
    return simulate(*MM, SimConfig());
  }
};

TEST(CodegenTest, PromotedSpeculativeCodeRunsCorrectly) {
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  Symbol *B2 = M.createGlobal("b", TypeKind::Int);
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  IRBuilder B(M);
  B.startFunction("main");
  unsigned TA = B.emitAddrOf(A);
  unsigned TB = B.emitAddrOf(B2);
  B.emitStore(directRef(P), Operand::temp(TA));
  B.emitStore(directRef(P), Operand::temp(TB)); // runtime p=&b
  B.emitStore(directRef(A), Operand::constInt(7));
  unsigned T1 = B.emitLoad(directRef(A));
  B.emitStore(indirectRef(P, TypeKind::Int), Operand::constInt(99));
  unsigned T2 = B.emitLoad(directRef(A));
  B.emitPrint(Operand::temp(T1));
  B.emitPrint(Operand::temp(T2));
  B.setRet();

  std::vector<std::string> Ref;
  SimResult Sim = EndToEnd::run(M, pre::PromotionConfig::alat(), Ref);
  ASSERT_TRUE(Sim.Ok) << Sim.Error;
  EXPECT_EQ(Sim.Output, Ref);
  EXPECT_GE(Sim.Counters.AlatChecks, 1u);
  EXPECT_EQ(Sim.Counters.AlatCheckFailures, 0u)
      << "p=&b at run time: the check must hit";
  EXPECT_GE(Sim.Alat.Allocations, 1u);
}

TEST(CodegenTest, PromotedLoopHoistRunsCorrectly) {
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  Symbol *C = M.createGlobal("c", TypeKind::Int);
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  Symbol *Q = M.createGlobal("q", TypeKind::Int);
  Symbol *I = M.createGlobal("i", TypeKind::Int);
  IRBuilder B(M);
  B.startFunction("main");
  BasicBlock *Hdr = B.createBlock("hdr");
  BasicBlock *Body = B.createBlock("body");
  BasicBlock *Exit = B.createBlock("exit");
  unsigned TA = B.emitAddrOf(A);
  unsigned TC = B.emitAddrOf(C);
  B.emitStore(directRef(P), Operand::temp(TC));
  B.emitStore(directRef(Q), Operand::temp(TA));
  B.emitStore(directRef(P), Operand::temp(TA));
  B.emitStore(directRef(Q), Operand::temp(TC));
  B.emitStore(directRef(A), Operand::constInt(500));
  B.emitStore(directRef(I), Operand::constInt(0));
  B.setBr(Hdr);
  B.setBlock(Hdr);
  unsigned TI = B.emitLoad(directRef(I));
  unsigned TCmp = B.emitAssign(Opcode::CmpLt, Operand::temp(TI),
                               Operand::constInt(40));
  B.setCondBr(Operand::temp(TCmp), Body, Exit);
  B.setBlock(Body);
  B.emitStore(indirectRef(Q, TypeKind::Int), Operand::temp(TI));
  unsigned TP = B.emitLoad(indirectRef(P, TypeKind::Int));
  unsigned TAdd = B.emitAssign(Opcode::Add, Operand::temp(TP),
                               Operand::temp(TI));
  B.emitPrint(Operand::temp(TAdd));
  unsigned TInc = B.emitAssign(Opcode::Add, Operand::temp(TI),
                               Operand::constInt(1));
  B.emitStore(directRef(I), Operand::temp(TInc));
  B.setBr(Hdr);
  B.setBlock(Exit);
  B.setRet();

  std::vector<std::string> Ref;
  SimResult Sim = EndToEnd::run(M, pre::PromotionConfig::alat(), Ref);
  ASSERT_TRUE(Sim.Ok) << Sim.Error;
  EXPECT_EQ(Sim.Output, Ref);
  // The hoisted load + per-iteration checks: all checks hit (no alias).
  EXPECT_GE(Sim.Counters.AlatChecks, 40u);
  EXPECT_EQ(Sim.Counters.AlatCheckFailures, 0u);
}

TEST(CodegenTest, MisSpeculatingCheckReloads) {
  // Train path p=&b, then run with p=&a: every check must fail and
  // reload, and output must still match the interpreter on the new input.
  Module M;
  Symbol *Mode = M.createGlobal("mode", TypeKind::Int);
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  Symbol *B2 = M.createGlobal("b", TypeKind::Int);
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  IRBuilder B(M);
  B.startFunction("main");
  BasicBlock *SetB = B.createBlock("set_b");
  BasicBlock *SetA = B.createBlock("set_a");
  BasicBlock *Body = B.createBlock("body");
  unsigned TMode = B.emitLoad(directRef(Mode));
  B.setCondBr(Operand::temp(TMode), SetA, SetB);
  B.setBlock(SetB);
  unsigned TB = B.emitAddrOf(B2);
  B.emitStore(directRef(P), Operand::temp(TB));
  B.setBr(Body);
  B.setBlock(SetA);
  unsigned TA = B.emitAddrOf(A);
  B.emitStore(directRef(P), Operand::temp(TA));
  B.setBr(Body);
  B.setBlock(Body);
  B.emitStore(directRef(A), Operand::constInt(7));
  unsigned T1 = B.emitLoad(directRef(A));
  B.emitStore(indirectRef(P, TypeKind::Int), Operand::constInt(99));
  unsigned T2 = B.emitLoad(directRef(A));
  B.emitPrint(Operand::temp(T1));
  B.emitPrint(Operand::temp(T2));
  B.setRet();

  // Train with mode = 0.
  for (unsigned I = 0; I < M.numFunctions(); ++I)
    M.function(I)->recomputeCFG();
  interp::AliasProfile AP;
  interp::Interpreter Train(M);
  Train.setAliasProfile(&AP);
  ASSERT_TRUE(Train.run().Ok);
  alias::SteensgaardAnalysis AA(M);
  pre::promoteModule(M, AA, &AP, nullptr, pre::PromotionConfig::alat());
  ASSERT_TRUE(verifyModule(M).empty());

  // Flip to the colliding input.
  Function *Main = M.findFunction("main");
  Stmt SetMode;
  SetMode.Kind = StmtKind::Store;
  SetMode.Ref = directRef(Mode);
  SetMode.A = Operand::constInt(1);
  Main->entry()->insertBefore(0, SetMode);
  Main->recomputeCFG();

  interp::RunResult Ref = interpret(M);
  ASSERT_TRUE(Ref.Ok);
  auto MM = lowerModule(M);
  allocateRegisters(*MM);
  SimResult Sim = simulate(*MM, SimConfig());
  ASSERT_TRUE(Sim.Ok) << Sim.Error;
  EXPECT_EQ(Sim.Output, Ref.Output);
  ASSERT_EQ(Sim.Output.size(), 2u);
  EXPECT_EQ(Sim.Output[1], "99");
  EXPECT_GE(Sim.Counters.AlatCheckFailures, 1u);
}

//===----------------------------------------------------------------------===//
// Timing-model sanity
//===----------------------------------------------------------------------===//

TEST(CodegenTest, FpLoadsCostMoreThanIntLoads) {
  auto Build = [](Module &M, TypeKind Ty) {
    Symbol *Arr = M.createGlobal("arr", Ty, 64);
    Symbol *I = M.createGlobal("i", TypeKind::Int);
    Symbol *SumF = M.createGlobal("sumslot", Ty);
    IRBuilder B(M);
    B.startFunction("main");
    BasicBlock *Hdr = B.createBlock("hdr");
    BasicBlock *Body = B.createBlock("body");
    BasicBlock *Exit = B.createBlock("exit");
    B.emitStore(directRef(I), Operand::constInt(0));
    B.setBr(Hdr);
    B.setBlock(Hdr);
    unsigned TI = B.emitLoad(directRef(I));
    unsigned TC = B.emitAssign(Opcode::CmpLt, Operand::temp(TI),
                               Operand::constInt(2000));
    B.setCondBr(Operand::temp(TC), Body, Exit);
    B.setBlock(Body);
    unsigned TIdx = B.emitAssign(Opcode::Rem, Operand::temp(TI),
                                 Operand::constInt(64));
    unsigned TV = B.emitLoad(arrayRef(Arr, Operand::temp(TIdx)));
    B.emitStore(directRef(SumF), Operand::temp(TV));
    unsigned TInc = B.emitAssign(Opcode::Add, Operand::temp(TI),
                                 Operand::constInt(1));
    B.emitStore(directRef(I), Operand::temp(TInc));
    B.setBr(Hdr);
    B.setBlock(Exit);
    B.setRet();
  };
  Module MInt, MFp;
  Build(MInt, TypeKind::Int);
  Build(MFp, TypeKind::Float);
  SimResult RInt = compileAndRun(MInt);
  SimResult RFp = compileAndRun(MFp);
  ASSERT_TRUE(RInt.Ok && RFp.Ok);
  // FP loads bypass L1 (9 cycles vs 2): more total cycles.
  EXPECT_GT(RFp.Counters.Cycles, RInt.Counters.Cycles);
}

TEST(CodegenTest, RseCyclesAppearOnDeepCallChains) {
  // A recursive chain deep enough to overflow 96 stacked registers.
  Module M;
  IRBuilder B(M);
  Function *Deep = B.startFunction("deep");
  Symbol *N = M.createLocal(Deep, "n", TypeKind::Int, 1, /*IsFormal=*/true);
  BasicBlock *Base = B.createBlock("base");
  BasicBlock *Rec = B.createBlock("rec");
  unsigned TN = B.emitLoad(directRef(N));
  // Keep several registers live across the call to fatten the frame.
  unsigned T1 = B.emitAssign(Opcode::Add, Operand::temp(TN),
                             Operand::constInt(1));
  unsigned T2 = B.emitAssign(Opcode::Mul, Operand::temp(TN),
                             Operand::constInt(3));
  unsigned T3 = B.emitAssign(Opcode::Xor, Operand::temp(T1),
                             Operand::temp(T2));
  unsigned TC = B.emitAssign(Opcode::CmpLt, Operand::constInt(0),
                             Operand::temp(TN));
  B.setCondBr(Operand::temp(TC), Rec, Base);
  B.setBlock(Base);
  B.setRet(Operand::temp(T3));
  B.setBlock(Rec);
  unsigned TDec = B.emitAssign(Opcode::Sub, Operand::temp(TN),
                               Operand::constInt(1));
  unsigned TR = B.emitCall(Deep, {Operand::temp(TDec)});
  unsigned TMix = B.emitAssign(Opcode::Add, Operand::temp(TR),
                               Operand::temp(T3));
  B.setRet(Operand::temp(TMix));

  B.startFunction("main");
  unsigned TOut = B.emitCall(Deep, {Operand::constInt(40)});
  B.emitPrint(Operand::temp(TOut));
  B.setRet();

  SimResult R = checkAgainstInterpreter(M);
  EXPECT_GT(R.Counters.RseCycles, 0u) << "deep chain must spill the RSE";
  EXPECT_GT(R.Counters.RseSpills, 0u);
  // Fills can lag spills: registers of the outermost frames may remain in
  // the backing store when the program exits.
  EXPECT_LE(R.Counters.RseFills, R.Counters.RseSpills);
  EXPECT_GT(R.Counters.RseFills, 0u);
}

//===----------------------------------------------------------------------===//
// ALAT unit behaviour
//===----------------------------------------------------------------------===//

TEST(AlatTest, AllocateCheckInvalidate) {
  Alat T(AlatConfig{});
  T.allocate(40, 0x1000);
  EXPECT_TRUE(T.checkRegister(40));
  EXPECT_TRUE(T.check(40, 0x1000, /*Clear=*/false));
  EXPECT_TRUE(T.check(40, 0x1000, /*Clear=*/true));
  EXPECT_FALSE(T.check(40, 0x1000, false)) << ".clr removed the entry";
}

TEST(AlatTest, StoreInvalidatesMatchingEntry) {
  Alat T(AlatConfig{});
  T.allocate(40, 0x1000);
  T.allocate(41, 0x2000);
  T.storeNotify(0x1000);
  EXPECT_FALSE(T.checkRegister(40));
  EXPECT_TRUE(T.checkRegister(41));
  EXPECT_EQ(T.stats().Invalidations, 1u);
}

TEST(AlatTest, PartialTagsCauseFalseCollisions) {
  AlatConfig C;
  C.PartialTagBits = 8; // only low 8 bits compared
  Alat T(C);
  T.allocate(40, 0x1010);
  T.storeNotify(0x2010); // different address, same low bits
  EXPECT_FALSE(T.checkRegister(40));
  EXPECT_EQ(T.stats().FalseInvalidations, 1u);
}

TEST(AlatTest, CheckRequiresAddressMatch) {
  Alat T(AlatConfig{});
  T.allocate(40, 0x1000);
  EXPECT_FALSE(T.check(40, 0x1008, false))
      << "stale entries with the wrong address must miss";
}

TEST(AlatTest, CapacityEviction) {
  AlatConfig C;
  C.Entries = 4;
  C.Ways = 2; // two sets
  Alat T(C);
  // Registers 0, 2, 4 land in set 0; the third allocation evicts.
  T.allocate(0, 0x100);
  T.allocate(2, 0x200);
  T.allocate(4, 0x300);
  EXPECT_EQ(T.stats().CapacityEvictions, 1u);
  unsigned Valid = T.numValidEntries();
  EXPECT_EQ(Valid, 2u);
}

TEST(AlatTest, InvalaEDropsOneRegister) {
  Alat T(AlatConfig{});
  T.allocate(40, 0x1000);
  T.allocate(41, 0x1100);
  T.invalidateRegister(40);
  EXPECT_FALSE(T.checkRegister(40));
  EXPECT_TRUE(T.checkRegister(41));
}

TEST(CacheTest, HitAfterMiss) {
  CacheLevel<1024, 2> L;
  EXPECT_FALSE(L.access(0x100));
  EXPECT_TRUE(L.access(0x100));
  EXPECT_TRUE(L.access(0x108)) << "same line";
  EXPECT_EQ(L.hits(), 2u);
  EXPECT_EQ(L.misses(), 1u);
}

TEST(CacheTest, LruEviction) {
  // 2-way, 64B lines, 2 sets -> addresses 0x0, 0x80, 0x100 share set 0.
  CacheLevel<256, 2> L;
  L.access(0x0);
  L.access(0x80);
  L.access(0x100); // evicts 0x0 (LRU)
  EXPECT_FALSE(L.access(0x0));
  EXPECT_TRUE(L.probe(0x100));
}

TEST(MemoryHierarchyTest, FpBypassesL1) {
  using C = MemoryHierarchy;
  MemoryHierarchy H;
  // Warm the line via an int load: L1 + L2 now hold it.
  H.loadLatency(0x1000, /*Fp=*/false);
  EXPECT_EQ(H.loadLatency(0x1000, /*Fp=*/false), C::L1Latency);
  EXPECT_EQ(H.loadLatency(0x1000, /*Fp=*/true), C::L2Latency)
      << "FP loads are served from L2 even on an L1-resident line";
}

} // namespace
