//===- InterpreterTest.cpp - Tests for the IR interpreter --------*- C++ -*-===//

#include "interp/Interpreter.h"

#include "ir/IRBuilder.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace srp;
using namespace srp::ir;
using namespace srp::interp;

namespace {

RunResult runModule(Module &M, AliasProfile *AP = nullptr,
                    EdgeProfile *EP = nullptr, uint64_t Fuel = 1'000'000) {
  EXPECT_TRUE(verifyModule(M).empty());
  for (unsigned I = 0; I < M.numFunctions(); ++I)
    M.function(I)->recomputeCFG();
  Interpreter Interp(M);
  Interp.setAliasProfile(AP);
  Interp.setEdgeProfile(EP);
  return Interp.run(Fuel);
}

TEST(InterpreterTest, ArithmeticAndPrint) {
  Module M;
  IRBuilder B(M);
  B.startFunction("main");
  unsigned T0 = B.emitAssign(Opcode::Add, Operand::constInt(40),
                             Operand::constInt(2));
  unsigned T1 = B.emitAssign(Opcode::Mul, Operand::temp(T0),
                             Operand::constInt(-3));
  B.emitPrint(Operand::temp(T0));
  B.emitPrint(Operand::temp(T1));
  B.setRet(Operand::temp(T0));

  RunResult R = runModule(M);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.Output.size(), 2u);
  EXPECT_EQ(R.Output[0], "42");
  EXPECT_EQ(R.Output[1], "-126");
  EXPECT_EQ(R.ExitValue, 42);
}

TEST(InterpreterTest, FloatArithmetic) {
  Module M;
  IRBuilder B(M);
  B.startFunction("main");
  unsigned T0 = B.emitAssign(Opcode::FAdd, Operand::constFloat(1.5),
                             Operand::constFloat(2.25));
  unsigned T1 = B.emitAssign(Opcode::FpToInt, Operand::temp(T0));
  B.emitPrint(Operand::temp(T0));
  B.emitPrint(Operand::temp(T1));
  B.setRet();

  RunResult R = runModule(M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output[0], "3.75");
  EXPECT_EQ(R.Output[1], "3");
}

TEST(InterpreterTest, DivisionByZeroIsDefined) {
  Module M;
  IRBuilder B(M);
  B.startFunction("main");
  unsigned T0 = B.emitAssign(Opcode::Div, Operand::constInt(7),
                             Operand::constInt(0));
  unsigned T1 = B.emitAssign(Opcode::Rem, Operand::constInt(7),
                             Operand::constInt(0));
  B.emitPrint(Operand::temp(T0));
  B.emitPrint(Operand::temp(T1));
  B.setRet();

  RunResult R = runModule(M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output[0], "0");
  EXPECT_EQ(R.Output[1], "0");
}

TEST(InterpreterTest, GlobalLoadStore) {
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  IRBuilder B(M);
  B.startFunction("main");
  B.emitStore(directRef(A), Operand::constInt(17));
  unsigned T = B.emitLoad(directRef(A));
  B.emitPrint(Operand::temp(T));
  B.setRet();

  RunResult R = runModule(M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output[0], "17");
  EXPECT_EQ(R.StoresExecuted, 1u);
  EXPECT_EQ(R.LoadsExecuted, 1u);
}

TEST(InterpreterTest, UninitializedMemoryReadsZero) {
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  IRBuilder B(M);
  B.startFunction("main");
  unsigned T = B.emitLoad(directRef(A));
  B.emitPrint(Operand::temp(T));
  B.setRet();
  RunResult R = runModule(M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output[0], "0");
}

TEST(InterpreterTest, ArrayIndexing) {
  Module M;
  Symbol *Arr = M.createGlobal("arr", TypeKind::Int, 10);
  IRBuilder B(M);
  B.startFunction("main");
  for (int I = 0; I < 10; ++I)
    B.emitStore(arrayRef(Arr, Operand::constInt(I)),
                Operand::constInt(I * I));
  unsigned T = B.emitLoad(arrayRef(Arr, Operand::constInt(7)));
  B.emitPrint(Operand::temp(T));
  B.setRet();
  RunResult R = runModule(M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output[0], "49");
}

TEST(InterpreterTest, PointerIndirection) {
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  IRBuilder B(M);
  B.startFunction("main");
  unsigned TA = B.emitAddrOf(A);
  B.emitStore(directRef(P), Operand::temp(TA));
  B.emitStore(indirectRef(P, TypeKind::Int), Operand::constInt(55));
  unsigned T = B.emitLoad(directRef(A));
  B.emitPrint(Operand::temp(T));
  B.setRet();
  RunResult R = runModule(M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output[0], "55");
}

TEST(InterpreterTest, DoubleIndirection) {
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  Symbol *Q = M.createGlobal("q", TypeKind::Int);
  IRBuilder B(M);
  B.startFunction("main");
  unsigned TA = B.emitAddrOf(A);
  B.emitStore(directRef(P), Operand::temp(TA));
  unsigned TP = B.emitAddrOf(P);
  B.emitStore(directRef(Q), Operand::temp(TP));
  B.emitStore(directRef(A), Operand::constInt(99));
  unsigned T = B.emitLoad(doubleIndirectRef(Q, TypeKind::Int));
  B.emitPrint(Operand::temp(T));
  B.setRet();
  RunResult R = runModule(M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output[0], "99");
}

TEST(InterpreterTest, LoopComputesSum) {
  Module M;
  Symbol *Sum = M.createGlobal("sum", TypeKind::Int);
  Symbol *I = M.createGlobal("i", TypeKind::Int);
  IRBuilder B(M);
  Function *F = B.startFunction("main");
  BasicBlock *Header = B.createBlock("header");
  BasicBlock *Body = B.createBlock("body");
  BasicBlock *Exit = B.createBlock("exit");

  B.emitStore(directRef(Sum), Operand::constInt(0));
  B.emitStore(directRef(I), Operand::constInt(0));
  B.setBr(Header);

  B.setBlock(Header);
  unsigned TI = B.emitLoad(directRef(I));
  unsigned TC = B.emitAssign(Opcode::CmpLt, Operand::temp(TI),
                             Operand::constInt(100));
  B.setCondBr(Operand::temp(TC), Body, Exit);

  B.setBlock(Body);
  unsigned TS = B.emitLoad(directRef(Sum));
  unsigned TI2 = B.emitLoad(directRef(I));
  unsigned TNew = B.emitAssign(Opcode::Add, Operand::temp(TS),
                               Operand::temp(TI2));
  B.emitStore(directRef(Sum), Operand::temp(TNew));
  unsigned TInc = B.emitAssign(Opcode::Add, Operand::temp(TI2),
                               Operand::constInt(1));
  B.emitStore(directRef(I), Operand::temp(TInc));
  B.setBr(Header);

  B.setBlock(Exit);
  unsigned TOut = B.emitLoad(directRef(Sum));
  B.emitPrint(Operand::temp(TOut));
  B.setRet();
  (void)F;

  RunResult R = runModule(M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output[0], "4950");
}

TEST(InterpreterTest, CallsAndRecursion) {
  Module M;
  IRBuilder B(M);
  // fib(n) = n < 2 ? n : fib(n-1) + fib(n-2)
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
  B.setRet();

  RunResult R = runModule(M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output[0], "144");
}

TEST(InterpreterTest, HeapAllocationAndLinkedList) {
  Module M;
  Symbol *Head = M.createGlobal("head", TypeKind::Int);
  Symbol *Cur = M.createGlobal("cur", TypeKind::Int);
  Symbol *I = M.createGlobal("i", TypeKind::Int);
  Symbol *Acc = M.createGlobal("acc", TypeKind::Int);
  IRBuilder B(M);
  B.startFunction("main");
  BasicBlock *BuildHdr = B.createBlock("build_hdr");
  BasicBlock *BuildBody = B.createBlock("build_body");
  BasicBlock *WalkHdr = B.createBlock("walk_hdr");
  BasicBlock *WalkBody = B.createBlock("walk_body");
  BasicBlock *Done = B.createBlock("done");

  // Build 5 nodes, each {value, next}; prepend to head.
  B.emitStore(directRef(Head), Operand::constInt(0));
  B.emitStore(directRef(I), Operand::constInt(0));
  B.setBr(BuildHdr);

  B.setBlock(BuildHdr);
  unsigned TI = B.emitLoad(directRef(I));
  unsigned TC = B.emitAssign(Opcode::CmpLt, Operand::temp(TI),
                             Operand::constInt(5));
  B.setCondBr(Operand::temp(TC), BuildBody, WalkHdr);

  B.setBlock(BuildBody);
  unsigned TNode = B.emitAlloc(Operand::constInt(2), "node");
  unsigned TI2 = B.emitLoad(directRef(I));
  // node->value = i * 10
  unsigned TV = B.emitAssign(Opcode::Mul, Operand::temp(TI2),
                             Operand::constInt(10));
  B.emitStore(directRef(Cur), Operand::temp(TNode));
  B.emitStore(indirectRef(Cur, TypeKind::Int, /*Offset=*/0),
              Operand::temp(TV));
  unsigned THead = B.emitLoad(directRef(Head));
  B.emitStore(indirectRef(Cur, TypeKind::Int, /*Offset=*/8),
              Operand::temp(THead));
  B.emitStore(directRef(Head), Operand::temp(TNode));
  unsigned TInc = B.emitAssign(Opcode::Add, Operand::temp(TI2),
                               Operand::constInt(1));
  B.emitStore(directRef(I), Operand::temp(TInc));
  B.setBr(BuildHdr);

  // Walk the list summing values.
  B.setBlock(WalkHdr);
  unsigned THd = B.emitLoad(directRef(Head));
  B.emitStore(directRef(Cur), Operand::temp(THd));
  B.emitStore(directRef(Acc), Operand::constInt(0));
  B.setBr(WalkBody);

  B.setBlock(WalkBody);
  unsigned TCur = B.emitLoad(directRef(Cur));
  unsigned TNZ = B.emitAssign(Opcode::CmpNe, Operand::temp(TCur),
                              Operand::constInt(0));
  BasicBlock *WalkStep = B.createBlock("walk_step");
  B.setCondBr(Operand::temp(TNZ), WalkStep, Done);

  B.setBlock(WalkStep);
  unsigned TVal = B.emitLoad(indirectRef(Cur, TypeKind::Int, 0));
  unsigned TAcc = B.emitLoad(directRef(Acc));
  unsigned TSum = B.emitAssign(Opcode::Add, Operand::temp(TAcc),
                               Operand::temp(TVal));
  B.emitStore(directRef(Acc), Operand::temp(TSum));
  unsigned TNext = B.emitLoad(indirectRef(Cur, TypeKind::Int, 8));
  B.emitStore(directRef(Cur), Operand::temp(TNext));
  B.setBr(WalkBody);

  B.setBlock(Done);
  unsigned TOut = B.emitLoad(directRef(Acc));
  B.emitPrint(Operand::temp(TOut));
  B.setRet();

  RunResult R = runModule(M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output[0], "100"); // 0+10+20+30+40
}

TEST(InterpreterTest, FuelExhaustionTraps) {
  Module M;
  IRBuilder B(M);
  B.startFunction("main");
  BasicBlock *Loop = B.createBlock("loop");
  B.setBr(Loop);
  B.setBlock(Loop);
  B.emitAssign(Opcode::Add, Operand::constInt(1), Operand::constInt(1));
  B.setBr(Loop);

  RunResult R = runModule(M, nullptr, nullptr, /*Fuel=*/1000);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("fuel"), std::string::npos);
}

TEST(InterpreterTest, AliasProfileRecordsIndirectTargets) {
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  Symbol *C = M.createGlobal("c", TypeKind::Int);
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  IRBuilder B(M);
  Function *F = B.startFunction("main");
  unsigned TA = B.emitAddrOf(A);
  B.emitStore(directRef(P), Operand::temp(TA));
  Stmt StoreStar;
  StoreStar.Kind = StmtKind::Store;
  StoreStar.Ref = indirectRef(P, TypeKind::Int);
  StoreStar.A = Operand::constInt(5);
  Stmt *S = B.block()->append(StoreStar);
  B.setRet();

  AliasProfile AP;
  RunResult R = runModule(M, &AP);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(AP.observed(F, S->Id, 1, A));
  EXPECT_FALSE(AP.observed(F, S->Id, 1, C));
  const std::set<unsigned> *Targets = AP.targets(F, S->Id, 1);
  ASSERT_NE(Targets, nullptr);
  EXPECT_EQ(Targets->size(), 1u);
}

TEST(InterpreterTest, AliasProfileHeapTargetsUseSiteNames) {
  Module M;
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  IRBuilder B(M);
  Function *F = B.startFunction("main");
  unsigned T = B.emitAlloc(Operand::constInt(2), "mysite");
  B.emitStore(directRef(P), Operand::temp(T));
  Stmt LoadStar;
  LoadStar.Kind = StmtKind::Load;
  LoadStar.Ref = indirectRef(P, TypeKind::Int);
  LoadStar.Dst = F->createTemp(TypeKind::Int);
  Stmt *S = B.block()->append(LoadStar);
  B.setRet();

  AliasProfile AP;
  RunResult R = runModule(M, &AP);
  ASSERT_TRUE(R.Ok) << R.Error;
  const Symbol *Site = M.heapSites()[0];
  EXPECT_TRUE(AP.observed(F, S->Id, 1, Site));
}

TEST(InterpreterTest, EdgeProfileCountsLoopIterations) {
  Module M;
  Symbol *I = M.createGlobal("i", TypeKind::Int);
  IRBuilder B(M);
  Function *F = B.startFunction("main");
  BasicBlock *Hdr = B.createBlock("hdr");
  BasicBlock *Body = B.createBlock("body");
  BasicBlock *Exit = B.createBlock("exit");
  B.emitStore(directRef(I), Operand::constInt(0));
  B.setBr(Hdr);
  B.setBlock(Hdr);
  unsigned TI = B.emitLoad(directRef(I));
  unsigned TC = B.emitAssign(Opcode::CmpLt, Operand::temp(TI),
                             Operand::constInt(10));
  B.setCondBr(Operand::temp(TC), Body, Exit);
  B.setBlock(Body);
  unsigned TI2 = B.emitLoad(directRef(I));
  unsigned TInc = B.emitAssign(Opcode::Add, Operand::temp(TI2),
                               Operand::constInt(1));
  B.emitStore(directRef(I), Operand::temp(TInc));
  B.setBr(Hdr);
  B.setBlock(Exit);
  B.setRet();
  (void)F;

  EdgeProfile EP;
  RunResult R = runModule(M, nullptr, &EP);
  ASSERT_TRUE(R.Ok) << R.Error;
  // A copy and a move report the same counts as the recorded profile.
  EdgeProfile Copy = EP;
  EdgeProfile Source = EP;
  EdgeProfile Moved = std::move(Source);
  for (const EdgeProfile *P : {&EP, &Copy, &Moved}) {
    EXPECT_EQ(P->blockCount(Hdr), 11u);
    EXPECT_EQ(P->blockCount(Body), 10u);
    EXPECT_EQ(P->edgeCount(Hdr, Body), 10u);
    EXPECT_EQ(P->edgeCount(Hdr, Exit), 1u);
  }
}

TEST(InterpreterTest, LocalsAreFreshPerActivation) {
  Module M;
  IRBuilder B(M);
  // leaf(x): l = x; return l  -- recursion must not smash outer l.
  Function *Leaf = B.startFunction("leaf");
  Symbol *X = M.createLocal(Leaf, "x", TypeKind::Int, 1, /*IsFormal=*/true);
  Symbol *L = M.createLocal(Leaf, "l", TypeKind::Int);
  BasicBlock *RecBB = B.createBlock("rec");
  BasicBlock *Out = B.createBlock("out");
  unsigned TX = B.emitLoad(directRef(X));
  B.emitStore(directRef(L), Operand::temp(TX));
  unsigned TPos = B.emitAssign(Opcode::CmpLt, Operand::constInt(0),
                               Operand::temp(TX));
  B.setCondBr(Operand::temp(TPos), RecBB, Out);
  B.setBlock(RecBB);
  unsigned TDec = B.emitAssign(Opcode::Sub, Operand::temp(TX),
                               Operand::constInt(1));
  B.emitCall(Leaf, {Operand::temp(TDec)});
  B.setBr(Out);
  B.setBlock(Out);
  unsigned TL = B.emitLoad(directRef(L));
  B.setRet(Operand::temp(TL));

  B.startFunction("main");
  unsigned TR = B.emitCall(Leaf, {Operand::constInt(5)});
  B.emitPrint(Operand::temp(TR));
  B.setRet();

  RunResult R = runModule(M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output[0], "5");
}

TEST(InterpreterTest, SelectOperator) {
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
  RunResult R = runModule(M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output[0], "10");
  EXPECT_EQ(R.Output[1], "20");
}

} // namespace
