//===- IRTest.cpp - Tests for the IR data structures -------------*- C++ -*-===//

#include "ir/IRBuilder.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

#include <set>

using namespace srp;
using namespace srp::ir;

namespace {

/// Builds: main { a = 1; print a; ret }.
TEST(IRBuilderTest, BuildsMinimalModule) {
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  IRBuilder B(M);
  B.startFunction("main");
  B.emitStore(directRef(A), Operand::constInt(1));
  unsigned T = B.emitLoad(directRef(A));
  B.emitPrint(Operand::temp(T));
  B.setRet();

  EXPECT_EQ(M.numFunctions(), 1u);
  EXPECT_EQ(M.function(0)->numBlocks(), 1u);
  EXPECT_EQ(M.function(0)->entry()->size(), 3u);
  EXPECT_TRUE(verifyModule(M).empty());
}

TEST(IRBuilderTest, TempTypesFollowOpcodes) {
  Module M;
  IRBuilder B(M);
  Function *F = B.startFunction("main");
  unsigned TI = B.emitAssign(Opcode::Add, Operand::constInt(1),
                             Operand::constInt(2));
  unsigned TF = B.emitAssign(Opcode::FAdd, Operand::constFloat(1.0),
                             Operand::constFloat(2.0));
  unsigned TC = B.emitAssign(Opcode::Copy, Operand::temp(TF));
  B.setRet();
  EXPECT_EQ(F->tempType(TI), TypeKind::Int);
  EXPECT_EQ(F->tempType(TF), TypeKind::Float);
  EXPECT_EQ(F->tempType(TC), TypeKind::Float);
}

TEST(IRBuilderTest, AddrOfMarksAddressTaken) {
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  EXPECT_FALSE(A->AddressTaken);
  IRBuilder B(M);
  B.startFunction("main");
  B.emitAddrOf(A);
  B.setRet();
  EXPECT_TRUE(A->AddressTaken);
}

TEST(CFGTest, RecomputeCFGBuildsEdges) {
  Module M;
  IRBuilder B(M);
  Function *F = B.startFunction("main");
  BasicBlock *Entry = B.block();
  BasicBlock *Then = B.createBlock("then");
  BasicBlock *Join = B.createBlock("join");

  B.setCondBr(Operand::constInt(1), Then, Join);
  B.setBlock(Then);
  B.setBr(Join);
  B.setBlock(Join);
  B.setRet();
  F->recomputeCFG();

  ASSERT_EQ(Entry->succs().size(), 2u);
  EXPECT_EQ(Entry->succs()[0], Then);
  EXPECT_EQ(Entry->succs()[1], Join);
  ASSERT_EQ(Join->preds().size(), 2u);
  EXPECT_TRUE(Entry->preds().empty());
}

TEST(CFGTest, CondBrSameTargetSingleEdge) {
  Module M;
  IRBuilder B(M);
  Function *F = B.startFunction("main");
  BasicBlock *Next = B.createBlock("next");
  B.setCondBr(Operand::constInt(0), Next, Next);
  B.setBlock(Next);
  B.setRet();
  F->recomputeCFG();
  EXPECT_EQ(F->entry()->succs().size(), 1u);
  EXPECT_EQ(Next->preds().size(), 1u);
}

TEST(CFGTest, ReversePostorderOfDiamondLoopAndDeadBlock) {
  Module M;
  IRBuilder B(M);
  Function *F = B.startFunction("main");
  unsigned C = B.emitAssign(Opcode::Copy, Operand::constInt(1));
  BasicBlock *Then = B.createBlock("then");
  BasicBlock *Else = B.createBlock("else");
  BasicBlock *Dead = B.createBlock("dead");
  BasicBlock *Join = B.createBlock("join");
  BasicBlock *Header = B.createBlock("header");
  BasicBlock *Latch = B.createBlock("latch");
  BasicBlock *Exit = B.createBlock("exit");
  B.setCondBr(Operand::temp(C), Then, Else);
  B.setBlock(Then);
  B.setBr(Join);
  B.setBlock(Else);
  B.setBr(Join);
  B.setBlock(Dead); // no predecessor, but an edge into the diamond
  B.setBr(Join);
  B.setBlock(Join);
  B.setBr(Header);
  B.setBlock(Header);
  B.setCondBr(Operand::temp(C), Latch, Exit);
  B.setBlock(Latch);
  B.setBr(Header);
  B.setBlock(Exit);
  B.setRet();
  F->recomputeCFG();

  std::vector<const BasicBlock *> Order = reversePostorder(*F);
  ASSERT_FALSE(Order.empty());
  EXPECT_EQ(Order.front(), F->entry());
  std::vector<int> Pos(F->numBlocks(), -1);
  for (size_t I = 0; I < Order.size(); ++I) {
    EXPECT_EQ(Pos[Order[I]->getId()], -1) << Order[I]->getName();
    Pos[Order[I]->getId()] = static_cast<int>(I);
  }
  EXPECT_EQ(Pos[Dead->getId()], -1);
  EXPECT_EQ(Order.size(), F->numBlocks() - 1u);
  // Every edge but the loop's back edge points forward in the order.
  for (const BasicBlock *BB : Order)
    for (const BasicBlock *Succ : BB->succs()) {
      if (BB != Latch || Succ != Header) {
        EXPECT_LT(Pos[BB->getId()], Pos[Succ->getId()])
            << BB->getName() << " -> " << Succ->getName();
      }
    }
  EXPECT_GT(Pos[Latch->getId()], Pos[Header->getId()]);
}

TEST(CFGTest, InsertBeforeAndErase) {
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  IRBuilder B(M);
  B.startFunction("main");
  B.emitStore(directRef(A), Operand::constInt(1));
  B.emitStore(directRef(A), Operand::constInt(2));
  B.setRet();

  BasicBlock *BB = B.block();
  Stmt Probe;
  Probe.Kind = StmtKind::Print;
  Probe.A = Operand::constInt(9);
  Stmt *Inserted = BB->insertBefore(1, Probe);
  EXPECT_EQ(BB->size(), 3u);
  EXPECT_EQ(BB->stmt(1), Inserted);
  EXPECT_EQ(BB->positionOf(Inserted), 1u);
  BB->erase(1);
  EXPECT_EQ(BB->size(), 2u);
}

/// Statement ids are unique within a function and never renumbered:
/// per-statement analysis tables (HSSA, the alias profile) are keyed by
/// them across recomputeCFG, insertions and erasures.
TEST(CFGTest, StmtIdsStableAcrossEdits) {
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  IRBuilder B(M);
  Function *F = B.startFunction("main");
  B.emitStore(directRef(A), Operand::constInt(1));
  BasicBlock *Then = B.createBlock("then");
  BasicBlock *Else = B.createBlock("else");
  B.setCondBr(Operand::constInt(1), Then, Else);
  B.setBlock(Then);
  B.emitLoad(directRef(A));
  B.setRet();
  B.setBlock(Else);
  B.emitStore(directRef(A), Operand::constInt(2));
  B.setRet();

  auto Ids = [&] {
    std::vector<std::pair<const Stmt *, unsigned>> Out;
    for (unsigned BI = 0; BI < F->numBlocks(); ++BI)
      for (size_t SI = 0; SI < F->block(BI)->size(); ++SI)
        Out.push_back({F->block(BI)->stmt(SI), F->block(BI)->stmt(SI)->Id});
    return Out;
  };
  auto Before = Ids();
  unsigned NumIds = F->numStmtIds();
  EXPECT_EQ(NumIds, 3u);

  F->recomputeCFG();
  EXPECT_EQ(Ids(), Before);
  EXPECT_EQ(F->numStmtIds(), NumIds);

  Stmt Probe;
  Probe.Kind = StmtKind::Print;
  Probe.A = Operand::constInt(9);
  Stmt *Inserted = F->entry()->insertBefore(0, Probe);
  EXPECT_EQ(Inserted->Id, NumIds) << "insertions take a fresh id";
  EXPECT_EQ(F->numStmtIds(), NumIds + 1);
  Then->erase(0);
  F->recomputeCFG();

  // Every surviving statement keeps its id; ids stay unique and below
  // numStmtIds(), and the erased statement's id is not handed out again.
  std::set<unsigned> Seen;
  for (const auto &[S, Id] : Ids()) {
    EXPECT_TRUE(Seen.insert(Id).second) << "duplicate id " << Id;
    EXPECT_LT(Id, F->numStmtIds());
    for (const auto &[OldS, OldId] : Before) {
      if (OldS == S) {
        EXPECT_EQ(Id, OldId);
      }
    }
  }
  EXPECT_EQ(Seen.size(), 3u);
  Stmt *Appended = Else->append(Probe);
  EXPECT_EQ(Appended->Id, NumIds + 1);
}

TEST(MemRefTest, LexicalIdentity) {
  Module M;
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  Symbol *Q = M.createGlobal("q", TypeKind::Int);
  MemRef A = indirectRef(P, TypeKind::Int);
  MemRef B = indirectRef(P, TypeKind::Int);
  MemRef C = indirectRef(Q, TypeKind::Int);
  MemRef D = indirectRef(P, TypeKind::Int, /*Offset=*/8);
  EXPECT_TRUE(A.sameLexicalRef(B));
  EXPECT_FALSE(A.sameLexicalRef(C));
  EXPECT_FALSE(A.sameLexicalRef(D));
  EXPECT_TRUE(A.isIndirect());
  EXPECT_TRUE(directRef(P).isDirect());
}

TEST(MemRefTest, IndexedRefsDifferByOperand) {
  Module M;
  Symbol *Arr = M.createGlobal("arr", TypeKind::Int, 16);
  MemRef A = arrayRef(Arr, Operand::temp(3));
  MemRef B = arrayRef(Arr, Operand::temp(3));
  MemRef C = arrayRef(Arr, Operand::temp(4));
  MemRef D = arrayRef(Arr, Operand::constInt(3));
  EXPECT_TRUE(A.sameLexicalRef(B));
  EXPECT_FALSE(A.sameLexicalRef(C));
  EXPECT_FALSE(A.sameLexicalRef(D));
}

TEST(PrinterTest, PrintsStatements) {
  Module M;
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  Symbol *Arr = M.createGlobal("arr", TypeKind::Float, 8);
  IRBuilder B(M);
  B.startFunction("main");
  unsigned T0 = B.emitLoad(indirectRef(P, TypeKind::Int));
  unsigned T1 = B.emitAssign(Opcode::Add, Operand::temp(T0),
                             Operand::constInt(1));
  B.emitStore(arrayRef(Arr, Operand::temp(T1)),
              Operand::constFloat(2.5));
  B.setRet();

  BasicBlock *BB = B.block();
  EXPECT_EQ(stmtToString(*BB->stmt(0)), "t0 = ld *p");
  EXPECT_EQ(stmtToString(*BB->stmt(1)), "t1 = add t0, 1");
  EXPECT_EQ(stmtToString(*BB->stmt(2)), "st arr[t1] = 2.5f");
}

TEST(PrinterTest, PrintsSpeculationFlags) {
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  IRBuilder B(M);
  B.startFunction("main");
  unsigned T = B.emitLoad(directRef(A), SpecFlag::LdA);
  B.emitLoad(directRef(A), SpecFlag::LdCnc);
  B.emitInvala(T);
  B.setRet();
  BasicBlock *BB = B.block();
  EXPECT_EQ(stmtToString(*BB->stmt(0)), "t0 = ld<ld.a> a");
  EXPECT_EQ(stmtToString(*BB->stmt(1)), "t1 = ld<ld.c.nc> a");
  EXPECT_EQ(stmtToString(*BB->stmt(2)), "invala t0");
}

TEST(PrinterTest, ModulePrintIncludesGlobalsAndBlocks) {
  Module M;
  M.createGlobal("g", TypeKind::Int, 4);
  IRBuilder B(M);
  B.startFunction("main");
  B.setRet();
  std::string Text = moduleToString(M);
  EXPECT_NE(Text.find("global g : int[4]"), std::string::npos);
  EXPECT_NE(Text.find("func main()"), std::string::npos);
  EXPECT_NE(Text.find("entry:"), std::string::npos);
  EXPECT_NE(Text.find("  ret"), std::string::npos);
}

TEST(VerifierTest, AcceptsWellFormedModule) {
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int, 4);
  IRBuilder B(M);
  B.startFunction("main");
  unsigned T = B.emitLoad(arrayRef(A, Operand::constInt(2)));
  B.emitPrint(Operand::temp(T));
  B.setRet(Operand::temp(T));
  EXPECT_TRUE(verifyModule(M).empty());
}

TEST(VerifierTest, RejectsOutOfBoundsConstantIndex) {
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int, 4);
  IRBuilder B(M);
  B.startFunction("main");
  B.emitLoad(arrayRef(A, Operand::constInt(4)));
  B.setRet();
  auto Errors = verifyModule(M);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("outside the symbol's storage"),
            std::string::npos);
}

TEST(VerifierTest, RejectsTypeMismatchedStore) {
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  IRBuilder B(M);
  B.startFunction("main");
  B.emitStore(directRef(A), Operand::constFloat(1.0));
  B.setRet();
  EXPECT_FALSE(verifyModule(M).empty());
}

TEST(VerifierTest, RejectsMissingMain) {
  Module M;
  IRBuilder B(M);
  B.startFunction("helper");
  B.setRet();
  auto Errors = verifyModule(M);
  ASSERT_EQ(Errors.size(), 1u);
  EXPECT_NE(Errors[0].find("main"), std::string::npos);
}

TEST(VerifierTest, RejectsCallArityMismatch) {
  Module M;
  IRBuilder B(M);
  Function *Callee = B.startFunction("callee");
  M.createLocal(Callee, "x", TypeKind::Int, 1, /*IsFormal=*/true);
  B.setRet();
  B.startFunction("main");
  B.emitCall(Callee, {});
  B.setRet();
  auto Errors = verifyModule(M);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("argument count"), std::string::npos);
}

TEST(VerifierTest, RejectsDeepDereference) {
  Module M;
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  IRBuilder B(M);
  B.startFunction("main");
  MemRef Ref = indirectRef(P, TypeKind::Int);
  Ref.Depth = 3;
  B.emitLoad(Ref);
  B.setRet();
  EXPECT_FALSE(verifyModule(M).empty());
}

TEST(StmtTest, CollectUsedTemps) {
  Module M;
  Symbol *Arr = M.createGlobal("arr", TypeKind::Int, 8);
  IRBuilder B(M);
  B.startFunction("main");
  unsigned T0 = B.emitAssign(Opcode::Copy, Operand::constInt(1));
  unsigned T1 = B.emitAssign(Opcode::Add, Operand::temp(T0),
                             Operand::constInt(2));
  B.emitStore(arrayRef(Arr, Operand::temp(T1)), Operand::temp(T0));
  B.setRet();

  std::vector<unsigned> Used;
  B.block()->stmt(2)->collectUsedTemps(Used);
  ASSERT_EQ(Used.size(), 2u);
  EXPECT_EQ(Used[0], T0);
  EXPECT_EQ(Used[1], T1);
}

} // namespace
