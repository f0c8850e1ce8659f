//===- PromoterTest.cpp - Tests for speculative register promotion -*- C++ -===//

#include "pre/Promoter.h"

#include "alias/AliasAnalysis.h"
#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace srp;
using namespace srp::ir;
using namespace srp::interp;
using namespace srp::pre;

namespace {

RunResult interpret(Module &M) {
  for (unsigned I = 0; I < M.numFunctions(); ++I)
    M.function(I)->recomputeCFG();
  Interpreter Interp(M);
  return Interp.run();
}

/// Runs train profiling, promotes with \p Config, verifies, and checks the
/// output against \p Expected.
PromotionStats promoteAndCheck(Module &M, const PromotionConfig &Config,
                               const RunResult &Expected,
                               bool UseProfile = true) {
  for (unsigned I = 0; I < M.numFunctions(); ++I)
    M.function(I)->recomputeCFG();
  AliasProfile AP;
  EdgeProfile EP;
  Interpreter Train(M);
  Train.setAliasProfile(&AP);
  Train.setEdgeProfile(&EP);
  RunResult TrainResult = Train.run();
  EXPECT_TRUE(TrainResult.Ok) << TrainResult.Error;

  alias::SteensgaardAnalysis AA(M);
  PromotionStats Stats = promoteModule(
      M, AA, UseProfile ? &AP : nullptr, &EP, Config);

  auto Errors = verifyModule(M);
  EXPECT_TRUE(Errors.empty()) << (Errors.empty() ? "" : Errors[0]);
  RunResult After = interpret(M);
  EXPECT_TRUE(After.Ok) << After.Error;
  EXPECT_EQ(After.Output, Expected.Output);
  EXPECT_EQ(After.ExitValue, Expected.ExitValue);
  return Stats;
}

/// Counts statements matching a predicate across the module.
template <typename Pred> unsigned countStmts(Module &M, Pred P) {
  unsigned N = 0;
  for (unsigned FI = 0; FI < M.numFunctions(); ++FI) {
    Function *F = M.function(FI);
    for (unsigned BI = 0; BI < F->numBlocks(); ++BI)
      for (size_t SI = 0; SI < F->block(BI)->size(); ++SI)
        if (P(*F->block(BI)->stmt(SI)))
          ++N;
  }
  return N;
}

unsigned countLoads(Module &M) {
  return countStmts(M, [](const Stmt &S) { return S.isLoad(); });
}

unsigned countFlagged(Module &M, SpecFlag Flag) {
  return countStmts(M, [Flag](const Stmt &S) { return S.Flag == Flag; });
}

//===----------------------------------------------------------------------===//
// Pure redundancy (no aliases at all)
//===----------------------------------------------------------------------===//

/// a = 1; x = a; y = a; print x+y — the second load is fully redundant
/// even conservatively.
TEST(PromoterTest, PureRedundancyEliminatedConservatively) {
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  IRBuilder B(M);
  B.startFunction("main");
  B.emitStore(directRef(A), Operand::constInt(21));
  unsigned T1 = B.emitLoad(directRef(A));
  unsigned T2 = B.emitLoad(directRef(A));
  unsigned TS = B.emitAssign(Opcode::Add, Operand::temp(T1),
                             Operand::temp(T2));
  B.emitPrint(Operand::temp(TS));
  B.setRet();

  RunResult Expected = interpret(M);
  ASSERT_TRUE(Expected.Ok);
  ASSERT_EQ(Expected.Output[0], "42");

  PromotionStats Stats =
      promoteAndCheck(M, PromotionConfig::conservative(), Expected);
  EXPECT_GE(Stats.loadsRemoved(), 2u) << "store-load and load-load reuse";
  EXPECT_EQ(countLoads(M), 0u) << "both loads forwarded from the store";
  EXPECT_EQ(Stats.ChecksInserted, 0u);
}

//===----------------------------------------------------------------------===//
// Figure 1(a): read after read with a may-aliased store in between
//===----------------------------------------------------------------------===//

struct Fig1a {
  Module M;
  Symbol *A, *B2, *P;

  /// Compiler sees p ∈ {&a, &b}; at run time p = &b, so loads of a can be
  /// speculated across *q = ....
  Fig1a() {
    A = M.createGlobal("a", TypeKind::Int);
    B2 = M.createGlobal("b", TypeKind::Int);
    P = M.createGlobal("p", TypeKind::Int);
    IRBuilder B(M);
    B.startFunction("main");
    unsigned TA = B.emitAddrOf(A);
    unsigned TB = B.emitAddrOf(B2);
    B.emitStore(directRef(P), Operand::temp(TA));
    B.emitStore(directRef(P), Operand::temp(TB)); // runtime: p = &b
    B.emitStore(directRef(A), Operand::constInt(7));
    unsigned T1 = B.emitLoad(directRef(A)); // = a + 1
    unsigned U1 = B.emitAssign(Opcode::Add, Operand::temp(T1),
                               Operand::constInt(1));
    B.emitStore(indirectRef(P, TypeKind::Int), Operand::constInt(99));
    unsigned T2 = B.emitLoad(directRef(A)); // = a + 3
    unsigned U2 = B.emitAssign(Opcode::Add, Operand::temp(T2),
                               Operand::constInt(3));
    B.emitPrint(Operand::temp(U1));
    B.emitPrint(Operand::temp(U2));
    B.setRet();
  }
};

TEST(PromoterTest, Fig1aConservativeKeepsBothLoads) {
  Fig1a Fix;
  RunResult Expected = interpret(Fix.M);
  unsigned LoadsBefore = countLoads(Fix.M);
  PromotionStats Stats =
      promoteAndCheck(Fix.M, PromotionConfig::conservative(), Expected);
  // The may-aliased store blocks conservative promotion of the second
  // load of a (the store-load pair before it is still promotable).
  EXPECT_EQ(countFlagged(Fix.M, SpecFlag::LdCnc), 0u);
  EXPECT_EQ(Stats.ChecksInserted, 0u);
  EXPECT_GE(countLoads(Fix.M), LoadsBefore - 2);
}

TEST(PromoterTest, Fig1aAlatSpeculatesAcrossStore) {
  Fig1a Fix;
  RunResult Expected = interpret(Fix.M);
  ASSERT_EQ(Expected.Output[0], "8");
  ASSERT_EQ(Expected.Output[1], "10");
  PromotionStats Stats =
      promoteAndCheck(Fix.M, PromotionConfig::alat(), Expected);
  EXPECT_GE(Stats.LoadsRemovedDirect, 1u);
  // A check statement (ld.c) must sit after the *p store.
  EXPECT_GE(Stats.ChecksInserted, 1u);
  EXPECT_GE(countFlagged(Fix.M, SpecFlag::LdCnc), 1u);
}

/// Same shape but at run time p = &a: the profile reports a collision, so
/// the χ on a is real and ALAT does NOT speculate; the software check can
/// still forward the stored value.
TEST(PromoterTest, Fig1aCollidingProfileUsesForwarding) {
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  Symbol *B2 = M.createGlobal("b", TypeKind::Int);
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  IRBuilder B(M);
  B.startFunction("main");
  unsigned TA = B.emitAddrOf(A);
  unsigned TB = B.emitAddrOf(B2);
  B.emitStore(directRef(P), Operand::temp(TB));
  B.emitStore(directRef(P), Operand::temp(TA)); // runtime: p = &a!
  B.emitStore(directRef(A), Operand::constInt(7));
  unsigned T1 = B.emitLoad(directRef(A));
  B.emitStore(indirectRef(P, TypeKind::Int), Operand::constInt(99));
  unsigned T2 = B.emitLoad(directRef(A));
  B.emitPrint(Operand::temp(T1));
  B.emitPrint(Operand::temp(T2));
  B.setRet();

  RunResult Expected = interpret(M);
  ASSERT_EQ(Expected.Output[0], "7");
  ASSERT_EQ(Expected.Output[1], "99") << "the store really hit a";

  PromotionConfig C = PromotionConfig::alat();
  C.SoftwareCheckIntExprs = true;
  PromotionStats Stats = promoteAndCheck(M, C, Expected);
  // The colliding store cannot be ALAT-speculated (real χ); software
  // forwarding still promotes and keeps the output right.
  EXPECT_GE(Stats.SoftwareChecks, 1u);
}

//===----------------------------------------------------------------------===//
// Figure 1(b): read after write
//===----------------------------------------------------------------------===//

TEST(PromoterTest, Fig1bStoreLoadReuseAcrossAliasedStore) {
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  Symbol *B2 = M.createGlobal("b", TypeKind::Int);
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  IRBuilder B(M);
  B.startFunction("main");
  unsigned TA = B.emitAddrOf(A);
  unsigned TB = B.emitAddrOf(B2);
  B.emitStore(directRef(P), Operand::temp(TA));
  B.emitStore(directRef(P), Operand::temp(TB)); // runtime: p = &b
  B.emitStore(directRef(A), Operand::constInt(5)); // a = 5 (leading write)
  B.emitStore(indirectRef(P, TypeKind::Int), Operand::constInt(99));
  unsigned T = B.emitLoad(directRef(A)); // reuse after aliased store
  B.emitPrint(Operand::temp(T));
  B.setRet();

  RunResult Expected = interpret(M);
  ASSERT_EQ(Expected.Output[0], "5");
  PromotionStats Stats =
      promoteAndCheck(M, PromotionConfig::alat(), Expected);
  EXPECT_GE(Stats.LoadsRemovedDirect, 1u);
  // Figure 1(b): a ld.a after the store secures the ALAT entry.
  EXPECT_GE(Stats.AdvancedLoads, 1u);
  EXPECT_GE(countFlagged(M, SpecFlag::LdA), 1u);
}

TEST(PromoterTest, Fig1bWithStAExtension) {
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  Symbol *B2 = M.createGlobal("b", TypeKind::Int);
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  IRBuilder B(M);
  B.startFunction("main");
  unsigned TA = B.emitAddrOf(A);
  unsigned TB = B.emitAddrOf(B2);
  B.emitStore(directRef(P), Operand::temp(TA));
  B.emitStore(directRef(P), Operand::temp(TB));
  B.emitStore(directRef(A), Operand::constInt(5));
  B.emitStore(indirectRef(P, TypeKind::Int), Operand::constInt(99));
  unsigned T = B.emitLoad(directRef(A));
  B.emitPrint(Operand::temp(T));
  B.setRet();

  RunResult Expected = interpret(M);
  PromotionConfig C = PromotionConfig::alat();
  C.UseStA = true;
  PromotionStats Stats = promoteAndCheck(M, C, Expected);
  EXPECT_GE(Stats.StAStores, 1u);
  // With st.a, no extra ld.a after the store is needed.
  EXPECT_EQ(countFlagged(M, SpecFlag::LdA), 0u);
  EXPECT_EQ(countStmts(M, [](const Stmt &S) { return S.StA; }), 1u);
}

//===----------------------------------------------------------------------===//
// Figure 1(c): multiple reuses
//===----------------------------------------------------------------------===//

TEST(PromoterTest, Fig1cMultipleReusesShareOneTemp) {
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  Symbol *B2 = M.createGlobal("b", TypeKind::Int);
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  Symbol *Q = M.createGlobal("q", TypeKind::Int);
  IRBuilder B(M);
  B.startFunction("main");
  unsigned TA = B.emitAddrOf(A);
  unsigned TB = B.emitAddrOf(B2);
  B.emitStore(directRef(P), Operand::temp(TA));
  B.emitStore(directRef(P), Operand::temp(TB));
  B.emitStore(directRef(Q), Operand::temp(TA));
  B.emitStore(directRef(Q), Operand::temp(TB));
  B.emitStore(directRef(A), Operand::constInt(10));
  unsigned T1 = B.emitLoad(directRef(A));
  B.emitStore(indirectRef(P, TypeKind::Int), Operand::constInt(1));
  unsigned T2 = B.emitLoad(directRef(A));
  B.emitStore(indirectRef(Q, TypeKind::Int), Operand::constInt(2));
  unsigned T3 = B.emitLoad(directRef(A));
  unsigned TS1 = B.emitAssign(Opcode::Add, Operand::temp(T1),
                              Operand::temp(T2));
  unsigned TS2 = B.emitAssign(Opcode::Add, Operand::temp(TS1),
                              Operand::temp(T3));
  B.emitPrint(Operand::temp(TS2));
  B.setRet();

  RunResult Expected = interpret(M);
  ASSERT_EQ(Expected.Output[0], "30");
  PromotionStats Stats =
      promoteAndCheck(M, PromotionConfig::alat(), Expected);
  EXPECT_GE(Stats.LoadsRemovedDirect, 2u);
  // One check after each speculatively ignored store.
  EXPECT_EQ(Stats.ChecksInserted, 2u);
}

TEST(PromoterTest, ChecksAtReusePlacement) {
  // Figure 1's form: the reuse load itself becomes ld.c.nc; no check
  // statement follows the store.
  Fig1a Fix;
  RunResult Expected = interpret(Fix.M);
  PromotionConfig C = PromotionConfig::alat();
  C.ChecksAtReuse = true;
  PromotionStats Stats = promoteAndCheck(Fix.M, C, Expected);
  // The speculative reuse is converted in place (kept as a load with a
  // checking flag), not removed-and-checked-after-the-store: exactly one
  // ld.c.nc, one ld.a, and only the pure store-load reuse counts as a
  // removed load.
  EXPECT_EQ(Stats.ChecksInserted, 1u);
  EXPECT_EQ(countFlagged(Fix.M, SpecFlag::LdCnc), 1u);
  EXPECT_EQ(countFlagged(Fix.M, SpecFlag::LdA), 1u);
  EXPECT_EQ(Stats.LoadsRemovedDirect, 1u);
}

//===----------------------------------------------------------------------===//
// Mis-speculation correctness: train says no alias, ref collides
//===----------------------------------------------------------------------===//

/// The module branches on `mode`: mode=0 (train path) never collides;
/// mode=1 (exercised after promotion) collides. The check must reload.
TEST(PromoterTest, MisSpeculationReloadsCorrectValue) {
  Module M;
  Symbol *Mode = M.createGlobal("mode", TypeKind::Int);
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  Symbol *B2 = M.createGlobal("b", TypeKind::Int);
  Symbol *P = M.createGlobal("p", TypeKind::Int);

  auto Build = [&](Module &Mod, Symbol *SMode, Symbol *SA, Symbol *SB,
                   Symbol *SP) {
    IRBuilder B(Mod);
    B.startFunction("main");
    BasicBlock *SetB = B.createBlock("set_b");
    BasicBlock *SetA = B.createBlock("set_a");
    BasicBlock *Body = B.createBlock("body");
    unsigned TMode = B.emitLoad(directRef(SMode));
    B.setCondBr(Operand::temp(TMode), SetA, SetB);
    B.setBlock(SetB);
    unsigned TB = B.emitAddrOf(SB);
    B.emitStore(directRef(SP), Operand::temp(TB));
    B.setBr(Body);
    B.setBlock(SetA);
    unsigned TA = B.emitAddrOf(SA);
    B.emitStore(directRef(SP), Operand::temp(TA));
    B.setBr(Body);
    B.setBlock(Body);
    B.emitStore(directRef(SA), Operand::constInt(7));
    unsigned T1 = B.emitLoad(directRef(SA));
    B.emitStore(indirectRef(SP, TypeKind::Int), Operand::constInt(99));
    unsigned T2 = B.emitLoad(directRef(SA));
    B.emitPrint(Operand::temp(T1));
    B.emitPrint(Operand::temp(T2));
    B.setRet();
  };
  Build(M, Mode, A, B2, P);

  // Train with mode=0 (no collision): profile says *p only hits b.
  for (unsigned I = 0; I < M.numFunctions(); ++I)
    M.function(I)->recomputeCFG();
  AliasProfile AP;
  Interpreter Train(M);
  Train.setAliasProfile(&AP);
  RunResult TrainR = Train.run();
  ASSERT_TRUE(TrainR.Ok);
  ASSERT_EQ(TrainR.Output[1], "7") << "no collision on the train path";

  alias::SteensgaardAnalysis AA(M);
  PromotionStats Stats =
      promoteModule(M, AA, &AP, nullptr, PromotionConfig::alat());
  EXPECT_GE(Stats.ChecksInserted + Stats.LoadsRemovedDirect, 1u);
  ASSERT_TRUE(verifyModule(M).empty());

  // Now run the promoted code on the colliding path (mode=1 via a=...?).
  // mode lives in memory and is 0-initialized; flip it by prepending a
  // store in entry.
  Function *Main = M.findFunction("main");
  Stmt SetMode;
  SetMode.Kind = StmtKind::Store;
  SetMode.Ref = directRef(Mode);
  SetMode.A = Operand::constInt(1);
  Main->entry()->insertBefore(0, SetMode);
  Main->recomputeCFG();

  RunResult After = interpret(M);
  ASSERT_TRUE(After.Ok) << After.Error;
  ASSERT_EQ(After.Output.size(), 2u);
  EXPECT_EQ(After.Output[0], "7");
  EXPECT_EQ(After.Output[1], "99")
      << "mis-speculated check must reload the clobbered value";
}

//===----------------------------------------------------------------------===//
// Figure 3: speculative loop-invariant promotion
//===----------------------------------------------------------------------===//

struct Fig3 {
  Module M;
  Symbol *A, *C, *P, *Q, *I;
  BasicBlock *Body = nullptr;

  Fig3() {
    A = M.createGlobal("a", TypeKind::Int);
    C = M.createGlobal("c", TypeKind::Int);
    P = M.createGlobal("p", TypeKind::Int);
    Q = M.createGlobal("q", TypeKind::Int);
    I = M.createGlobal("i", TypeKind::Int);
    IRBuilder B(M);
    B.startFunction("main");
    BasicBlock *Hdr = B.createBlock("hdr");
    Body = B.createBlock("body");
    BasicBlock *Exit = B.createBlock("exit");
    unsigned TA = B.emitAddrOf(A);
    unsigned TC = B.emitAddrOf(C);
    // Ambiguity: both pointers may hold both addresses...
    B.emitStore(directRef(P), Operand::temp(TC));
    B.emitStore(directRef(Q), Operand::temp(TA));
    // ...but at run time p=&a, q=&c.
    B.emitStore(directRef(P), Operand::temp(TA));
    B.emitStore(directRef(Q), Operand::temp(TC));
    B.emitStore(directRef(A), Operand::constInt(1000));
    B.emitStore(directRef(I), Operand::constInt(0));
    B.setBr(Hdr);
    B.setBlock(Hdr);
    unsigned TI = B.emitLoad(directRef(I));
    unsigned TCmp = B.emitAssign(Opcode::CmpLt, Operand::temp(TI),
                                 Operand::constInt(50));
    B.setCondBr(Operand::temp(TCmp), Body, Exit);
    B.setBlock(Body);
    // *q = i (possible alias with *p per the compiler)
    B.emitStore(indirectRef(Q, TypeKind::Int), Operand::temp(TI));
    // t = *p + 1, accumulate into c via direct store to keep it simple
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
  }
};

TEST(PromoterTest, Fig3LoopInvariantHoistedWithLdSa) {
  Fig3 Fix;
  RunResult Expected = interpret(Fix.M);
  ASSERT_TRUE(Expected.Ok);
  ASSERT_EQ(Expected.Output.size(), 50u);
  ASSERT_EQ(Expected.Output[0], "1000");
  ASSERT_EQ(Expected.Output[49], "1049");

  PromotionStats Stats =
      promoteAndCheck(Fix.M, PromotionConfig::alat(), Expected);
  EXPECT_GE(Stats.LoadsRemovedIndirect, 1u)
      << "the in-loop load of *p must be gone";
  EXPECT_GE(Stats.InsertedLoads, 1u) << "hoisted to the preheader";
  EXPECT_EQ(countFlagged(Fix.M, SpecFlag::LdSA), 1u)
      << "the hoisted load is control+data speculative";
  EXPECT_GE(Stats.ChecksInserted, 1u) << "check after *q = ...";
}

TEST(PromoterTest, Fig3ConservativeDoesNotHoist) {
  Fig3 Fix;
  RunResult Expected = interpret(Fix.M);
  promoteAndCheck(Fix.M, PromotionConfig::conservative(), Expected);
  EXPECT_EQ(countFlagged(Fix.M, SpecFlag::LdSA), 0u);
  EXPECT_EQ(countFlagged(Fix.M, SpecFlag::LdCnc), 0u);
}

//===----------------------------------------------------------------------===//
// Figure 2: partial redundancy under ifs — invala strategy
//===----------------------------------------------------------------------===//

TEST(PromoterTest, Fig2InvalaModeForNonDownSafeReuse) {
  // The Figure 2 diamond lives in a helper called 100 times. Inserting a
  // load on the first if's else edge would execute ~93 times to save ~13
  // reuses — unprofitable — so the pass must use the invala.e strategy:
  // ld.a at the first occurrence, checking load at the second, invala.e
  // at a dominating point.
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  Symbol *B2 = M.createGlobal("b", TypeKind::Int);
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  Symbol *I = M.createGlobal("i", TypeKind::Int);
  Symbol *Acc = M.createGlobal("acc", TypeKind::Int);
  IRBuilder B(M);

  Function *Work = B.startFunction("work");
  {
    BasicBlock *Then1 = B.createBlock("then1");
    BasicBlock *Join1 = B.createBlock("join1");
    BasicBlock *Then2 = B.createBlock("then2");
    BasicBlock *Join2 = B.createBlock("join2");
    unsigned TI = B.emitLoad(directRef(I));
    unsigned TM1 = B.emitAssign(Opcode::Rem, Operand::temp(TI),
                                Operand::constInt(16));
    unsigned TC1 = B.emitAssign(Opcode::CmpEq, Operand::temp(TM1),
                                Operand::constInt(0));
    B.setCondBr(Operand::temp(TC1), Then1, Join1);
    B.setBlock(Then1);
    unsigned T1 = B.emitLoad(directRef(A)); // first occurrence (rare)
    unsigned TAcc = B.emitLoad(directRef(Acc));
    unsigned TS1 = B.emitAssign(Opcode::Add, Operand::temp(TAcc),
                                Operand::temp(T1));
    B.emitStore(directRef(Acc), Operand::temp(TS1));
    B.setBr(Join1);
    B.setBlock(Join1);
    B.emitStore(indirectRef(P, TypeKind::Int), Operand::constInt(77));
    unsigned TI2 = B.emitLoad(directRef(I));
    unsigned TM2 = B.emitAssign(Opcode::Rem, Operand::temp(TI2),
                                Operand::constInt(8));
    unsigned TC2 = B.emitAssign(Opcode::CmpEq, Operand::temp(TM2),
                                Operand::constInt(0));
    B.setCondBr(Operand::temp(TC2), Then2, Join2);
    B.setBlock(Then2);
    unsigned T2 = B.emitLoad(directRef(A)); // partially redundant (rare)
    unsigned TAcc2 = B.emitLoad(directRef(Acc));
    unsigned TS2 = B.emitAssign(Opcode::Add, Operand::temp(TAcc2),
                                Operand::temp(T2));
    B.emitStore(directRef(Acc), Operand::temp(TS2));
    B.setBr(Join2);
    B.setBlock(Join2);
    B.setRet();
  }

  B.startFunction("main");
  {
    BasicBlock *Hdr = B.createBlock("hdr");
    BasicBlock *Body = B.createBlock("body");
    BasicBlock *Exit = B.createBlock("exit");
    unsigned TA = B.emitAddrOf(A);
    unsigned TB = B.emitAddrOf(B2);
    B.emitStore(directRef(P), Operand::temp(TA));
    B.emitStore(directRef(P), Operand::temp(TB)); // runtime p=&b
    B.emitStore(directRef(I), Operand::constInt(0));
    B.setBr(Hdr);
    B.setBlock(Hdr);
    unsigned TI = B.emitLoad(directRef(I));
    unsigned TCmp = B.emitAssign(Opcode::CmpLt, Operand::temp(TI),
                                 Operand::constInt(100));
    B.setCondBr(Operand::temp(TCmp), Body, Exit);
    B.setBlock(Body);
    B.emitCall(Work, {});
    unsigned TI2 = B.emitLoad(directRef(I));
    unsigned TInc = B.emitAssign(Opcode::Add, Operand::temp(TI2),
                                 Operand::constInt(1));
    B.emitStore(directRef(I), Operand::temp(TInc));
    B.setBr(Hdr);
    B.setBlock(Exit);
    unsigned TOut = B.emitLoad(directRef(Acc));
    B.emitPrint(Operand::temp(TOut));
    B.setRet();
  }

  RunResult Expected = interpret(M);
  ASSERT_EQ(Expected.Output.size(), 1u);
  PromotionStats Stats =
      promoteAndCheck(M, PromotionConfig::alat(), Expected);
  EXPECT_GE(Stats.InvalaModeLoads, 1u);
  EXPECT_GE(Stats.InvalaInserted, 1u);
  EXPECT_GE(countStmts(M, [](const Stmt &S) {
              return S.Kind == StmtKind::Invala;
            }),
            1u);
  EXPECT_GE(countFlagged(M, SpecFlag::LdA), 1u)
      << "the first occurrence must allocate the ALAT entry";
}

//===----------------------------------------------------------------------===//
// Cascade (Figure 4): *p with p itself possibly modified
//===----------------------------------------------------------------------===//

struct Fig4 {
  Module M;
  Symbol *A, *B2, *P, *Q;

  Fig4() {
    A = M.createGlobal("a", TypeKind::Int);
    B2 = M.createGlobal("b", TypeKind::Int);
    P = M.createGlobal("p", TypeKind::Int);
    Q = M.createGlobal("q", TypeKind::Int);
    IRBuilder B(M);
    B.startFunction("main");
    unsigned TA = B.emitAddrOf(A);
    unsigned TP = B.emitAddrOf(P);
    unsigned TB = B.emitAddrOf(B2);
    // Compiler: q may point to p or b => *q may modify p (the address).
    B.emitStore(directRef(Q), Operand::temp(TP));
    B.emitStore(directRef(Q), Operand::temp(TB)); // runtime: q = &b
    B.emitStore(directRef(P), Operand::temp(TA));
    B.emitStore(directRef(A), Operand::constInt(11));
    unsigned T1 = B.emitLoad(indirectRef(P, TypeKind::Int)); // = *p + 1
    unsigned U1 = B.emitAssign(Opcode::Add, Operand::temp(T1),
                               Operand::constInt(1));
    B.emitStore(indirectRef(Q, TypeKind::Int), Operand::constInt(1234));
    unsigned T2 = B.emitLoad(indirectRef(P, TypeKind::Int)); // = *p + 3
    unsigned U2 = B.emitAssign(Opcode::Add, Operand::temp(T2),
                               Operand::constInt(3));
    B.emitPrint(Operand::temp(U1));
    B.emitPrint(Operand::temp(U2));
    B.setRet();
  }
};

TEST(PromoterTest, Fig4NoCascadeWithoutFlag) {
  Fig4 Fix;
  RunResult Expected = interpret(Fix.M);
  ASSERT_EQ(Expected.Output[0], "12");
  ASSERT_EQ(Expected.Output[1], "14");
  PromotionConfig C = PromotionConfig::alat();
  C.EnableCascade = false;
  PromotionStats Stats = promoteAndCheck(Fix.M, C, Expected);
  EXPECT_EQ(Stats.CascadeChecks, 0u)
      << "cascade speculation must stay off (paper's implementation)";
  EXPECT_EQ(Stats.LoadsRemovedIndirect, 0u);
}

TEST(PromoterTest, Fig4CascadeUsesChkA) {
  Fig4 Fix;
  RunResult Expected = interpret(Fix.M);
  PromotionConfig C = PromotionConfig::alat();
  C.EnableCascade = true;
  PromotionStats Stats = promoteAndCheck(Fix.M, C, Expected);
  EXPECT_GE(Stats.LoadsRemovedIndirect, 1u);
  EXPECT_GE(Stats.CascadeChecks, 1u);
  EXPECT_GE(countFlagged(Fix.M, SpecFlag::ChkAnc), 1u);
}

/// Cascade mis-speculation: train path doesn't touch p, but the promoted
/// binary runs a path where *q overwrites p; chk.a must recover.
TEST(PromoterTest, CascadeMisSpeculationRecovers) {
  Module M;
  Symbol *Mode = M.createGlobal("mode", TypeKind::Int);
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  Symbol *B2 = M.createGlobal("b", TypeKind::Int);
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  Symbol *Q = M.createGlobal("q", TypeKind::Int);
  IRBuilder B(M);
  B.startFunction("main");
  BasicBlock *QToB = B.createBlock("q_to_b");
  BasicBlock *QToP = B.createBlock("q_to_p");
  BasicBlock *Body = B.createBlock("body");
  unsigned TMode = B.emitLoad(directRef(Mode));
  B.setCondBr(Operand::temp(TMode), QToP, QToB);
  B.setBlock(QToB);
  unsigned TB = B.emitAddrOf(B2);
  B.emitStore(directRef(Q), Operand::temp(TB));
  B.setBr(Body);
  B.setBlock(QToP);
  unsigned TP = B.emitAddrOf(P);
  B.emitStore(directRef(Q), Operand::temp(TP));
  B.setBr(Body);
  B.setBlock(Body);
  unsigned TA = B.emitAddrOf(A);
  B.emitStore(directRef(P), Operand::temp(TA));
  B.emitStore(directRef(A), Operand::constInt(50));
  B.emitStore(directRef(B2), Operand::constInt(60));
  unsigned T1 = B.emitLoad(indirectRef(P, TypeKind::Int));
  // *q = &b: if q==&p this redirects p to b!
  unsigned TB2 = B.emitAddrOf(B2);
  B.emitStore(indirectRef(Q, TypeKind::Int), Operand::temp(TB2));
  unsigned T2 = B.emitLoad(indirectRef(P, TypeKind::Int));
  B.emitPrint(Operand::temp(T1));
  B.emitPrint(Operand::temp(T2));
  B.setRet();

  for (unsigned I = 0; I < M.numFunctions(); ++I)
    M.function(I)->recomputeCFG();
  AliasProfile AP;
  Interpreter Train(M);
  Train.setAliasProfile(&AP);
  ASSERT_TRUE(Train.run().Ok);

  alias::SteensgaardAnalysis AA(M);
  PromotionConfig C = PromotionConfig::alat();
  C.EnableCascade = true;
  promoteModule(M, AA, &AP, nullptr, C);
  ASSERT_TRUE(verifyModule(M).empty());

  // Flip to the colliding path.
  Function *Main = M.findFunction("main");
  Stmt SetMode;
  SetMode.Kind = StmtKind::Store;
  SetMode.Ref = directRef(Mode);
  SetMode.A = Operand::constInt(1);
  Main->entry()->insertBefore(0, SetMode);
  Main->recomputeCFG();

  RunResult After = interpret(M);
  ASSERT_TRUE(After.Ok) << After.Error;
  EXPECT_EQ(After.Output[0], "50");
  EXPECT_EQ(After.Output[1], "60")
      << "after *q redirects p to b, the reuse must see b";
}

//===----------------------------------------------------------------------===//
// Calls are barriers
//===----------------------------------------------------------------------===//

TEST(PromoterTest, CallBlocksPromotionOfGlobals) {
  Module M;
  Symbol *G = M.createGlobal("g", TypeKind::Int);
  IRBuilder B(M);
  Function *Callee = B.startFunction("bump");
  unsigned TG = B.emitLoad(directRef(G));
  unsigned TInc = B.emitAssign(Opcode::Add, Operand::temp(TG),
                               Operand::constInt(1));
  B.emitStore(directRef(G), Operand::temp(TInc));
  B.setRet();

  B.startFunction("main");
  B.emitStore(directRef(G), Operand::constInt(1));
  unsigned T1 = B.emitLoad(directRef(G));
  B.emitCall(Callee, {});
  unsigned T2 = B.emitLoad(directRef(G));
  B.emitPrint(Operand::temp(T1));
  B.emitPrint(Operand::temp(T2));
  B.setRet();

  RunResult Expected = interpret(M);
  ASSERT_EQ(Expected.Output[0], "1");
  ASSERT_EQ(Expected.Output[1], "2");
  promoteAndCheck(M, PromotionConfig::alat(), Expected);
}

//===----------------------------------------------------------------------===//
// Indexed references
//===----------------------------------------------------------------------===//

TEST(PromoterTest, ArrayElementReuseWithSymbolicIndex) {
  Module M;
  Symbol *Arr = M.createGlobal("arr", TypeKind::Int, 16);
  Symbol *Idx = M.createGlobal("idx", TypeKind::Int);
  IRBuilder B(M);
  B.startFunction("main");
  B.emitStore(directRef(Idx), Operand::constInt(3));
  B.emitStore(arrayRef(Arr, Operand::constInt(3)), Operand::constInt(30));
  unsigned TI = B.emitLoad(directRef(Idx));
  unsigned T1 = B.emitLoad(arrayRef(Arr, Operand::temp(TI)));
  unsigned T2 = B.emitLoad(arrayRef(Arr, Operand::temp(TI)));
  unsigned TS = B.emitAssign(Opcode::Add, Operand::temp(T1),
                             Operand::temp(T2));
  B.emitPrint(Operand::temp(TS));
  B.setRet();

  RunResult Expected = interpret(M);
  ASSERT_EQ(Expected.Output[0], "60");
  PromotionStats Stats =
      promoteAndCheck(M, PromotionConfig::conservative(), Expected);
  EXPECT_GE(Stats.LoadsRemovedDirect, 1u);
}

TEST(PromoterTest, ArrayStoreKillsOtherIndices) {
  Module M;
  Symbol *Arr = M.createGlobal("arr", TypeKind::Int, 16);
  Symbol *I = M.createGlobal("i", TypeKind::Int);
  Symbol *J = M.createGlobal("j", TypeKind::Int);
  IRBuilder B(M);
  B.startFunction("main");
  B.emitStore(directRef(I), Operand::constInt(2));
  B.emitStore(directRef(J), Operand::constInt(2));
  unsigned TI = B.emitLoad(directRef(I));
  unsigned TJ = B.emitLoad(directRef(J));
  B.emitStore(arrayRef(Arr, Operand::temp(TI)), Operand::constInt(5));
  unsigned T1 = B.emitLoad(arrayRef(Arr, Operand::temp(TI)));
  // A store through a different index expression: must kill the reuse
  // conservatively (same array), unless checked.
  B.emitStore(arrayRef(Arr, Operand::temp(TJ)), Operand::constInt(9));
  unsigned T2 = B.emitLoad(arrayRef(Arr, Operand::temp(TI)));
  B.emitPrint(Operand::temp(T1));
  B.emitPrint(Operand::temp(T2));
  B.setRet();

  RunResult Expected = interpret(M);
  ASSERT_EQ(Expected.Output[0], "5");
  ASSERT_EQ(Expected.Output[1], "9") << "i == j at run time: collision";
  // Under ALAT the profile sees the collision (real χ), so the reuse is
  // handled by software forwarding or not promoted — output must hold.
  promoteAndCheck(M, PromotionConfig::alat(), Expected);
}

//===----------------------------------------------------------------------===//
// Software strategy alone (baseline O3)
//===----------------------------------------------------------------------===//

TEST(PromoterTest, SoftwareForwardingWithoutProfile) {
  Fig1a Fix;
  RunResult Expected = interpret(Fix.M);
  // No profile at all: software checks still work (they are not
  // speculative — the compare catches both outcomes).
  PromotionConfig C = PromotionConfig::baselineO3();
  C.SoftwareCheckIntExprs = true;
  PromotionStats Stats =
      promoteAndCheck(Fix.M, C, Expected, /*UseProfile=*/false);
  EXPECT_GE(Stats.SoftwareChecks, 1u);
  EXPECT_GE(Stats.LoadsRemovedDirect, 1u);
  EXPECT_EQ(Stats.ChecksInserted, 0u) << "no ALAT in the baseline";
}

TEST(PromoterTest, SoftwareMaxChecksLimit) {
  // Four aliasing stores between def and reuse: beyond the default limit
  // of 2, promotion must decline.
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  Symbol *B2 = M.createGlobal("b", TypeKind::Int);
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  IRBuilder B(M);
  B.startFunction("main");
  unsigned TA = B.emitAddrOf(A);
  unsigned TB = B.emitAddrOf(B2);
  B.emitStore(directRef(P), Operand::temp(TA));
  B.emitStore(directRef(P), Operand::temp(TB));
  B.emitStore(directRef(A), Operand::constInt(5));
  unsigned T1 = B.emitLoad(directRef(A));
  for (int I = 0; I < 4; ++I)
    B.emitStore(indirectRef(P, TypeKind::Int), Operand::constInt(I));
  unsigned T2 = B.emitLoad(directRef(A));
  B.emitPrint(Operand::temp(T1));
  B.emitPrint(Operand::temp(T2));
  B.setRet();

  RunResult Expected = interpret(M);
  PromotionConfig C = PromotionConfig::baselineO3();
  C.SoftwareCheckIntExprs = true;
  PromotionStats Stats =
      promoteAndCheck(M, C, Expected, /*UseProfile=*/false);
  EXPECT_EQ(Stats.SoftwareChecks, 0u);
}

//===----------------------------------------------------------------------===//
// Configuration corners
//===----------------------------------------------------------------------===//

TEST(PromoterTest, CheckCleanupRemovesUnreachedChecks) {
  // A speculated store sits on a path that never reaches the promoted
  // reuse; its check must be cleaned up (no use can observe it).
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  Symbol *B2 = M.createGlobal("b", TypeKind::Int);
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  Symbol *C1 = M.createGlobal("c1", TypeKind::Int);
  IRBuilder B(M);
  B.startFunction("main");
  BasicBlock *Hot = B.createBlock("hot");
  BasicBlock *Cold = B.createBlock("cold");
  BasicBlock *Done = B.createBlock("done");
  unsigned TA = B.emitAddrOf(A);
  unsigned TB = B.emitAddrOf(B2);
  B.emitStore(directRef(P), Operand::temp(TA));
  B.emitStore(directRef(P), Operand::temp(TB));
  B.emitStore(directRef(A), Operand::constInt(4));
  unsigned TC = B.emitLoad(directRef(C1)); // 0 -> cold branch untaken
  B.setCondBr(Operand::temp(TC), Cold, Hot);
  B.setBlock(Hot);
  unsigned T1 = B.emitLoad(directRef(A));
  B.emitStore(indirectRef(P, TypeKind::Int), Operand::constInt(7));
  unsigned T2 = B.emitLoad(directRef(A));
  unsigned TS = B.emitAssign(Opcode::Add, Operand::temp(T1),
                             Operand::temp(T2));
  B.emitPrint(Operand::temp(TS));
  B.setBr(Done);
  B.setBlock(Cold);
  // A store the reuse never follows: any check placed here would be
  // dead (no def of the promoted temp reaches it on this path).
  B.emitStore(indirectRef(P, TypeKind::Int), Operand::constInt(8));
  B.setBr(Done);
  B.setBlock(Done);
  B.setRet();

  RunResult Expected = interpret(M);
  PromotionStats Stats =
      promoteAndCheck(M, PromotionConfig::alat(), Expected);
  EXPECT_GE(Stats.LoadsRemovedDirect, 1u);
  // Either the cold check was never planned (it is not on any reuse's
  // collapse chain) or it was cleaned; either way none survives there.
  const Function *F = M.function(0);
  for (unsigned BI = 0; BI < F->numBlocks(); ++BI) {
    const BasicBlock *BB = F->block(BI);
    if (BB->getName() != "cold")
      continue;
    for (size_t SI = 0; SI < BB->size(); ++SI)
      EXPECT_FALSE(BB->stmt(SI)->isLoad() &&
                   isCheckFlag(BB->stmt(SI)->Flag))
          << "dead check survived on the cold path";
  }
}

TEST(PromoterTest, ConservativeNeverAddsSpeculationMachinery) {
  // Property over a handful of workload-like builds: conservative output
  // contains no flags, no st.a, no invala, no checks at all.
  Fig3 Fix;
  RunResult Expected = interpret(Fix.M);
  promoteAndCheck(Fix.M, PromotionConfig::conservative(), Expected);
  EXPECT_EQ(countStmts(Fix.M, [](const Stmt &S) {
              return S.Flag != SpecFlag::None || S.StA ||
                     S.Kind == StmtKind::Invala;
            }),
            0u);
}

//===----------------------------------------------------------------------===//
// Float expressions
//===----------------------------------------------------------------------===//

TEST(PromoterTest, FloatLoadPromotion) {
  Module M;
  Symbol *X = M.createGlobal("x", TypeKind::Float);
  Symbol *B2 = M.createGlobal("b", TypeKind::Float);
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  IRBuilder B(M);
  B.startFunction("main");
  unsigned TX = B.emitAddrOf(X);
  unsigned TB = B.emitAddrOf(B2);
  B.emitStore(directRef(P), Operand::temp(TX));
  B.emitStore(directRef(P), Operand::temp(TB)); // runtime p=&b
  B.emitStore(directRef(X), Operand::constFloat(1.5));
  unsigned T1 = B.emitLoad(directRef(X));
  MemRef StarP = indirectRef(P, TypeKind::Float);
  B.emitStore(StarP, Operand::constFloat(9.0));
  unsigned T2 = B.emitLoad(directRef(X));
  unsigned TS = B.emitAssign(Opcode::FAdd, Operand::temp(T1),
                             Operand::temp(T2));
  B.emitPrint(Operand::temp(TS));
  B.setRet();

  RunResult Expected = interpret(M);
  ASSERT_EQ(Expected.Output[0], "3");
  PromotionStats Stats =
      promoteAndCheck(M, PromotionConfig::alat(), Expected);
  EXPECT_GE(Stats.LoadsRemovedDirect, 1u);
}

} // namespace
