//===- SSATest.cpp - Tests for dominators, loops and HSSA --------*- C++ -*-===//

#include "ssa/Dominators.h"
#include "ssa/HSSA.h"

#include "alias/AliasAnalysis.h"
#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace srp;
using namespace srp::ir;
using namespace srp::ssa;

namespace {

/// Diamond CFG: entry -> {left, right} -> join.
struct Diamond {
  Module M;
  Function *F;
  BasicBlock *Entry, *Left, *Right, *Join;

  Diamond() {
    IRBuilder B(M);
    F = B.startFunction("main");
    Entry = B.block();
    Left = B.createBlock("left");
    Right = B.createBlock("right");
    Join = B.createBlock("join");
    B.setCondBr(Operand::constInt(1), Left, Right);
    B.setBlock(Left);
    B.setBr(Join);
    B.setBlock(Right);
    B.setBr(Join);
    B.setBlock(Join);
    B.setRet();
    F->recomputeCFG();
  }
};

TEST(DominatorTest, DiamondIdoms) {
  Diamond D;
  DominatorTree DT(*D.F);
  EXPECT_EQ(DT.idom(D.Entry), nullptr);
  EXPECT_EQ(DT.idom(D.Left), D.Entry);
  EXPECT_EQ(DT.idom(D.Right), D.Entry);
  EXPECT_EQ(DT.idom(D.Join), D.Entry);
  EXPECT_TRUE(DT.dominates(D.Entry, D.Join));
  EXPECT_TRUE(DT.dominates(D.Join, D.Join));
  EXPECT_FALSE(DT.dominates(D.Left, D.Join));
}

TEST(DominatorTest, DiamondFrontiers) {
  Diamond D;
  DominatorTree DT(*D.F);
  ASSERT_EQ(DT.frontier(D.Left).size(), 1u);
  EXPECT_EQ(DT.frontier(D.Left)[0], D.Join);
  ASSERT_EQ(DT.frontier(D.Right).size(), 1u);
  EXPECT_TRUE(DT.frontier(D.Entry).empty());
  EXPECT_TRUE(DT.frontier(D.Join).empty());
}

TEST(DominatorTest, IteratedFrontier) {
  Diamond D;
  DominatorTree DT(*D.F);
  auto IDF = DT.iteratedFrontier({D.Left});
  ASSERT_EQ(IDF.size(), 1u);
  EXPECT_EQ(IDF[0], D.Join);
}

TEST(DominatorTest, RpoStartsAtEntry) {
  Diamond D;
  DominatorTree DT(*D.F);
  ASSERT_EQ(DT.rpo().size(), 4u);
  EXPECT_EQ(DT.rpo().front(), D.Entry);
  EXPECT_EQ(DT.rpo().back(), D.Join);
}

TEST(DominatorTest, UnreachableBlockDetected) {
  Module M;
  IRBuilder B(M);
  Function *F = B.startFunction("main");
  BasicBlock *Dead = B.createBlock("dead");
  B.setRet();
  B.setBlock(Dead);
  B.setRet();
  F->recomputeCFG();
  DominatorTree DT(*F);
  EXPECT_TRUE(DT.isReachable(F->entry()));
  EXPECT_FALSE(DT.isReachable(Dead));
}

/// Simple while loop: entry -> hdr; hdr -> {body, exit}; body -> hdr.
struct SimpleLoop {
  Module M;
  Function *F;
  BasicBlock *Entry, *Hdr, *Body, *Exit;
  Symbol *I;

  SimpleLoop() {
    I = M.createGlobal("i", TypeKind::Int);
    IRBuilder B(M);
    F = B.startFunction("main");
    Entry = B.block();
    Hdr = B.createBlock("hdr");
    Body = B.createBlock("body");
    Exit = B.createBlock("exit");
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
    F->recomputeCFG();
  }
};

TEST(LoopInfoTest, FindsNaturalLoop) {
  SimpleLoop L;
  DominatorTree DT(*L.F);
  LoopInfo LI(DT);
  ASSERT_EQ(LI.loops().size(), 1u);
  const LoopInfo::Loop *Loop = LI.loopFor(L.Body);
  ASSERT_NE(Loop, nullptr);
  EXPECT_EQ(Loop->Header, L.Hdr);
  EXPECT_EQ(Loop->Depth, 1u);
  EXPECT_TRUE(Loop->contains(L.Hdr));
  EXPECT_TRUE(Loop->contains(L.Body));
  EXPECT_FALSE(Loop->contains(L.Exit));
  EXPECT_EQ(LI.loopFor(L.Exit), nullptr);
  EXPECT_EQ(LI.preheader(*Loop), L.Entry);
}

TEST(LoopInfoTest, NestedLoopDepths) {
  Module M;
  IRBuilder B(M);
  Function *F = B.startFunction("main");
  BasicBlock *OuterHdr = B.createBlock("outer");
  BasicBlock *InnerHdr = B.createBlock("inner");
  BasicBlock *InnerBody = B.createBlock("ibody");
  BasicBlock *OuterLatch = B.createBlock("olatch");
  BasicBlock *Exit = B.createBlock("exit");
  B.setBr(OuterHdr);
  B.setBlock(OuterHdr);
  B.setBr(InnerHdr);
  B.setBlock(InnerHdr);
  B.setCondBr(Operand::constInt(1), InnerBody, OuterLatch);
  B.setBlock(InnerBody);
  B.setBr(InnerHdr);
  B.setBlock(OuterLatch);
  B.setCondBr(Operand::constInt(1), OuterHdr, Exit);
  B.setBlock(Exit);
  B.setRet();
  F->recomputeCFG();

  DominatorTree DT(*F);
  LoopInfo LI(DT);
  ASSERT_EQ(LI.loops().size(), 2u);
  const LoopInfo::Loop *Inner = LI.loopFor(InnerBody);
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(Inner->Header, InnerHdr);
  EXPECT_EQ(Inner->Depth, 2u);
  ASSERT_NE(Inner->Parent, nullptr);
  EXPECT_EQ(Inner->Parent->Header, OuterHdr);
}

//===----------------------------------------------------------------------===//
// HSSA
//===----------------------------------------------------------------------===//

/// Fixture: a = ...; *p = ...; ... = a, with p possibly pointing to a.
/// This is exactly Figure 6's shape.
struct Fig6 {
  Module M;
  Function *F = nullptr;
  Symbol *A, *B2, *P;
  Stmt *StoreA = nullptr, *StoreStarP = nullptr;
  Stmt *Load1 = nullptr, *Load2 = nullptr;

  /// \p PointeeOfP decides which symbol p actually holds at run time.
  explicit Fig6(bool PToA) {
    A = M.createGlobal("a", TypeKind::Int);
    B2 = M.createGlobal("b", TypeKind::Int);
    P = M.createGlobal("p", TypeKind::Int);
    IRBuilder B(M);
    F = B.startFunction("main");
    // p = &a or &b (compiler sees both: store both, overwrite).
    unsigned TA = B.emitAddrOf(A);
    unsigned TB = B.emitAddrOf(B2);
    B.emitStore(directRef(P), Operand::temp(TA));
    B.emitStore(directRef(P), Operand::temp(TB));
    if (PToA)
      B.emitStore(directRef(P), Operand::temp(TA));
    else
      B.emitStore(directRef(P), Operand::temp(TB));
    // a = 5
    Stmt SA;
    SA.Kind = StmtKind::Store;
    SA.Ref = directRef(A);
    SA.A = Operand::constInt(5);
    StoreA = B.block()->append(SA);
    // t1 = a  (first occurrence)
    unsigned T1 = B.emitLoad(directRef(A));
    Load1 = B.block()->stmt(B.block()->size() - 1);
    // *p = 7
    Stmt SP;
    SP.Kind = StmtKind::Store;
    SP.Ref = indirectRef(P, TypeKind::Int);
    SP.A = Operand::constInt(7);
    StoreStarP = B.block()->append(SP);
    // t2 = a  (second occurrence)
    unsigned T2 = B.emitLoad(directRef(A));
    Load2 = B.block()->stmt(B.block()->size() - 1);
    B.emitPrint(Operand::temp(T1));
    B.emitPrint(Operand::temp(T2));
    B.setRet();
    F->recomputeCFG();
  }
};

TEST(HSSATest, ChiInsertedForMayAliasedStore) {
  Fig6 Fix(/*PToA=*/true);
  DominatorTree DT(*Fix.F);
  alias::SteensgaardAnalysis AA(Fix.M);
  HSSA H(*Fix.F, DT, AA, /*Profile=*/nullptr);

  // The indirect store must carry χs on a and b (may-pointees).
  const auto &ChiIdx = H.chiIndicesOf(Fix.StoreStarP);
  ObjectId ObjA = H.symbolObject(Fix.A);
  ObjectId ObjB = H.symbolObject(Fix.B2);
  ASSERT_NE(ObjA, InvalidObject);
  bool SawA = false, SawB = false;
  for (unsigned I : ChiIdx) {
    const ChiRecord &Chi = H.chi(I);
    SawA |= Chi.Obj == ObjA;
    SawB |= Chi.Obj == ObjB;
    EXPECT_FALSE(Chi.Spec) << "no profile: every chi is real";
  }
  EXPECT_TRUE(SawA);
  EXPECT_TRUE(SawB);
}

TEST(HSSATest, VersionsChangeAcrossAliasedStore) {
  Fig6 Fix(/*PToA=*/true);
  DominatorTree DT(*Fix.F);
  alias::SteensgaardAnalysis AA(Fix.M);
  HSSA H(*Fix.F, DT, AA, nullptr);

  const StmtAccess *Acc1 = H.accessInfo(Fix.Load1);
  const StmtAccess *Acc2 = H.accessInfo(Fix.Load2);
  ASSERT_NE(Acc1, nullptr);
  ASSERT_NE(Acc2, nullptr);
  // Without a profile the two loads of `a` see different versions
  // (killed by the χ at *p = ...).
  EXPECT_NE(Acc1->dataVer(), Acc2->dataVer());
  // And canonicalization must not collapse them.
  ObjectId ObjA = H.symbolObject(Fix.A);
  EXPECT_NE(H.specCanonicalVersion(ObjA, Acc1->dataVer()),
            H.specCanonicalVersion(ObjA, Acc2->dataVer()));
}

/// Runs the train input through the interpreter to collect the profile.
interp::AliasProfile profileOf(Module &M) {
  interp::AliasProfile AP;
  interp::Interpreter I(M);
  I.setAliasProfile(&AP);
  auto R = I.run();
  EXPECT_TRUE(R.Ok) << R.Error;
  return AP;
}

TEST(HSSATest, SpeculativeChiWhenProfileDisagrees) {
  // At run time p points to b, so the χ on a at `*p = ...` is marked
  // speculative and the two loads of `a` become speculatively identical
  // (Figure 6(b)).
  Fig6 Fix(/*PToA=*/false);
  interp::AliasProfile AP = profileOf(Fix.M);
  DominatorTree DT(*Fix.F);
  alias::SteensgaardAnalysis AA(Fix.M);
  HSSA H(*Fix.F, DT, AA, &AP);

  ObjectId ObjA = H.symbolObject(Fix.A);
  ObjectId ObjB = H.symbolObject(Fix.B2);
  bool FoundSpecA = false;
  for (unsigned I : H.chiIndicesOf(Fix.StoreStarP)) {
    const ChiRecord &Chi = H.chi(I);
    if (Chi.Obj == ObjA) {
      EXPECT_TRUE(Chi.Spec);
      FoundSpecA = true;
    }
    if (Chi.Obj == ObjB) {
      EXPECT_FALSE(Chi.Spec) << "b was actually written";
    }
  }
  EXPECT_TRUE(FoundSpecA);

  const StmtAccess *Acc1 = H.accessInfo(Fix.Load1);
  const StmtAccess *Acc2 = H.accessInfo(Fix.Load2);
  EXPECT_NE(Acc1->dataVer(), Acc2->dataVer());
  EXPECT_EQ(H.specCanonicalVersion(ObjA, Acc1->dataVer()),
            H.specCanonicalVersion(ObjA, Acc2->dataVer()));
}

TEST(HSSATest, SpeculatedChisListsIgnoredStores) {
  Fig6 Fix(/*PToA=*/false);
  interp::AliasProfile AP = profileOf(Fix.M);
  DominatorTree DT(*Fix.F);
  alias::SteensgaardAnalysis AA(Fix.M);
  HSSA H(*Fix.F, DT, AA, &AP);

  ObjectId ObjA = H.symbolObject(Fix.A);
  const StmtAccess *Acc2 = H.accessInfo(Fix.Load2);
  unsigned Canon = H.specCanonicalVersion(ObjA, Acc2->dataVer());
  auto Spec = H.speculatedChis(ObjA, Canon);
  ASSERT_EQ(Spec.size(), 1u);
  EXPECT_EQ(Spec[0]->S, Fix.StoreStarP);
}

TEST(HSSATest, StoreDefinesNewVersionUsedByLoad) {
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  IRBuilder B(M);
  Function *F = B.startFunction("main");
  Stmt SA;
  SA.Kind = StmtKind::Store;
  SA.Ref = directRef(A);
  SA.A = Operand::constInt(1);
  Stmt *Store = B.block()->append(SA);
  unsigned T = B.emitLoad(directRef(A));
  (void)T;
  Stmt *Load = B.block()->stmt(1);
  B.setRet();
  F->recomputeCFG();

  DominatorTree DT(*F);
  alias::SteensgaardAnalysis AA(M);
  HSSA H(*F, DT, AA, nullptr);
  const StmtAccess *SAcc = H.accessInfo(Store);
  const StmtAccess *LAcc = H.accessInfo(Load);
  ASSERT_NE(SAcc, nullptr);
  ASSERT_NE(LAcc, nullptr);
  EXPECT_EQ(SAcc->DefVer, LAcc->dataVer());
  EXPECT_NE(SAcc->dataVer(), SAcc->DefVer);
}

TEST(HSSATest, PhiInsertedAtJoinForStoredSymbol) {
  // Store to a on one side of a diamond only: join needs a φ.
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  IRBuilder B(M);
  Function *F = B.startFunction("main");
  BasicBlock *Left = B.createBlock("left");
  BasicBlock *Right = B.createBlock("right");
  BasicBlock *Join = B.createBlock("join");
  B.setCondBr(Operand::constInt(1), Left, Right);
  B.setBlock(Left);
  B.emitStore(directRef(A), Operand::constInt(1));
  B.setBr(Join);
  B.setBlock(Right);
  B.setBr(Join);
  B.setBlock(Join);
  unsigned T = B.emitLoad(directRef(A));
  (void)T;
  B.setRet();
  F->recomputeCFG();

  DominatorTree DT(*F);
  alias::SteensgaardAnalysis AA(M);
  HSSA H(*F, DT, AA, nullptr);
  ObjectId ObjA = H.symbolObject(A);
  const auto &Phis = H.phisOf(Join);
  bool Found = false;
  for (const PhiRecord &Phi : Phis) {
    if (Phi.Obj != ObjA)
      continue;
    Found = true;
    ASSERT_EQ(Phi.Args.size(), 2u);
    EXPECT_NE(Phi.Args[0], Phi.Args[1]);
    // The φ merges two really-different versions: canonical is itself.
    EXPECT_EQ(H.specCanonicalVersion(ObjA, Phi.DefVer), Phi.DefVer);
  }
  EXPECT_TRUE(Found);
}

TEST(HSSATest, CallClobbersGlobalsNonSpeculatively) {
  Module M;
  Symbol *G = M.createGlobal("g", TypeKind::Int);
  IRBuilder B(M);
  Function *Callee = B.startFunction("callee");
  B.emitStore(directRef(G), Operand::constInt(1));
  B.setRet();
  Function *F = B.startFunction("main");
  unsigned T1 = B.emitLoad(directRef(G));
  Stmt *Call = nullptr;
  {
    Stmt SC;
    SC.Kind = StmtKind::Call;
    SC.Callee = Callee;
    Call = B.block()->append(SC);
  }
  unsigned T2 = B.emitLoad(directRef(G));
  B.emitPrint(Operand::temp(T1));
  B.emitPrint(Operand::temp(T2));
  B.setRet();
  F->recomputeCFG();

  interp::AliasProfile AP = profileOf(M);
  DominatorTree DT(*F);
  alias::SteensgaardAnalysis AA(M);
  HSSA H(*F, DT, AA, &AP);
  ObjectId ObjG = H.symbolObject(G);
  bool Found = false;
  for (unsigned I : H.chiIndicesOf(Call)) {
    if (H.chi(I).Obj == ObjG) {
      Found = true;
      EXPECT_FALSE(H.chi(I).Spec) << "call chis are never speculative";
    }
  }
  EXPECT_TRUE(Found);
}

TEST(HSSATest, LoopPhiCollapsesUnderSpeculation) {
  // while (...) { *q = ...; t = *p + 1 }  where p and q never actually
  // alias: the loop-header φ of v(*p) must collapse to the preheader
  // version (Figure 3's enabling condition).
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  Symbol *C = M.createGlobal("c", TypeKind::Int);
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  Symbol *Q = M.createGlobal("q", TypeKind::Int);
  Symbol *I = M.createGlobal("i", TypeKind::Int);
  IRBuilder B(M);
  Function *F = B.startFunction("main");
  BasicBlock *Hdr = B.createBlock("hdr");
  BasicBlock *Body = B.createBlock("body");
  BasicBlock *Exit = B.createBlock("exit");
  // Compiler must think p,q can alias: both get &a and &c.
  unsigned TA = B.emitAddrOf(A);
  unsigned TC = B.emitAddrOf(C);
  B.emitStore(directRef(P), Operand::temp(TA));
  B.emitStore(directRef(Q), Operand::temp(TC));
  B.emitStore(directRef(P), Operand::temp(TA)); // runtime: p=&a
  B.emitStore(directRef(Q), Operand::temp(TC)); // runtime: q=&c
  B.emitStore(directRef(I), Operand::constInt(0));
  B.setBr(Hdr);
  B.setBlock(Hdr);
  unsigned TI = B.emitLoad(directRef(I));
  unsigned TCmp = B.emitAssign(Opcode::CmpLt, Operand::temp(TI),
                               Operand::constInt(4));
  B.setCondBr(Operand::temp(TCmp), Body, Exit);
  B.setBlock(Body);
  B.emitStore(indirectRef(Q, TypeKind::Int), Operand::temp(TI));
  unsigned TP = B.emitLoad(indirectRef(P, TypeKind::Int));
  Stmt *LoadStarP = B.block()->stmt(B.block()->size() - 1);
  unsigned TAdd = B.emitAssign(Opcode::Add, Operand::temp(TP),
                               Operand::constInt(1));
  B.emitStore(directRef(A), Operand::temp(TAdd)); // feeds *p next iter
  unsigned TInc = B.emitAssign(Opcode::Add, Operand::temp(TI),
                               Operand::constInt(1));
  B.emitStore(directRef(I), Operand::temp(TInc));
  B.setBr(Hdr);
  B.setBlock(Exit);
  B.setRet();
  F->recomputeCFG();

  // Note: a IS written in the loop (feeds *p), so v(*p) has a real χ from
  // the direct store to a; only the *q store's χ is speculative. The φ
  // therefore does NOT collapse here. Rebuild without the store to a:
  // simpler scenario below.
  Module M2;
  Symbol *A2 = M2.createGlobal("a", TypeKind::Int);
  Symbol *C2 = M2.createGlobal("c", TypeKind::Int);
  Symbol *P2 = M2.createGlobal("p", TypeKind::Int);
  Symbol *Q2 = M2.createGlobal("q", TypeKind::Int);
  Symbol *I2 = M2.createGlobal("i", TypeKind::Int);
  IRBuilder B2(M2);
  Function *F2 = B2.startFunction("main");
  BasicBlock *Hdr2 = B2.createBlock("hdr");
  BasicBlock *Body2 = B2.createBlock("body");
  BasicBlock *Exit2 = B2.createBlock("exit");
  unsigned TA2 = B2.emitAddrOf(A2);
  unsigned TC2 = B2.emitAddrOf(C2);
  // Static ambiguity: both pointers see both addresses...
  B2.emitStore(directRef(P2), Operand::temp(TC2));
  B2.emitStore(directRef(Q2), Operand::temp(TA2));
  // ...but at run time p = &a and q = &c, so they never collide.
  B2.emitStore(directRef(P2), Operand::temp(TA2));
  B2.emitStore(directRef(Q2), Operand::temp(TC2));
  B2.emitStore(directRef(I2), Operand::constInt(0));
  B2.setBr(Hdr2);
  B2.setBlock(Hdr2);
  unsigned TI2 = B2.emitLoad(directRef(I2));
  unsigned TCmp2 = B2.emitAssign(Opcode::CmpLt, Operand::temp(TI2),
                                 Operand::constInt(4));
  B2.setCondBr(Operand::temp(TCmp2), Body2, Exit2);
  B2.setBlock(Body2);
  B2.emitStore(indirectRef(Q2, TypeKind::Int), Operand::temp(TI2));
  unsigned TP2 = B2.emitLoad(indirectRef(P2, TypeKind::Int));
  Stmt *LoadStarP2 = B2.block()->stmt(B2.block()->size() - 1);
  B2.emitPrint(Operand::temp(TP2));
  unsigned TInc2 = B2.emitAssign(Opcode::Add, Operand::temp(TI2),
                                 Operand::constInt(1));
  B2.emitStore(directRef(I2), Operand::temp(TInc2));
  B2.setBr(Hdr2);
  B2.setBlock(Exit2);
  B2.setRet();
  F2->recomputeCFG();

  interp::AliasProfile AP = profileOf(M2);
  DominatorTree DT2(*F2);
  alias::SteensgaardAnalysis AA2(M2);
  HSSA H(*F2, DT2, AA2, &AP);

  const StmtAccess *Acc = H.accessInfo(LoadStarP2);
  ASSERT_NE(Acc, nullptr);
  ObjectId VV = Acc->dataObj();
  EXPECT_TRUE(H.object(VV).isVirtual());
  unsigned VerInLoop = Acc->dataVer();
  unsigned VerPrehdr = H.versionAtExit(F2->entry(), VV);
  EXPECT_NE(VerInLoop, VerPrehdr);
  EXPECT_EQ(H.specCanonicalVersion(VV, VerInLoop),
            H.specCanonicalVersion(VV, VerPrehdr));
  (void)LoadStarP;
  (void)F;
}

TEST(HSSATest, CanonicalMapPredicateControlsCollapse) {
  // The parameterizable collapse: with a collapse-nothing predicate the
  // map is the identity; with collapse-everything even real χs vanish.
  Fig6 Fix(/*PToA=*/false);
  interp::AliasProfile AP = profileOf(Fix.M);
  DominatorTree DT(*Fix.F);
  alias::SteensgaardAnalysis AA(Fix.M);
  HSSA H(*Fix.F, DT, AA, &AP);

  ObjectId ObjA = H.symbolObject(Fix.A);
  ObjectId ObjB = H.symbolObject(Fix.B2);
  const StmtAccess *Acc1 = H.accessInfo(Fix.Load1);
  const StmtAccess *Acc2 = H.accessInfo(Fix.Load2);

  auto None = H.canonicalMap([](const ChiRecord &) { return false; });
  for (ObjectId Obj = 0; Obj < H.numObjects(); ++Obj)
    for (unsigned V = 0; V < H.numVersions(Obj); ++V)
      if (H.origin(Obj, V).K != VersionOrigin::Kind::Phi) {
        EXPECT_EQ(None[Obj][V], V);
      }
  EXPECT_NE(None[ObjA][Acc1->dataVer()], None[ObjA][Acc2->dataVer()]);

  auto All = H.canonicalMap([](const ChiRecord &Chi) {
    return Chi.S && Chi.S->isStore();
  });
  EXPECT_EQ(All[ObjA][Acc1->dataVer()], All[ObjA][Acc2->dataVer()]);
  // b was really written, but writes through *p are store-χs on b too,
  // so the collapse-all map folds b's χ version as well.
  (void)ObjB;

  // The built-in speculative map must agree with an explicit Spec
  // predicate.
  auto Spec = H.canonicalMap(
      [](const ChiRecord &Chi) { return Chi.Spec; });
  for (ObjectId Obj = 0; Obj < H.numObjects(); ++Obj)
    for (unsigned V = 0; V < H.numVersions(Obj); ++V)
      EXPECT_EQ(Spec[Obj][V], H.specCanonicalVersion(Obj, V));
}

TEST(HSSATest, SpeculatedChisEmptyWithoutProfile) {
  Fig6 Fix(/*PToA=*/false);
  DominatorTree DT(*Fix.F);
  alias::SteensgaardAnalysis AA(Fix.M);
  HSSA H(*Fix.F, DT, AA, /*Profile=*/nullptr);
  ObjectId ObjA = H.symbolObject(Fix.A);
  for (unsigned V = 0; V < H.numVersions(ObjA); ++V)
    EXPECT_TRUE(H.speculatedChis(ObjA, V).empty())
        << "no profile means no speculative chis anywhere";
}

/// The tables are indexed by statement and block id as of the build: a
/// statement appended or a block split off afterwards is outside every
/// table and answers null or empty, never another statement's record.
TEST(HSSATest, TablesAnswerEmptyForIRAddedAfterBuild) {
  Fig6 Fix(/*PToA=*/true);
  DominatorTree DT(*Fix.F);
  alias::SteensgaardAnalysis AA(Fix.M);
  HSSA H(*Fix.F, DT, AA, nullptr);
  ObjectTable Objs(*Fix.F, AA);
  ASSERT_NE(H.accessInfo(Fix.Load2), nullptr);
  ASSERT_FALSE(H.chiIndicesOf(Fix.StoreStarP).empty());

  // Append a load and a may-aliasing store to the entry block, and split
  // a new block off its end (entry -> split -> ret).
  BasicBlock *Entry = Fix.F->entry();
  Stmt L;
  L.Kind = StmtKind::Load;
  L.Dst = Fix.F->createTemp(TypeKind::Int);
  L.Ref = directRef(Fix.A);
  Stmt *NewLoad = Entry->append(L);
  Stmt St;
  St.Kind = StmtKind::Store;
  St.Ref = indirectRef(Fix.P, TypeKind::Int);
  St.A = Operand::constInt(3);
  Stmt *NewStore = Entry->append(St);
  BasicBlock *Split = Fix.F->createBlock("split");
  Split->term() = Entry->term();
  Entry->term() = Terminator();
  Entry->term().Kind = TermKind::Br;
  Entry->term().Target = Split;
  Fix.F->recomputeCFG();

  EXPECT_EQ(H.accessInfo(NewLoad), nullptr);
  EXPECT_EQ(H.accessInfo(NewStore), nullptr);
  EXPECT_TRUE(H.musOf(NewLoad).empty());
  EXPECT_TRUE(H.chiIndicesOf(NewStore).empty());
  EXPECT_TRUE(H.phisOf(Split).empty());
  EXPECT_EQ(Objs.levelsOf(NewLoad), nullptr);
  EXPECT_EQ(Objs.levelsOf(NewStore), nullptr);
  // Records made at build time are untouched.
  EXPECT_NE(H.accessInfo(Fix.Load2), nullptr);
  EXPECT_FALSE(H.chiIndicesOf(Fix.StoreStarP).empty());
  EXPECT_NE(Objs.levelsOf(Fix.Load1), nullptr);
}

/// Loads and stores in blocks the entry cannot reach get no access info
/// (they are never renamed), though the object table still lists their
/// level objects.
TEST(HSSATest, UnreachableAccessHasNoAccessInfo) {
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  IRBuilder B(M);
  Function *F = B.startFunction("main");
  B.setRet();
  BasicBlock *Dead = B.createBlock("dead");
  B.setBlock(Dead);
  B.emitLoad(directRef(A));
  Stmt *Load = Dead->stmt(0);
  B.setRet();
  F->recomputeCFG();

  DominatorTree DT(*F);
  alias::SteensgaardAnalysis AA(M);
  HSSA H(*F, DT, AA, nullptr);
  EXPECT_EQ(H.accessInfo(Load), nullptr);
  ObjectTable Objs(*F, AA);
  const LevelArray<ObjectId> *Levels = Objs.levelsOf(Load);
  ASSERT_NE(Levels, nullptr);
  EXPECT_EQ(Levels->back(), Objs.symbolObject(A));
}

TEST(HSSATest, DoubleIndirectionLevels) {
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  Symbol *Q = M.createGlobal("q", TypeKind::Int);
  IRBuilder B(M);
  Function *F = B.startFunction("main");
  unsigned TA = B.emitAddrOf(A);
  B.emitStore(directRef(P), Operand::temp(TA));
  unsigned TP = B.emitAddrOf(P);
  B.emitStore(directRef(Q), Operand::temp(TP));
  unsigned T = B.emitLoad(doubleIndirectRef(Q, TypeKind::Int));
  (void)T;
  Stmt *Load = B.block()->stmt(B.block()->size() - 1);
  B.setRet();
  F->recomputeCFG();

  DominatorTree DT(*F);
  alias::SteensgaardAnalysis AA(M);
  HSSA H(*F, DT, AA, nullptr);
  const StmtAccess *Acc = H.accessInfo(Load);
  ASSERT_NE(Acc, nullptr);
  ASSERT_EQ(Acc->LevelObjs.size(), 3u);
  EXPECT_EQ(Acc->LevelObjs[0], H.symbolObject(Q));
  EXPECT_TRUE(H.object(Acc->LevelObjs[1]).isVirtual());
  EXPECT_TRUE(H.object(Acc->LevelObjs[2]).isVirtual());
  EXPECT_NE(Acc->LevelObjs[1], Acc->LevelObjs[2]);
}

} // namespace
