//===- AndersenTest.cpp - Tests for the inclusion-based analysis -*- C++ -*-===//

#include "alias/Andersen.h"

#include "alias/AliasAnalysis.h"
#include "fuzz/RandomProgram.h"
#include "ir/IRBuilder.h"
#include "ir/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace srp;
using namespace srp::ir;
using namespace srp::alias;

namespace {

bool contains(const std::vector<const Symbol *> &Set, const Symbol *Sym) {
  return std::find(Set.begin(), Set.end(), Sym) != Set.end();
}

/// The precision case Steensgaard loses: p = &a; q = &b; r = p.
/// Unification merges {a,b} into one class through r; inclusion keeps
/// pts(q) = {b} separate.
TEST(AndersenTest, MorePreciseThanSteensgaard) {
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  Symbol *B2 = M.createGlobal("b", TypeKind::Int);
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  Symbol *Q = M.createGlobal("q", TypeKind::Int);
  Symbol *R = M.createGlobal("r", TypeKind::Int);
  IRBuilder B(M);
  Function *F = B.startFunction("main");
  unsigned TA = B.emitAddrOf(A);
  unsigned TB = B.emitAddrOf(B2);
  B.emitStore(directRef(P), Operand::temp(TA));
  B.emitStore(directRef(Q), Operand::temp(TB));
  unsigned TP = B.emitLoad(directRef(P));
  B.emitStore(directRef(R), Operand::temp(TP)); // r = p
  // The unifier must also see q flow somewhere to merge classes; store
  // q's value into r on a (statically possible) path.
  unsigned TQ = B.emitLoad(directRef(Q));
  B.emitStore(directRef(R), Operand::temp(TQ)); // r = q
  B.setRet();

  AndersenAnalysis AA(M);
  MemRef StarQ = indirectRef(Q, TypeKind::Int);
  auto QPointees = AA.mayPointees(StarQ, F);
  EXPECT_TRUE(contains(QPointees, B2));
  EXPECT_FALSE(contains(QPointees, A))
      << "inclusion keeps q's targets separate from p's";
  // r, fed from both, sees both.
  auto RPointees = AA.mayPointees(indirectRef(R, TypeKind::Int), F);
  EXPECT_TRUE(contains(RPointees, A));
  EXPECT_TRUE(contains(RPointees, B2));

  // Steensgaard, by contrast, merges a and b into q's class.
  SteensgaardAnalysis SA(M);
  auto QSteens = SA.mayPointees(StarQ, F);
  EXPECT_TRUE(contains(QSteens, A))
      << "the unifier's characteristic imprecision";
}

TEST(AndersenTest, BasicAddressFlow) {
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  Symbol *C = M.createGlobal("c", TypeKind::Int);
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  IRBuilder B(M);
  Function *F = B.startFunction("main");
  unsigned TA = B.emitAddrOf(A);
  B.emitStore(directRef(P), Operand::temp(TA));
  B.setRet();

  AndersenAnalysis AA(M);
  MemRef StarP = indirectRef(P, TypeKind::Int);
  EXPECT_TRUE(AA.mayAlias(StarP, F, directRef(A), F));
  EXPECT_FALSE(AA.mayAlias(StarP, F, directRef(C), F));
}

TEST(AndersenTest, IndirectStoreFlow) {
  // *p = &a with p -> q makes *q point at a.
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  Symbol *Q = M.createGlobal("q", TypeKind::Int);
  IRBuilder B(M);
  Function *F = B.startFunction("main");
  unsigned TQ = B.emitAddrOf(Q);
  B.emitStore(directRef(P), Operand::temp(TQ)); // p = &q
  unsigned TA = B.emitAddrOf(A);
  B.emitStore(indirectRef(P, TypeKind::Int), Operand::temp(TA)); // *p = &a
  B.setRet();

  AndersenAnalysis AA(M);
  EXPECT_TRUE(
      AA.mayAlias(indirectRef(Q, TypeKind::Int), F, directRef(A), F));
  // And through the double indirection **p ~ a.
  EXPECT_TRUE(AA.mayAlias(doubleIndirectRef(P, TypeKind::Int), F,
                          directRef(A), F));
}

TEST(AndersenTest, CallAndReturnFlow) {
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  IRBuilder B(M);
  Function *Id = B.startFunction("id");
  Symbol *X = M.createLocal(Id, "x", TypeKind::Int, 1, /*IsFormal=*/true);
  unsigned TX = B.emitLoad(directRef(X));
  B.setRet(Operand::temp(TX));

  Function *F = B.startFunction("main");
  unsigned TA = B.emitAddrOf(A);
  unsigned TR = B.emitCall(Id, {Operand::temp(TA)});
  B.emitStore(directRef(P), Operand::temp(TR));
  B.setRet();

  AndersenAnalysis AA(M);
  EXPECT_TRUE(
      AA.mayAlias(indirectRef(P, TypeKind::Int), F, directRef(A), F));
}

TEST(AndersenTest, HeapSitesStayDistinct) {
  Module M;
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  Symbol *Q = M.createGlobal("q", TypeKind::Int);
  IRBuilder B(M);
  Function *F = B.startFunction("main");
  unsigned T1 = B.emitAlloc(Operand::constInt(2), "s1");
  unsigned T2 = B.emitAlloc(Operand::constInt(2), "s2");
  B.emitStore(directRef(P), Operand::temp(T1));
  B.emitStore(directRef(Q), Operand::temp(T2));
  B.setRet();

  AndersenAnalysis AA(M);
  EXPECT_FALSE(AA.mayAlias(indirectRef(P, TypeKind::Int), F,
                           indirectRef(Q, TypeKind::Int), F));
}

/// Soundness envelope: Andersen's answer sets must be subsets of
/// Steensgaard's (both overapproximate the truth; inclusion refines
/// unification).
TEST(AndersenTest, SubsetOfSteensgaard) {
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  Symbol *B2 = M.createGlobal("b", TypeKind::Int);
  Symbol *C = M.createGlobal("c", TypeKind::Int);
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  Symbol *Q = M.createGlobal("q", TypeKind::Int);
  IRBuilder B(M);
  Function *F = B.startFunction("main");
  unsigned TA = B.emitAddrOf(A);
  unsigned TB = B.emitAddrOf(B2);
  unsigned TC = B.emitAddrOf(C);
  B.emitStore(directRef(P), Operand::temp(TA));
  B.emitStore(directRef(P), Operand::temp(TB));
  B.emitStore(directRef(Q), Operand::temp(TC));
  unsigned TP = B.emitLoad(directRef(P));
  B.emitStore(directRef(Q), Operand::temp(TP));
  B.setRet();

  AndersenAnalysis AA(M);
  SteensgaardAnalysis SA(M);
  for (Symbol *Ptr : {P, Q}) {
    MemRef Star = indirectRef(Ptr, TypeKind::Int);
    auto Fine = AA.mayPointees(Star, F);
    auto Coarse = SA.mayPointees(Star, F);
    for (const Symbol *S : Fine)
      EXPECT_TRUE(contains(Coarse, S))
          << Ptr->Name << " -> " << S->Name
          << " found by Andersen but not Steensgaard";
  }
}

//===----------------------------------------------------------------------===//
// Subset sweep
//
// Inclusion constraints only refine unification: whatever Andersen says
// a reference may point to, Steensgaard must say too. SubsetOfSteensgaard
// checks that envelope on one hand-built program; this sweep checks it
// for every symbol reference at both dereference depths in every function
// context over the repro corpus and 500 random programs.
//===----------------------------------------------------------------------===//

void expectSubsetOfSteensgaard(ir::Module &M, const std::string &Context) {
  AndersenAnalysis AA(M);
  SteensgaardAnalysis SA(M);

  std::vector<const Function *> Contexts{nullptr};
  for (unsigned FI = 0; FI < M.numFunctions(); ++FI)
    Contexts.push_back(M.function(FI));

  for (unsigned Id = 0; Id < M.numSymbols(); ++Id) {
    Symbol *S = M.symbol(Id);
    for (unsigned Depth : {1u, 2u}) {
      MemRef Ref = indirectRef(S, TypeKind::Int);
      Ref.Depth = Depth;
      for (const Function *F : Contexts) {
        auto Coarse = SA.mayPointees(Ref, F);
        for (const Symbol *P : AA.mayPointees(Ref, F))
          EXPECT_TRUE(contains(Coarse, P))
              << Context << ": *" << std::string(Depth - 1, '*') << S->Name
              << " in " << (F ? F->getName() : "<global>") << " -> "
              << P->Name << " found by Andersen but not Steensgaard";
      }
    }
  }
}

TEST(AndersenSubsetSweep, ReproCorpus) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::path(SRP_SOURCE_DIR) / "fuzz-repros";
  ASSERT_TRUE(fs::exists(Dir)) << Dir << " missing";
  unsigned Checked = 0;
  for (const auto &Entry : fs::directory_iterator(Dir)) {
    if (Entry.path().extension() != ".sir")
      continue;
    std::ifstream In(Entry.path());
    ASSERT_TRUE(In) << "cannot read " << Entry.path();
    std::stringstream Buf;
    Buf << In.rdbuf();
    Module M;
    std::string Error;
    ASSERT_TRUE(ir::parseModule(Buf.str(), M, Error))
        << Entry.path() << ": " << Error;
    expectSubsetOfSteensgaard(M, Entry.path().filename().string());
    ++Checked;
  }
  EXPECT_GT(Checked, 0u) << "corpus is empty";
}

TEST(AndersenSubsetSweep, RandomPrograms) {
  // Seeded, so one failing seed is a stable repro; widen the range when
  // hunting rather than re-rolling these.
  for (uint64_t Seed = 1; Seed <= 500; ++Seed) {
    Module M;
    fuzz::buildRandomProgram(M, Seed);
    expectSubsetOfSteensgaard(M, "seed " + std::to_string(Seed));
    if (HasFailure())
      FAIL() << "stopping at first failing seed " << Seed;
  }
}

} // namespace
