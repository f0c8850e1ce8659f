//===- SpecVerifierTest.cpp - Speculation-safety checker tests ---*- C++ -*-===//
//
// Three layers of evidence that analysis::SpecVerifier means what it says:
//
//   1. Hand-built negatives: each invariant (E1-E4, W1) violated in the
//      smallest possible function, asserting the exact diagnostic kind.
//   2. A no-false-positives sweep: 500 random programs promoted under the
//      ALAT-family strategies must verify clean (the promoter upholds the
//      discipline by construction).
//   3. A differential run: the same promoted modules execute under
//      interp::AlatObserver, an adversarial hardware model. A module the
//      checker passes must produce zero stale check hits, and any dynamic
//      capacity eviction must have been predicted by the static W1 lint
//      at the same table size.
//
//===----------------------------------------------------------------------===//

#include "fuzz/RandomProgram.h"

#include "alias/AliasAnalysis.h"
#include "analysis/SpecVerifier.h"
#include "interp/AlatObserver.h"
#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "pre/Promoter.h"

#include <gtest/gtest.h>

using namespace srp;
using namespace srp::analysis;
using namespace srp::ir;

namespace {

unsigned countKind(const std::vector<SpecDiag> &Diags, SpecDiagKind Kind) {
  unsigned N = 0;
  for (const SpecDiag &D : Diags)
    N += D.Kind == Kind;
  return N;
}

std::string dump(const std::vector<SpecDiag> &Diags) {
  std::string Out;
  for (const SpecDiag &D : Diags)
    Out += formatSpecDiag(D) + "\n";
  return Out;
}

/// A checking load re-targeting an existing temp (IRBuilder::emitLoad
/// always makes a fresh temp, but a check must write the armed one).
void appendCheck(IRBuilder &B, unsigned Dst, MemRef Ref, SpecFlag Flag,
                 unsigned AddrSrc = NoTemp) {
  Stmt S;
  S.Kind = StmtKind::Load;
  S.Dst = Dst;
  S.Ref = Ref;
  S.Flag = Flag;
  S.AddrSrc = AddrSrc;
  B.block()->append(std::move(S));
}

/// An advanced load over an indirect reference, with the chain pointer
/// saved to a fresh temp (what the promoter's cascade placement emits).
unsigned appendAdvancedIndirect(IRBuilder &B, MemRef Ref, unsigned &AddrDst) {
  Stmt S;
  S.Kind = StmtKind::Load;
  S.Flag = SpecFlag::LdSA;
  S.Ref = Ref;
  S.Dst = B.function()->createTemp(Ref.ValueType);
  S.AddrDst = AddrDst = B.function()->createTemp(TypeKind::Int);
  unsigned Dst = S.Dst;
  B.block()->append(std::move(S));
  return Dst;
}

void finish(IRBuilder &B) {
  B.setRet(Operand::constInt(0));
  for (unsigned I = 0; I < B.module().numFunctions(); ++I)
    B.module().function(I)->recomputeCFG();
}

//===----------------------------------------------------------------------===//
// Hand-built negatives
//===----------------------------------------------------------------------===//

TEST(SpecVerifierNegative, CheckWithoutDominatingAdvancedLoad) {
  Module M;
  IRBuilder B(M);
  Symbol *G = M.createGlobal("g", TypeKind::Int);
  B.startFunction("main");
  B.emitLoad(directRef(G), SpecFlag::LdC); // never armed
  finish(B);

  auto Diags = verifySpeculation(M);
  EXPECT_EQ(countKind(Diags, SpecDiagKind::UnanchoredCheck), 1u)
      << dump(Diags);
  EXPECT_TRUE(hasSpecErrors(Diags));
}

TEST(SpecVerifierNegative, AnchoredOnOnlyOnePath) {
  Module M;
  IRBuilder B(M);
  Symbol *G = M.createGlobal("g", TypeKind::Int);
  B.startFunction("main");
  unsigned TC = B.emitAssign(Opcode::Copy, Operand::constInt(0));
  BasicBlock *Then = B.createBlock("then");
  BasicBlock *Else = B.createBlock("else");
  BasicBlock *Join = B.createBlock("join");
  B.setCondBr(Operand::temp(TC), Then, Else);
  B.setBlock(Then);
  unsigned T0 = B.emitLoad(directRef(G), SpecFlag::LdA);
  B.setBr(Join);
  B.setBlock(Else); // no anchor on this path
  B.setBr(Join);
  B.setBlock(Join);
  appendCheck(B, T0, directRef(G), SpecFlag::LdC);
  finish(B);

  auto Diags = verifySpeculation(M);
  EXPECT_EQ(countKind(Diags, SpecDiagKind::UnanchoredCheck), 1u)
      << dump(Diags);
}

TEST(SpecVerifierNegative, AnchoredOnBothPathsIsClean) {
  Module M;
  IRBuilder B(M);
  Symbol *G = M.createGlobal("g", TypeKind::Int);
  B.startFunction("main");
  unsigned TC = B.emitAssign(Opcode::Copy, Operand::constInt(0));
  BasicBlock *Then = B.createBlock("then");
  BasicBlock *Else = B.createBlock("else");
  BasicBlock *Join = B.createBlock("join");
  B.setCondBr(Operand::temp(TC), Then, Else);
  B.setBlock(Then);
  unsigned T0 = B.emitLoad(directRef(G), SpecFlag::LdA);
  B.setBr(Join);
  B.setBlock(Else);
  {
    Stmt S;
    S.Kind = StmtKind::Load;
    S.Flag = SpecFlag::LdA;
    S.Ref = directRef(G);
    S.Dst = T0;
    B.block()->append(std::move(S));
  }
  B.setBr(Join);
  B.setBlock(Join);
  appendCheck(B, T0, directRef(G), SpecFlag::LdC);
  finish(B);

  auto Diags = verifySpeculation(M);
  EXPECT_TRUE(Diags.empty()) << dump(Diags);
}

TEST(SpecVerifierNegative, ClobberedBetweenArmAndCheck) {
  Module M;
  IRBuilder B(M);
  Symbol *G = M.createGlobal("g", TypeKind::Int);
  B.startFunction("main");
  unsigned T0 = B.emitLoad(directRef(G), SpecFlag::LdA);
  {
    Stmt S; // unflagged redefinition of the promoted register
    S.Kind = StmtKind::Assign;
    S.Op = Opcode::Copy;
    S.Dst = T0;
    S.A = Operand::constInt(42);
    B.block()->append(std::move(S));
  }
  appendCheck(B, T0, directRef(G), SpecFlag::LdC);
  finish(B);

  auto Diags = verifySpeculation(M);
  EXPECT_EQ(countKind(Diags, SpecDiagKind::ClobberedRegister), 1u)
      << dump(Diags);
  EXPECT_EQ(countKind(Diags, SpecDiagKind::UnanchoredCheck), 0u)
      << dump(Diags);
}

TEST(SpecVerifierNegative, GuardedSelectIsNotAClobber) {
  Module M;
  IRBuilder B(M);
  Symbol *G = M.createGlobal("g", TypeKind::Int);
  B.startFunction("main");
  unsigned T0 = B.emitLoad(directRef(G), SpecFlag::LdA);
  unsigned TC = B.emitAssign(Opcode::Copy, Operand::constInt(0));
  {
    Stmt S; // t0 = select c, fresh, t0 — the software-check idiom
    S.Kind = StmtKind::Assign;
    S.Op = Opcode::Select;
    S.Dst = T0;
    S.A = Operand::temp(TC);
    S.B = Operand::constInt(7);
    S.C = Operand::temp(T0);
    B.block()->append(std::move(S));
  }
  appendCheck(B, T0, directRef(G), SpecFlag::LdC);
  finish(B);

  auto Diags = verifySpeculation(M);
  EXPECT_TRUE(Diags.empty()) << dump(Diags);
}

TEST(SpecVerifierNegative, ChkAWithoutRecoveryPlumbing) {
  Module M;
  IRBuilder B(M);
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  B.startFunction("main");
  unsigned TP = NoTemp;
  unsigned T0 = appendAdvancedIndirect(B, indirectRef(P, TypeKind::Int), TP);
  // chk.a with no saved chain pointer: recovery cannot rebuild the
  // address, lowering has no register to check.
  appendCheck(B, T0, indirectRef(P, TypeKind::Int), SpecFlag::ChkA);
  finish(B);

  auto Diags = verifySpeculation(M);
  EXPECT_EQ(countKind(Diags, SpecDiagKind::MalformedRecovery), 1u)
      << dump(Diags);
}

TEST(SpecVerifierNegative, ChkAOverNonCascadeDepth) {
  Module M;
  IRBuilder B(M);
  Symbol *G = M.createGlobal("g", TypeKind::Int);
  B.startFunction("main");
  unsigned T0 = B.emitLoad(directRef(G), SpecFlag::LdA);
  // chk.a over a direct (depth-0) reference: there is no pointer cascade
  // for recovery to re-execute.
  appendCheck(B, T0, directRef(G), SpecFlag::ChkA);
  finish(B);

  auto Diags = verifySpeculation(M);
  EXPECT_GE(countKind(Diags, SpecDiagKind::MalformedRecovery), 1u)
      << dump(Diags);
}

TEST(SpecVerifierNegative, SpeculativeStatementsDisagreeOnExpression) {
  Module M;
  IRBuilder B(M);
  Symbol *G = M.createGlobal("g", TypeKind::Int);
  Symbol *H = M.createGlobal("h", TypeKind::Int);
  B.startFunction("main");
  unsigned T0 = B.emitLoad(directRef(G), SpecFlag::LdA);
  appendCheck(B, T0, directRef(H), SpecFlag::LdC); // checks a different cell
  finish(B);

  auto Diags = verifySpeculation(M);
  EXPECT_EQ(countKind(Diags, SpecDiagKind::MalformedRecovery), 1u)
      << dump(Diags);
}

TEST(SpecVerifierNegative, StaleSavedCheckAddress) {
  Module M;
  IRBuilder B(M);
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  B.startFunction("main");
  unsigned TA = B.emitAddrOf(A);
  B.emitStore(directRef(P), Operand::temp(TA));
  unsigned TP = NoTemp;
  unsigned T0 = appendAdvancedIndirect(B, indirectRef(P, TypeKind::Int), TP);
  // Retarget the pointer cell between the advanced load and the check:
  // the saved address TP no longer equals *p.
  B.emitStore(directRef(P), Operand::temp(TA));
  appendCheck(B, T0, indirectRef(P, TypeKind::Int), SpecFlag::LdCnc, TP);
  finish(B);

  alias::SteensgaardAnalysis AA(M);
  SpecVerifyConfig C;
  C.AA = &AA;
  auto Diags = verifySpeculation(M, C);
  EXPECT_EQ(countKind(Diags, SpecDiagKind::StaleCheckAddress), 1u)
      << dump(Diags);
}

TEST(SpecVerifierNegative, OverCapacityRegion) {
  Module M;
  IRBuilder B(M);
  B.startFunction("main");
  std::vector<unsigned> Temps;
  std::vector<Symbol *> Syms;
  for (int I = 0; I < 5; ++I) {
    Syms.push_back(
        M.createGlobal(std::string("g") + std::to_string(I), TypeKind::Int));
    Temps.push_back(B.emitLoad(directRef(Syms[I]), SpecFlag::LdA));
  }
  for (int I = 0; I < 5; ++I)
    appendCheck(B, Temps[I], directRef(Syms[I]), SpecFlag::LdC);
  finish(B);

  SpecVerifyConfig Small;
  Small.AlatEntries = 4; // five entries live at the fifth ld.a
  auto Diags = verifySpeculation(M, Small);
  EXPECT_EQ(countKind(Diags, SpecDiagKind::OverCapacity), 1u) << dump(Diags);
  EXPECT_FALSE(hasSpecErrors(Diags)) << dump(Diags);

  SpecVerifyConfig Fits;
  Fits.AlatEntries = 5;
  EXPECT_TRUE(verifySpeculation(M, Fits).empty());
}

/// Builds main as entry -> header -> {body -> latch -> header, exit}, with
/// \p Entry, \p Body and \p Latch filling those blocks. The header has no
/// statements, and the first RPO sweep visits it before the latch, so
/// what the latch does reaches the body only on a later sweep.
template <typename EntryFn, typename BodyFn, typename LatchFn>
void buildLoop(Module &M, EntryFn Entry, BodyFn Body, LatchFn Latch) {
  IRBuilder B(M);
  B.startFunction("main");
  Entry(B);
  unsigned TC = B.emitAssign(Opcode::Copy, Operand::constInt(0));
  BasicBlock *Header = B.createBlock("header");
  BasicBlock *BodyBB = B.createBlock("body");
  BasicBlock *LatchBB = B.createBlock("latch");
  BasicBlock *Exit = B.createBlock("exit");
  B.setBr(Header);
  B.setBlock(Header);
  B.setCondBr(Operand::temp(TC), BodyBB, Exit);
  B.setBlock(BodyBB);
  Body(B);
  B.setBr(LatchBB);
  B.setBlock(LatchBB);
  Latch(B);
  B.setBr(Header);
  B.setBlock(Exit);
  finish(B);
}

TEST(SpecVerifierNegative, ClobberAroundLoopBackEdge) {
  Module M;
  Symbol *G = M.createGlobal("g", TypeKind::Int);
  unsigned T0 = NoTemp;
  buildLoop(
      M, [&](IRBuilder &B) { T0 = B.emitLoad(directRef(G), SpecFlag::LdA); },
      [&](IRBuilder &B) {
        appendCheck(B, T0, directRef(G), SpecFlag::LdCnc);
      },
      [&](IRBuilder &B) {
        Stmt S; // unflagged redefinition, seen by the next iteration
        S.Kind = StmtKind::Assign;
        S.Op = Opcode::Copy;
        S.Dst = T0;
        S.A = Operand::constInt(42);
        B.block()->append(std::move(S));
      });

  auto Diags = verifySpeculation(M);
  ASSERT_EQ(Diags.size(), 1u) << dump(Diags);
  EXPECT_EQ(Diags[0].Kind, SpecDiagKind::ClobberedRegister);
  EXPECT_EQ(Diags[0].BlockName, "body");
  EXPECT_NE(Diags[0].StmtText.find("ld.c.nc"), std::string::npos)
      << Diags[0].StmtText;
}

TEST(SpecVerifierNegative, OverCapacityAroundLoopBackEdge) {
  Module M;
  Symbol *G = M.createGlobal("g", TypeKind::Int);
  Symbol *H = M.createGlobal("h", TypeKind::Int);
  buildLoop(
      M, [&](IRBuilder &B) { B.emitLoad(directRef(G), SpecFlag::LdA); },
      [&](IRBuilder &B) { B.emitPrint(Operand::constInt(1)); },
      // Armed here, still live in the body on the next iteration.
      [&](IRBuilder &B) { B.emitLoad(directRef(H), SpecFlag::LdA); });

  SpecVerifyConfig One;
  One.AlatEntries = 1;
  auto Diags = verifySpeculation(M, One);
  ASSERT_EQ(Diags.size(), 1u) << dump(Diags);
  EXPECT_EQ(Diags[0].Kind, SpecDiagKind::OverCapacity);
  EXPECT_EQ(Diags[0].BlockName, "body");
}

/// Diagnostics must carry the .sir line of the offending statement
/// (srp-lint's file:line output depends on the parser stamping lines).
TEST(SpecVerifierDiag, CarriesSourceLine) {
  const char *Text = "global a : int\n"
                     "\n"
                     "func main() -> int {\n"
                     "entry:\n"
                     "  t0 = ld<ld.c.clr> a\n"
                     "  ret t0\n"
                     "}\n";
  Module M;
  std::string Error;
  ASSERT_TRUE(parseModule(Text, M, Error)) << Error;
  for (unsigned I = 0; I < M.numFunctions(); ++I)
    M.function(I)->recomputeCFG();

  auto Diags = verifySpeculation(M);
  ASSERT_EQ(Diags.size(), 1u) << dump(Diags);
  EXPECT_EQ(Diags[0].Kind, SpecDiagKind::UnanchoredCheck);
  EXPECT_EQ(Diags[0].Line, 5u);
  std::string Formatted = formatSpecDiag(Diags[0], "prog.sir");
  EXPECT_NE(Formatted.find("prog.sir:5:"), std::string::npos) << Formatted;
  EXPECT_NE(Formatted.find("[unanchored-check]"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// No false positives on promoter output
//===----------------------------------------------------------------------===//

std::vector<pre::PromotionConfig> alatFamily() {
  pre::PromotionConfig Cascade = pre::PromotionConfig::alat();
  Cascade.EnableCascade = true;
  pre::PromotionConfig StA = pre::PromotionConfig::alat();
  StA.UseStA = true;
  pre::PromotionConfig AtReuse = pre::PromotionConfig::alat();
  AtReuse.ChecksAtReuse = true;
  AtReuse.EnableCascade = true;
  pre::PromotionConfig Everything = pre::PromotionConfig::alat();
  Everything.EnableCascade = true;
  Everything.UseStA = true;
  return {pre::PromotionConfig::alat(), Cascade, StA, AtReuse, Everything};
}

/// Builds, trains and promotes the random program for \p Seed under the
/// \p Seed-selected ALAT-family strategy. Returns the alias analysis the
/// promoter used so the verifier can share its verdicts.
std::unique_ptr<alias::AliasAnalysis> promoteRandom(Module &M,
                                                    uint64_t Seed) {
  srp::fuzz::buildRandomProgram(M, Seed);
  for (unsigned I = 0; I < M.numFunctions(); ++I)
    M.function(I)->recomputeCFG();
  interp::AliasProfile AP;
  interp::EdgeProfile EP;
  interp::Interpreter Train(M);
  Train.setAliasProfile(&AP);
  Train.setEdgeProfile(&EP);
  EXPECT_TRUE(Train.run(20'000'000).Ok);
  auto AA = std::make_unique<alias::SteensgaardAnalysis>(M);
  auto Family = alatFamily();
  pre::promoteModule(M, *AA, &AP, &EP, Family[Seed % Family.size()]);
  return AA;
}

TEST(SpecVerifierProperty, NoFalsePositivesOn500PromotedPrograms) {
  for (uint64_t Seed = 0; Seed < 500; ++Seed) {
    Module M;
    auto AA = promoteRandom(M, Seed * 7919 + 17);
    SpecVerifyConfig C;
    C.AA = AA.get();
    auto Diags = verifySpeculation(M, C);
    ASSERT_TRUE(Diags.empty()) << "seed " << Seed << "\n"
                               << dump(Diags) << moduleToString(M);
  }
}

//===----------------------------------------------------------------------===//
// Differential: static verdicts vs the adversarial hardware model
//===----------------------------------------------------------------------===//

class SpecDifferential : public ::testing::TestWithParam<int> {};

TEST_P(SpecDifferential, ObserverAgreesWithChecker) {
  uint64_t Seed = static_cast<uint64_t>(GetParam()) * 104729 + 41;
  Module M;
  auto AA = promoteRandom(M, Seed);

  SpecVerifyConfig C;
  C.AA = AA.get();
  C.AlatEntries = 32;
  auto Diags = verifySpeculation(M, C);
  bool StaticallyClean = !hasSpecErrors(Diags);

  // A module the checker passes must never produce a stale check hit on
  // the worst-case hardware model.
  interp::AlatObserver Obs(32);
  interp::Interpreter Interp(M);
  Interp.setAlatObserver(&Obs);
  interp::RunResult R = Interp.run(20'000'000);
  ASSERT_TRUE(R.Ok) << R.Error;
  if (StaticallyClean) {
    EXPECT_EQ(Obs.stats().StaleHits, 0u)
        << "seed " << Seed << "\n"
        << moduleToString(M);
  }

  // Any dynamic capacity eviction must have been predicted by the static
  // capacity lint at the same geometry (static may-live counts plus
  // callee peaks over-approximate the observer's table occupancy).
  interp::AlatObserver Tiny(2);
  interp::Interpreter Interp2(M);
  Interp2.setAlatObserver(&Tiny);
  ASSERT_TRUE(Interp2.run(20'000'000).Ok);
  if (Tiny.stats().CapacityEvictions > 0) {
    SpecVerifyConfig C2;
    C2.AA = AA.get();
    C2.AlatEntries = 2;
    auto D2 = verifySpeculation(M, C2);
    EXPECT_GE(countKind(D2, SpecDiagKind::OverCapacity), 1u)
        << "seed " << Seed << ": " << Tiny.stats().CapacityEvictions
        << " evictions unpredicted\n"
        << moduleToString(M);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpecDifferential, ::testing::Range(0, 120));

/// The observer itself must catch a genuine discipline violation: a
/// clobbered register kept on a check hit. This guards the differential
/// against a trivially-quiet observer.
TEST(SpecDifferential2, ObserverFlagsClobberedRegister) {
  const char *Text = "global g : int\n"
                     "\n"
                     "func main() -> int {\n"
                     "entry:\n"
                     "  t0 = ld<ld.a> g\n"
                     "  t1 = add t0, 1\n"
                     "  t0 = copy t1\n"
                     "  t2 = ld<ld.c.clr> g\n"
                     "  ret t0\n"
                     "}\n";
  Module M;
  std::string Error;
  ASSERT_TRUE(parseModule(Text, M, Error)) << Error;
  for (unsigned I = 0; I < M.numFunctions(); ++I)
    M.function(I)->recomputeCFG();
  // Rewrite the check to target t0 (the parser gives each load a fresh
  // temp; the broken program checks the clobbered register).
  BasicBlock *Entry = M.function(0)->entry();
  Stmt *Chk = Entry->stmt(Entry->size() - 1);
  ASSERT_EQ(Chk->Flag, SpecFlag::LdC);
  Chk->Dst = Entry->stmt(0)->Dst;

  auto Diags = verifySpeculation(M);
  EXPECT_EQ(countKind(Diags, SpecDiagKind::ClobberedRegister), 1u)
      << dump(Diags);

  interp::AlatObserver Obs(32);
  interp::Interpreter Interp(M);
  Interp.setAlatObserver(&Obs);
  ASSERT_TRUE(Interp.run(1000).Ok);
  // The entry is still valid (no store touched g), the register holds
  // g+1: hardware would keep the clobbered value.
  EXPECT_EQ(Obs.stats().StaleHits, 1u);
}

} // namespace
