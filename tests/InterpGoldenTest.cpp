//===- InterpGoldenTest.cpp - Pinned interpreter runs over a corpus -------===//
//
// Pins every number the interpreter reports (interp/Interpreter.h)
// against tests/golden/interp.golden, one line per input program:
//
//   * Ok, the FNV-1a hashes of the error and the output, the exit value,
//     and the statement, load and store counts of a plain run;
//   * hashes of the alias profile (every site and level) and the edge
//     profile (every block and edge count) of a profiled run;
//   * hashes of the MemTrace (every access with its symbol and
//     speculative bit, then the final globals) and of the TaintTrace
//     leaks, and the six AlatObserverStats, of a fully observed run;
//   * the error, output hash and counts under a 100-statement fuel
//     budget.
//
// The plain, profiled and observed runs execute with different hook
// sets, so each run must also agree with the plain one on everything a
// RunResult holds. The corpus is the ten workloads at train and ref
// scale; the checked-in .sir files and 500 generated secret-labelled
// programs, each unpromoted, ALAT-promoted with cascade, and with st.a
// too; and hand-written programs for what the rest never does: chk.a,
// pointers outside every object, a local read before its first write,
// and the traps (unaligned load and store, call depth, a foreign local).
// The test asserts that the corpus executes chk.a, an indirect ld.c with
// @addr, invala, st.a, a call and a heap allocation, records an unknown
// alias target and a taint leak, and runs out of fuel.
//
//===----------------------------------------------------------------------===//

#include "GoldenFile.h"

#include "alias/AliasAnalysis.h"
#include "fuzz/Fuzzer.h"
#include "fuzz/RandomProgram.h"
#include "interp/AlatObserver.h"
#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "pre/Promoter.h"
#include "support/Hash.h"
#include "support/StringUtils.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

using namespace srp;
using namespace srp::interp;

namespace {

namespace fs = std::filesystem;

// The golden line spells out every field; a new one must join it.
static_assert(sizeof(AlatObserverStats) == 6 * sizeof(uint64_t));

/// Addresses outside every object: a null pointer, one element past a
/// heap object, and into a returned frame. stale() reads its locals
/// before writing them and sees what leak() left in the same slots.
constexpr const char *OddPointers = R"(global p : int
global q : int
global r : int

func leak() -> int {
  local x : int
  local y : int[2]
entry:
  st x = 41
  st y[1] = 9
  t0 = addrof y[1]
  ret t0
}

func stale() -> int {
  local u : int
  local v : int[2]
entry:
  t0 = ld u
  t1 = ld v[1]
  t2 = add t0, t1
  ret t2
}

func main() -> int {
entry:
  t0 = ld *p
  print t0
  t1 = alloc 3 @cell
  t2 = add t1, 24
  st q = t2
  t3 = ld *q
  print t3
  t4 = call leak()
  st r = t4
  t5 = ld *r
  print t5
  t6 = call stale()
  print t6
  ret t6
}
)";

/// The second level of **pp reads address 12: the load traps, and still
/// counts (and reports to the hooks) every level of its chain.
constexpr const char *UnalignedLoad = R"(global g : int
global p : int
global pp : int

func main() -> int {
entry:
  st g = 5
  t0 = addrof g
  st p = t0
  t1 = addrof p
  st pp = t1
  t2 = ld **pp
  print t2
  st p = 12
  t3 = ld **pp
  print t3
  ret t3
}
)";

/// A store through a pointer to address 20 traps.
constexpr const char *UnalignedStore = R"(global q : int

func main() -> int {
entry:
  st q = 20
  print 1
  st *q = 7
  print 2
  ret 0
}
)";

/// Promotion never emits chk.a in the rest of the corpus: a
/// cascade-checked pointer chase whose pointer moves every seventh
/// iteration, so the check misses and recovers, checked with chk.a.clr
/// and its refresh re-checked with chk.a.nc.
constexpr const char *ChkALoop = R"(global a : int
global b : int
global p : int
global i : int
global acc : int

func main() -> int {
entry:
  st a = 11
  st b = 22
  t0 = addrof a
  st p = t0
  st i = 0
  t1 = ld<ld.a> *p addr->t2
  br loop
loop:
  t3 = ld i
  t4 = rem t3, 7
  t5 = cmpeq t4, 3
  condbr t5, flip, check
flip:
  st b = t3
  t6 = addrof b
  st p = t6
  br check
check:
  t1 = ld<chk.a.clr> *p @addr(t2)
  t1 = ld<chk.a.nc> *p @addr(t2)
  t7 = ld acc
  t8 = add t7, t1
  st acc = t8
  t9 = add t3, 1
  st i = t9
  t10 = cmplt t9, 60
  condbr t10, loop, exit
exit:
  t11 = ld acc
  print t11
  ret t11
}
)";

/// Unbounded recursion hits the call depth limit.
constexpr const char *Runaway = R"(func down(n : int) -> int {
entry:
  t0 = ld n
  t1 = add t0, 1
  t2 = call down(t1)
  ret t2
}

func main() -> int {
entry:
  t0 = call down(0)
  print t0
  ret t0
}
)";

/// main reads a local of leaf's (only IRBuilder can write that): the
/// reference traps when it executes, not before, so the dead one in
/// `never` costs nothing.
void buildForeignLocal(ir::Module &M) {
  ir::IRBuilder B(M);
  ir::Function *Leaf = B.startFunction("leaf");
  ir::Symbol *L = M.createLocal(Leaf, "l", ir::TypeKind::Int);
  B.emitStore(ir::directRef(L), ir::Operand::constInt(3));
  B.setRet();
  B.startFunction("main");
  ir::BasicBlock *Never = B.createBlock("never");
  ir::BasicBlock *Go = B.createBlock("go");
  B.emitCall(Leaf, {});
  B.emitPrint(ir::Operand::constInt(1));
  B.setCondBr(ir::Operand::constInt(1), Go, Never);
  B.setBlock(Never);
  B.emitPrint(ir::Operand::temp(B.emitLoad(ir::directRef(L))));
  B.setRet();
  B.setBlock(Go);
  B.emitStore(ir::directRef(L), ir::Operand::constInt(4));
  B.emitPrint(ir::Operand::constInt(2));
  B.setRet();
}

/// Paths the corpus must reach (see the file comment).
struct Coverage {
  bool ChkA = false, LdCAddr = false, Invala = false, StA = false;
  bool Call = false, Alloc = false, Unknown = false, Leak = false;
  bool FuelTrap = false;
};

uint64_t outputHash(const RunResult &R) {
  uint64_t H = Fnv1a64Offset;
  for (const std::string &L : R.Output)
    H = fnv1a64(L + "\n", H);
  return H;
}

/// Error, output hash and counts: what every hook set must agree on.
std::string coreFields(const RunResult &R) {
  return formatString("%016llx/%016llx/%llu/%llu/%llu",
                      (unsigned long long)fnv1a64(R.Error),
                      (unsigned long long)outputHash(R),
                      (unsigned long long)R.StmtsExecuted,
                      (unsigned long long)R.LoadsExecuted,
                      (unsigned long long)R.StoresExecuted);
}

/// Every site and level of \p AP that \p M's statements name.
uint64_t aliasHash(const ir::Module &M, const AliasProfile &AP,
                   Coverage &Cov) {
  uint64_t H = Fnv1a64Offset;
  for (unsigned FI = 0; FI < M.numFunctions(); ++FI) {
    const ir::Function *F = M.function(FI);
    for (unsigned BI = 0; BI < F->numBlocks(); ++BI)
      for (size_t SI = 0; SI < F->block(BI)->size(); ++SI) {
        const ir::Stmt &S = *F->block(BI)->stmt(SI);
        if (!S.accessesMemory())
          continue;
        for (unsigned L = 1; L <= S.Ref.Depth; ++L)
          if (const std::set<unsigned> *T = AP.targets(F, S.Id, L)) {
            H = fnv1a64(uint64_t(FI) << 40 | uint64_t(S.Id) << 8 | L, H);
            for (unsigned Sym : *T) {
              H = fnv1a64(Sym, H);
              Cov.Unknown |= Sym == AliasProfile::UnknownTarget;
            }
          }
      }
  }
  return H;
}

/// Every block count and out-edge count of \p EP; also notes which
/// statement kinds ran in a block the profile saw entered.
uint64_t edgeHash(const ir::Module &M, const EdgeProfile &EP,
                  bool RunOk, Coverage &Cov) {
  uint64_t H = Fnv1a64Offset;
  for (unsigned FI = 0; FI < M.numFunctions(); ++FI) {
    const ir::Function *F = M.function(FI);
    for (unsigned BI = 0; BI < F->numBlocks(); ++BI) {
      const ir::BasicBlock *BB = F->block(BI);
      H = fnv1a64(EP.blockCount(BB), H);
      const ir::Terminator &T = BB->term();
      for (const ir::BasicBlock *To : {T.Target, T.FalseTarget})
        if (To && T.Kind != ir::TermKind::Ret)
          H = fnv1a64(EP.edgeCount(BB, To), H);
      if (!RunOk || EP.blockCount(BB) == 0)
        continue;
      for (size_t SI = 0; SI < BB->size(); ++SI) {
        const ir::Stmt &S = *BB->stmt(SI);
        Cov.ChkA |= S.isLoad() && (S.Flag == ir::SpecFlag::ChkA ||
                                   S.Flag == ir::SpecFlag::ChkAnc);
        Cov.LdCAddr |= S.isLoad() && S.Ref.isIndirect() &&
                       S.AddrSrc != ir::NoTemp &&
                       (S.Flag == ir::SpecFlag::LdC ||
                        S.Flag == ir::SpecFlag::LdCnc);
        Cov.Invala |= S.Kind == ir::StmtKind::Invala;
        Cov.StA |= S.isStore() && S.StA;
        Cov.Call |= S.Kind == ir::StmtKind::Call;
        Cov.Alloc |= S.Kind == ir::StmtKind::Alloc;
      }
    }
  }
  return H;
}

uint64_t memTraceHash(const MemTrace &MT) {
  uint64_t H = Fnv1a64Offset;
  for (const MemTrace::Access &A : MT.Accesses) {
    H = fnv1a64(A.Addr, H);
    H = fnv1a64(uint64_t(A.Symbol) << 2 | uint64_t(A.IsLoad) << 1 |
                    uint64_t(A.Speculative),
                H);
  }
  for (uint64_t V : MT.FinalGlobals)
    H = fnv1a64(V, H);
  return H;
}

uint64_t taintHash(const TaintTrace &TT, Coverage &Cov) {
  uint64_t H = Fnv1a64Offset;
  for (const TaintTrace::Leak &L : TT.Leaks) {
    H = fnv1a64(formatString("%s %s %u ", taintSinkName(L.S),
                             L.Function.c_str(), L.Line),
                H);
    H = fnv1a64(L.SpecMask, H);
  }
  Cov.Leak |= !TT.Leaks.empty();
  return H;
}

/// One golden line: \p M run plain, profiled, observed and fuel-bound.
std::string goldenLine(const std::string &Name, const ir::Module &M,
                       Coverage &Cov) {
  Interpreter Plain(M);
  RunResult R = Plain.run();

  AliasProfile AP;
  EdgeProfile EP;
  Interpreter Profiled(M);
  Profiled.setAliasProfile(&AP);
  Profiled.setEdgeProfile(&EP);
  RunResult RP = Profiled.run();

  AlatObserver AO;
  MemTrace MT;
  TaintTrace TT;
  Interpreter Observed(M);
  Observed.setAlatObserver(&AO);
  Observed.setMemTrace(&MT);
  Observed.setTaintTrace(&TT);
  RunResult RO = Observed.run();

  std::string Core = coreFields(R);
  EXPECT_EQ(coreFields(RP), Core) << Name << " profiled";
  EXPECT_EQ(coreFields(RO), Core) << Name << " observed";
  EXPECT_EQ(RP.ExitValue, R.ExitValue) << Name;
  EXPECT_EQ(RO.ExitValue, R.ExitValue) << Name;

  const AlatObserverStats &A = AO.stats();
  auto U = [](uint64_t V) { return (unsigned long long)V; };
  std::string Line = formatString(
      "%s ok=%d err=%016llx out=%016llx exit=%lld counts=%llu/%llu/%llu "
      "alias=%016llx edges=%016llx mem=%016llx taint=%016llx "
      "alat=%llu/%llu/%llu/%llu/%llu/%llu",
      Name.c_str(), int(R.Ok), U(fnv1a64(R.Error)), U(outputHash(R)),
      (long long)R.ExitValue, U(R.StmtsExecuted), U(R.LoadsExecuted),
      U(R.StoresExecuted), U(aliasHash(M, AP, Cov)),
      U(edgeHash(M, EP, RP.Ok, Cov)), U(memTraceHash(MT)),
      U(taintHash(TT, Cov)), U(A.Allocations), U(A.StoreInvalidations),
      U(A.CapacityEvictions), U(A.CheckHits), U(A.CheckMisses),
      U(A.StaleHits));

  // The fuel trap point must not depend on the hooks either (the hooks
  // keep accumulating; their contents are already in the line).
  RunResult F = Plain.run(100);
  EXPECT_EQ(coreFields(Profiled.run(100)), coreFields(F)) << Name;
  EXPECT_EQ(coreFields(Observed.run(100)), coreFields(F)) << Name;
  Cov.FuelTrap |= F.Error == "fuel exhausted";
  return Line + " fuel100=" + coreFields(F);
}

void recomputeCFGs(ir::Module &M) {
  for (unsigned I = 0; I < M.numFunctions(); ++I)
    M.function(I)->recomputeCFG();
}

TEST(InterpGoldenTest, InterpretedRunsMatchGolden) {
  std::vector<std::string> Lines;
  Coverage Cov;

  for (const core::Workload &W : workloads::standardWorkloads())
    for (bool Ref : {false, true}) {
      ir::Module M;
      W.Build(M, Ref ? W.RefScale : W.TrainScale);
      recomputeCFGs(M);
      Lines.push_back(goldenLine(
          "workload:" + W.Name + (Ref ? " ref" : " train"), M, Cov));
    }

  pre::PromotionConfig Cascade = pre::PromotionConfig::alat();
  Cascade.EnableCascade = true;
  pre::PromotionConfig CascadeStA = Cascade;
  CascadeStA.UseStA = true;
  const std::pair<const char *, const pre::PromotionConfig *> Variants[] = {
      {"unpromoted", nullptr}, {"alat", &Cascade}, {"alat+sta", &CascadeStA}};
  // Promotes under \p Config, as the pipeline does, from the profiles of
  // the module's own run.
  auto Promote = [](ir::Module &M, const pre::PromotionConfig *Config) {
    recomputeCFGs(M);
    if (!Config)
      return;
    AliasProfile AP;
    EdgeProfile EP;
    Interpreter Train(M);
    Train.setAliasProfile(&AP);
    Train.setEdgeProfile(&EP);
    Train.run();
    alias::SteensgaardAnalysis AA(M);
    pre::promoteModule(M, AA, &AP, &EP, *Config);
    EXPECT_TRUE(ir::verifyModule(M).empty());
  };

  fs::path Root(SRP_SOURCE_DIR);
  std::vector<fs::path> Files;
  for (const char *Dir : {"fuzz-repros", "examples/sir"})
    for (const fs::directory_entry &E : fs::directory_iterator(Root / Dir))
      if (E.path().extension() == ".sir")
        Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  Files.push_back(Root / "tools/example.sir");
  for (const fs::path &P : Files)
    for (const auto &[Label, Config] : Variants) {
      ir::Module M;
      std::string Error;
      ASSERT_TRUE(ir::parseModule(test::readFile(P), M, Error)) << Error;
      ASSERT_TRUE(ir::verifyModule(M).empty()) << P;
      Promote(M, Config);
      Lines.push_back(goldenLine(
          "sir:" + fs::relative(P, Root).string() + " " + Label, M, Cov));
    }

  for (uint64_t Seed = 1; Seed <= 500; ++Seed)
    for (const auto &[Label, Config] : Variants) {
      ir::Module M;
      fuzz::buildRandomProgram(M, Seed);
      fuzz::labelRandomSecrets(M, Seed ^ 0x5ec4e7);
      Promote(M, Config);
      Lines.push_back(goldenLine(
          formatString("random:%llu %s", (unsigned long long)Seed, Label), M,
          Cov));
    }

  const std::pair<const char *, const char *> Hand[] = {
      {"chk.a-loop", ChkALoop},
      {"odd-pointers", OddPointers},
      {"unaligned-load", UnalignedLoad},
      {"unaligned-store", UnalignedStore},
      {"runaway", Runaway}};
  for (const auto &[Name, Text] : Hand) {
    ir::Module M;
    std::string Error;
    ASSERT_TRUE(ir::parseModule(Text, M, Error)) << Name << ": " << Error;
    ASSERT_TRUE(ir::verifyModule(M).empty()) << Name;
    recomputeCFGs(M);
    Lines.push_back(goldenLine(std::string("hand:") + Name, M, Cov));
  }
  ir::Module Foreign;
  buildForeignLocal(Foreign);
  recomputeCFGs(Foreign);
  Lines.push_back(goldenLine("hand:foreign-local", Foreign, Cov));

  EXPECT_TRUE(Cov.ChkA);
  EXPECT_TRUE(Cov.LdCAddr);
  EXPECT_TRUE(Cov.Invala);
  EXPECT_TRUE(Cov.StA);
  EXPECT_TRUE(Cov.Call);
  EXPECT_TRUE(Cov.Alloc);
  EXPECT_TRUE(Cov.Unknown);
  EXPECT_TRUE(Cov.Leak);
  EXPECT_TRUE(Cov.FuelTrap);
  test::expectMatchesGolden(
      "interp.golden",
      "Interpreted numbers per input; see tests/InterpGoldenTest.cpp.",
      Lines);
}

} // namespace
