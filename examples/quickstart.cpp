//===- quickstart.cpp - Build, promote, simulate in 100 lines -----------------===//
//
// The paper's Figure 1(a) scenario end to end:
//
//   a = 7;            // leading access
//   x = a + 1;        // first read
//   *p = 99;          // may alias a -- the compiler cannot tell
//   y = a + 3;        // redundant read, IF *p did not hit a
//
// We build the IR, collect an alias profile (at run time p points at b),
// run speculative register promotion, print the transformed IR (watch
// the ld.a / ld.c.nc flags appear), and simulate both versions on the
// ITA machine to compare cycles. Exits 1 unless both simulated runs
// print what the interpreter's training run printed.
//
// Build: cmake --build build && ./build/examples/quickstart
//
//===----------------------------------------------------------------------===//

#include "alias/AliasAnalysis.h"
#include "arch/Simulator.h"
#include "codegen/Lowering.h"
#include "codegen/RegAlloc.h"
#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "ir/Printer.h"
#include "pre/Promoter.h"
#include "support/OStream.h"

using namespace srp;
using namespace srp::ir;

static void buildProgram(Module &M) {
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  Symbol *B2 = M.createGlobal("b", TypeKind::Int);
  Symbol *P = M.createGlobal("p", TypeKind::Int);

  IRBuilder B(M);
  B.startFunction("main");
  // The compiler sees p take both &a and &b; at run time it holds &b.
  unsigned TA = B.emitAddrOf(A);
  unsigned TB = B.emitAddrOf(B2);
  B.emitStore(directRef(P), Operand::temp(TA));
  B.emitStore(directRef(P), Operand::temp(TB));

  B.emitStore(directRef(A), Operand::constInt(7));
  unsigned T1 = B.emitLoad(directRef(A));
  unsigned U1 = B.emitAssign(Opcode::Add, Operand::temp(T1),
                             Operand::constInt(1));
  B.emitStore(indirectRef(P, TypeKind::Int), Operand::constInt(99));
  unsigned T2 = B.emitLoad(directRef(A));
  unsigned U2 = B.emitAssign(Opcode::Add, Operand::temp(T2),
                             Operand::constInt(3));
  B.emitPrint(Operand::temp(U1));
  B.emitPrint(Operand::temp(U2));
  B.setRet();
}

static arch::SimResult compileAndSimulate(Module &M) {
  auto MM = codegen::lowerModule(M);
  codegen::allocateRegisters(*MM);
  return arch::simulate(*MM, arch::SimConfig());
}

int main() {
  // Baseline compile (no speculation).
  Module Plain;
  buildProgram(Plain);
  Plain.function(0)->recomputeCFG();
  outs() << "--- original IR ---\n";
  printModule(Plain, outs());
  arch::SimResult Base = compileAndSimulate(Plain);

  // Speculative compile: profile on a training run, then promote.
  Module M;
  buildProgram(M);
  M.function(0)->recomputeCFG();
  interp::AliasProfile Profile;
  interp::Interpreter Train(M);
  Train.setAliasProfile(&Profile);
  interp::RunResult Trained = Train.run();

  alias::SteensgaardAnalysis AA(M);
  pre::PromotionStats Stats = pre::promoteModule(
      M, AA, &Profile, nullptr, pre::PromotionConfig::alat());

  outs() << "\n--- after speculative register promotion ---\n";
  printModule(M, outs());
  outs() << "loads removed: " << Stats.loadsRemoved()
         << ", checks inserted: " << Stats.ChecksInserted
         << ", advanced loads: " << Stats.AdvancedLoads << "\n";

  arch::SimResult Spec = compileAndSimulate(M);
  for (const arch::SimResult *R : {&Base, &Spec})
    if (!R->Ok || R->Output != Trained.Output) {
      errs() << "simulated run differs from the interpreter: " << R->Error
             << "\n";
      return 1;
    }
  outs() << "\n--- simulation (ITA machine, ALAT enabled) ---\n";
  outs() << "output: " << Spec.Output[0] << ", " << Spec.Output[1]
         << "  (baseline: " << Base.Output[0] << ", " << Base.Output[1]
         << ")\n";
  outs() << "cycles: " << Base.Counters.Cycles << " -> "
         << Spec.Counters.Cycles << "\n";
  outs() << "retired loads: " << Base.Counters.RetiredLoads << " -> "
         << Spec.Counters.RetiredLoads << "\n";
  outs() << "ALAT checks: " << Spec.Counters.AlatChecks << " (failed "
         << Spec.Counters.AlatCheckFailures << ")\n";
  return 0;
}
