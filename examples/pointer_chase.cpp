//===- pointer_chase.cpp - Figure 4: cascade failures on *p -------------------===//
//
// The paper's cascade scenario (§2.4): both a pointer `p` and the data it
// points to are promoted. If a store may modify `p` itself, a collision
// invalidates the *address* and the data derived from it — recovering
// needs chk.a with a recovery routine that reloads both.
//
// The demo runs twice: once on an input where the address speculation
// holds (checks free), once where *q really redirects p (chk.a branches
// into recovery and reloads the chain). Outputs stay correct either way:
// the program exits 1 unless each simulated run prints what the
// interpreter prints for the same input.
//
// Build: cmake --build build && ./build/examples/pointer_chase
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

/// Builds the Figure 4 shape. mode (a memory cell) selects at run time
/// whether q aims at b (harmless) or at p itself (cascade collision).
static void buildProgram(Module &M) {
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
  unsigned T1 = B.emitLoad(indirectRef(P, TypeKind::Int)); // = *p + 1
  unsigned U1 = B.emitAssign(Opcode::Add, Operand::temp(T1),
                             Operand::constInt(1));
  // *q = &b: if q == &p this redirects p!
  unsigned TB2 = B.emitAddrOf(B2);
  B.emitStore(indirectRef(Q, TypeKind::Int), Operand::temp(TB2));
  unsigned T2 = B.emitLoad(indirectRef(P, TypeKind::Int)); // = *p + 3
  unsigned U2 = B.emitAssign(Opcode::Add, Operand::temp(T2),
                             Operand::constInt(3));
  B.emitPrint(Operand::temp(U1));
  B.emitPrint(Operand::temp(U2));
  B.setRet();
}

static bool runMode(const char *Label, int64_t Mode) {
  Module M;
  buildProgram(M);
  M.function(0)->recomputeCFG();

  // Train on the harmless input (mode = 0) regardless of the run mode:
  // the profile says q never touches p, so the compiler speculates.
  interp::AliasProfile AP;
  interp::Interpreter Train(M);
  Train.setAliasProfile(&AP);
  Train.run();

  alias::SteensgaardAnalysis AA(M);
  pre::PromotionConfig Config = pre::PromotionConfig::alat();
  Config.EnableCascade = true; // allow chk.a on the address part
  pre::PromotionStats Stats =
      pre::promoteModule(M, AA, &AP, nullptr, Config);

  // Flip the run-time mode by prepending a store.
  Stmt SetMode;
  SetMode.Kind = StmtKind::Store;
  SetMode.Ref = directRef(M.symbol(0)); // mode is the first symbol
  SetMode.A = Operand::constInt(Mode);
  M.function(0)->entry()->insertBefore(0, SetMode);
  M.function(0)->recomputeCFG();

  auto MM = codegen::lowerModule(M);
  codegen::allocateRegisters(*MM);
  arch::SimResult R = arch::simulate(*MM, arch::SimConfig());
  // The training run saw mode 0; the oracle for this input is an
  // interpreter run of the program with the mode store in place.
  interp::RunResult Oracle = interp::Interpreter(M).run();
  if (!R.Ok || R.Output != Oracle.Output) {
    errs() << Label << ": simulated run differs from the interpreter: "
           << R.Error << "\n";
    return false;
  }

  outs() << Label << ": output = " << R.Output[0] << ", " << R.Output[1]
         << "; chk.a recoveries = " << R.Counters.ChkARecoveries
         << "; cascade checks planned = " << Stats.CascadeChecks << "\n";
  return true;
}

int main() {
  outs() << "Figure 4 cascade demo: *p promoted while p itself may be "
            "redirected by *q = ...\n\n";
  bool Ok = runMode("no collision (q -> b)  ", 0);
  Ok = runMode("collision    (q -> p)  ", 1) && Ok;
  outs() << "\nexpected: first line prints 51, 53 with zero recoveries; "
            "second prints 51, 63 after a chk.a recovery reloaded both "
            "the pointer and the data.\n";
  return Ok ? 0 : 1;
}
