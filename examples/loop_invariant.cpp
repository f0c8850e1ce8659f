//===- loop_invariant.cpp - Figure 3: speculative invariant hoisting ----------===//
//
// The paper's loop scenario: `*p` is loop-invariant at run time, but the
// compiler must assume `*q = ...` inside the loop may clobber it. With
// ALAT speculation the load hoists to the preheader as ld.sa and each
// iteration pays only a free ld.c.nc check after the store (§2.3).
// Exits 1 unless the simulated run prints what the training run printed.
//
// Build: cmake --build build && ./build/examples/loop_invariant
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
  Symbol *C = M.createGlobal("c", TypeKind::Int);
  Symbol *P = M.createGlobal("p", TypeKind::Int);
  Symbol *Q = M.createGlobal("q", TypeKind::Int);
  Symbol *I = M.createGlobal("i", TypeKind::Int);
  Symbol *Sum = M.createGlobal("sum", TypeKind::Int);

  IRBuilder B(M);
  B.startFunction("main");
  BasicBlock *Hdr = B.createBlock("hdr");
  BasicBlock *Body = B.createBlock("body");
  BasicBlock *Exit = B.createBlock("exit");

  // Static ambiguity: both pointers could hold either address...
  unsigned TA = B.emitAddrOf(A);
  unsigned TC = B.emitAddrOf(C);
  B.emitStore(directRef(P), Operand::temp(TC));
  B.emitStore(directRef(Q), Operand::temp(TA));
  // ...but at run time p = &a and q = &c: they never collide.
  B.emitStore(directRef(P), Operand::temp(TA));
  B.emitStore(directRef(Q), Operand::temp(TC));
  B.emitStore(directRef(A), Operand::constInt(1000));
  B.emitStore(directRef(I), Operand::constInt(0));
  B.setBr(Hdr);

  B.setBlock(Hdr);
  unsigned TI = B.emitLoad(directRef(I));
  unsigned TCmp = B.emitAssign(Opcode::CmpLt, Operand::temp(TI),
                               Operand::constInt(100));
  B.setCondBr(Operand::temp(TCmp), Body, Exit);

  B.setBlock(Body);
  B.emitStore(indirectRef(Q, TypeKind::Int), Operand::temp(TI));
  unsigned TP = B.emitLoad(indirectRef(P, TypeKind::Int)); // invariant!
  unsigned TS = B.emitLoad(directRef(Sum));
  unsigned TAdd = B.emitAssign(Opcode::Add, Operand::temp(TS),
                               Operand::temp(TP));
  B.emitStore(directRef(Sum), Operand::temp(TAdd));
  unsigned TInc = B.emitAssign(Opcode::Add, Operand::temp(TI),
                               Operand::constInt(1));
  B.emitStore(directRef(I), Operand::temp(TInc));
  B.setBr(Hdr);

  B.setBlock(Exit);
  unsigned TOut = B.emitLoad(directRef(Sum));
  B.emitPrint(Operand::temp(TOut));
  B.setRet();
}

int main() {
  Module M;
  buildProgram(M);
  M.function(0)->recomputeCFG();

  // Train run: the edge profile proves the loop is hot and the alias
  // profile proves *q never hits *p's target.
  interp::AliasProfile AP;
  interp::EdgeProfile EP;
  interp::Interpreter Train(M);
  Train.setAliasProfile(&AP);
  Train.setEdgeProfile(&EP);
  interp::RunResult Trained = Train.run();

  alias::SteensgaardAnalysis AA(M);
  pre::promoteModule(M, AA, &AP, &EP, pre::PromotionConfig::alat());

  outs() << "--- after promotion: note ld.sa in the preheader and the "
            "ld.c.nc check after *q = ... ---\n";
  printModule(M, outs());

  auto MM = codegen::lowerModule(M);
  codegen::allocateRegisters(*MM);
  arch::SimResult R = arch::simulate(*MM, arch::SimConfig());
  if (!R.Ok || R.Output != Trained.Output) {
    errs() << "simulated run differs from the interpreter: " << R.Error
           << "\n";
    return 1;
  }
  outs() << "sum = " << R.Output[0] << " (expect 100000)\n";
  outs() << "ALAT checks: " << R.Counters.AlatChecks << ", failures: "
         << R.Counters.AlatCheckFailures
         << " (the hoist is never wrong at run time)\n";
  return 0;
}
