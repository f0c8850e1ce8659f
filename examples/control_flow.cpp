//===- control_flow.cpp - Figure 2: partial redundancy with invala.e ----------===//
//
// The paper's if-statement scenario: loads of `a` sit inside two rarely
// taken branches around a possibly-aliasing store. Inserting a load on
// the hot else-path (classic PRE speculation) would cost more than it
// saves; the ALAT strategy instead clears the entry at a dominating
// point (invala.e), makes the first occurrence an advanced load, and
// turns the second into a checking load that is free exactly when the
// first branch ran and nothing collided (§2.3, Figure 2). Exits 1
// unless the simulated run prints what the training run printed.
//
// Build: cmake --build build && ./build/examples/control_flow
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
  Symbol *I = M.createGlobal("i", TypeKind::Int);
  Symbol *Acc = M.createGlobal("acc", TypeKind::Int);

  IRBuilder B(M);
  // The diamond lives in a helper driven from a hot loop, so the edge
  // profile shows insertion would be a loss.
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
    unsigned T1 = B.emitLoad(directRef(A)); // rare first occurrence
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
    unsigned T2 = B.emitLoad(directRef(A)); // rare reuse
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
    B.emitStore(directRef(P), Operand::temp(TB)); // runtime: p = &b
    B.emitStore(directRef(A), Operand::constInt(5));
    B.emitStore(directRef(I), Operand::constInt(0));
    B.setBr(Hdr);
    B.setBlock(Hdr);
    unsigned TI = B.emitLoad(directRef(I));
    unsigned TCmp = B.emitAssign(Opcode::CmpLt, Operand::temp(TI),
                                 Operand::constInt(200));
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
}

int main() {
  Module M;
  buildProgram(M);
  for (unsigned I = 0; I < M.numFunctions(); ++I)
    M.function(I)->recomputeCFG();

  interp::AliasProfile AP;
  interp::EdgeProfile EP;
  interp::Interpreter Train(M);
  Train.setAliasProfile(&AP);
  Train.setEdgeProfile(&EP);
  interp::RunResult Trained = Train.run();

  alias::SteensgaardAnalysis AA(M);
  pre::PromotionStats Stats = pre::promoteModule(
      M, AA, &AP, &EP, pre::PromotionConfig::alat());

  outs() << "--- promoted helper: note invala.e at entry, ld.a at the "
            "first occurrence, ld.c.nc at the second ---\n";
  printFunction(*M.findFunction("work"), outs());
  outs() << "invala statements: " << Stats.InvalaInserted
         << ", checking loads kept in place: " << Stats.InvalaModeLoads
         << "\n\n";

  auto MM = codegen::lowerModule(M);
  codegen::allocateRegisters(*MM);
  arch::SimResult R = arch::simulate(*MM, arch::SimConfig());
  if (!R.Ok || R.Output != Trained.Output) {
    errs() << "simulated run differs from the interpreter: " << R.Error
           << "\n";
    return 1;
  }
  outs() << "acc = " << R.Output[0] << "; ALAT checks "
         << R.Counters.AlatChecks << ", reloads "
         << R.Counters.AlatCheckFailures << "\n";
  outs() << "(reloads here are not collisions: the checking load simply "
            "reloads when this call's path skipped the first if — the "
            "price Figure 2's strategy pays instead of inserting loads "
            "on the hot path)\n";
  return 0;
}
