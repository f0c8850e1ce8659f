//===- IRBuilder.h - Convenience IR construction ----------------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Appends statements to a current block and manufactures temps, so tests,
/// examples and the synthetic SPEC-like workloads can build IR tersely.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_IR_IRBUILDER_H
#define SRP_IR_IRBUILDER_H

#include "ir/CFG.h"

#include <cassert>

namespace srp::ir {

/// Statement-appending helper bound to a Module and a current insertion
/// block. All emit* functions append to the current block and return the
/// defined temp id (where one exists).
class IRBuilder {
public:
  explicit IRBuilder(Module &M) : M(M) {}

  Module &module() { return M; }
  Function *function() { return F; }
  BasicBlock *block() { return BB; }

  /// Creates a function and positions the builder at a fresh entry block.
  Function *startFunction(std::string Name) {
    F = M.createFunction(std::move(Name));
    BB = F->createBlock("entry");
    return F;
  }

  void setBlock(BasicBlock *Block) { BB = Block; }

  BasicBlock *createBlock(std::string Name) {
    assert(F && "no current function");
    return F->createBlock(std::move(Name));
  }

  unsigned emitLoad(MemRef Ref, SpecFlag Flag = SpecFlag::None) {
    Stmt S;
    S.Kind = StmtKind::Load;
    S.Ref = Ref;
    S.Flag = Flag;
    unsigned Dst = S.Dst = F->createTemp(Ref.ValueType);
    BB->append(std::move(S));
    return Dst;
  }

  void emitStore(MemRef Ref, Operand Val) {
    Stmt S;
    S.Kind = StmtKind::Store;
    S.Ref = Ref;
    S.A = Val;
    BB->append(std::move(S));
  }

  unsigned emitAssign(Opcode Op, Operand A, Operand B = Operand()) {
    Stmt S;
    S.Kind = StmtKind::Assign;
    S.Op = Op;
    S.A = A;
    S.B = B;
    TypeKind ResultType =
        opcodeProducesFloat(Op) ? TypeKind::Float : TypeKind::Int;
    if (Op == Opcode::Copy || Op == Opcode::Select)
      ResultType = operandType(Op == Opcode::Select ? B : A);
    unsigned Dst = S.Dst = F->createTemp(ResultType);
    BB->append(std::move(S));
    return Dst;
  }

  unsigned emitSelect(Operand Cond, Operand TrueVal, Operand FalseVal) {
    Stmt S;
    S.Kind = StmtKind::Assign;
    S.Op = Opcode::Select;
    S.A = Cond;
    S.B = TrueVal;
    S.C = FalseVal;
    unsigned Dst = S.Dst = F->createTemp(operandType(TrueVal));
    BB->append(std::move(S));
    return Dst;
  }

  unsigned emitAddrOf(Symbol *Sym, Operand Index = Operand(),
                      int64_t Offset = 0) {
    Stmt S;
    S.Kind = StmtKind::AddrOf;
    S.Ref.Base = Sym;
    S.Ref.Index = Index;
    S.Ref.Offset = Offset;
    S.Ref.ValueType = Sym->ElemType;
    unsigned Dst = S.Dst = F->createTemp(TypeKind::Int);
    Sym->AddressTaken = true;
    BB->append(std::move(S));
    return Dst;
  }

  /// Allocates a heap object of \p Count 8-byte elements; creates (or
  /// reuses) the named allocation-site symbol.
  unsigned emitAlloc(Operand Count, std::string SiteName,
                     TypeKind ElemType = TypeKind::Int) {
    Stmt S;
    S.Kind = StmtKind::Alloc;
    S.A = Count;
    S.HeapSym = M.createHeapSite(std::move(SiteName), ElemType);
    unsigned Dst = S.Dst = F->createTemp(TypeKind::Int);
    BB->append(std::move(S));
    return Dst;
  }

  /// Emits a call; returns the result temp or NoTemp for void calls.
  unsigned emitCall(Function *Callee, std::vector<Operand> Args) {
    Stmt S;
    S.Kind = StmtKind::Call;
    S.Callee = Callee;
    S.Args = std::move(Args);
    unsigned Dst = S.Dst = Callee->HasReturnValue
                               ? F->createTemp(Callee->ReturnType)
                               : NoTemp;
    BB->append(std::move(S));
    return Dst;
  }

  void emitPrint(Operand Val) {
    Stmt S;
    S.Kind = StmtKind::Print;
    S.A = Val;
    BB->append(std::move(S));
  }

  void emitInvala(unsigned TempId) {
    Stmt S;
    S.Kind = StmtKind::Invala;
    S.Dst = TempId;
    BB->append(std::move(S));
  }

  void setBr(BasicBlock *Target) {
    BB->term() = Terminator();
    BB->term().Kind = TermKind::Br;
    BB->term().Target = Target;
  }

  void setCondBr(Operand Cond, BasicBlock *TrueBB, BasicBlock *FalseBB) {
    BB->term() = Terminator();
    BB->term().Kind = TermKind::CondBr;
    BB->term().Cond = Cond;
    BB->term().Target = TrueBB;
    BB->term().FalseTarget = FalseBB;
  }

  void setRet(Operand Val = Operand()) {
    BB->term() = Terminator();
    BB->term().Kind = TermKind::Ret;
    BB->term().RetVal = Val;
    if (!Val.isNone()) {
      F->HasReturnValue = true;
      F->ReturnType = operandType(Val);
    }
  }

  /// Type of an operand in the current function.
  TypeKind operandType(const Operand &Op) const {
    switch (Op.K) {
    case Operand::Kind::Temp:
      return F->tempType(Op.getTemp());
    case Operand::Kind::ConstFloat:
      return TypeKind::Float;
    default:
      return TypeKind::Int;
    }
  }

private:
  Module &M;
  Function *F = nullptr;
  BasicBlock *BB = nullptr;
};

} // namespace srp::ir

#endif // SRP_IR_IRBUILDER_H
