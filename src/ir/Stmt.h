//===- Stmt.h - IR statements and terminators -------------------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Statements of the mid-level IR. A statement is a tagged record rather
/// than a class hierarchy: there are only eight kinds and the promotion
/// passes want to pattern-match and rewrite them freely.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_IR_STMT_H
#define SRP_IR_STMT_H

#include "ir/Value.h"

#include <vector>

namespace srp::ir {

class Function;

/// Discriminator for Stmt.
enum class StmtKind : uint8_t {
  Assign, ///< Dst = Op(A, B[, C for Select])
  Load,   ///< Dst = load Ref, possibly flagged ld.a/ld.c/chk.a/...
  Store,  ///< store Ref = A, possibly flagged st.a (ISA extension)
  AddrOf, ///< Dst = &Base + Index*8 + Offset (Ref.Depth must be 0)
  Alloc,  ///< Dst = address of a fresh heap object of A elements
  Call,   ///< [Dst =] Callee(Args...)
  Invala, ///< Invalidate the ALAT entry backing temp Dst (invala.e)
  Print,  ///< Emit A to the program's observable output stream
};

/// One IR statement. Field use by kind:
///   Assign: Dst, Op, A, B (C for Select's false value)
///   Load:   Dst, Ref, Flag
///   Store:  Ref, A (value), StA
///   AddrOf: Dst, Ref (Base/Index/Offset; Depth 0)
///   Alloc:  Dst, A (element count), HeapSym, ElemType via HeapSym
///   Call:   Dst (NoTemp if none), Callee, Args
///   Invala: Dst (the promoted temp whose entry to clear)
///   Print:  A
struct Stmt {
  StmtKind Kind = StmtKind::Assign;
  Opcode Op = Opcode::Copy;
  unsigned Dst = NoTemp;
  Operand A;
  Operand B;
  Operand C;
  MemRef Ref;
  SpecFlag Flag = SpecFlag::None;
  bool StA = false;
  /// Loads/Stores: if set, the statement also writes the final computed
  /// access address into this temp (free in codegen: the address is in a
  /// register anyway). The promotion pass uses it for software
  /// runtime-disambiguation checks and to anchor ALAT entries.
  unsigned AddrDst = NoTemp;
  /// Checking loads (ld.c family): if set, the load takes its address
  /// from this temp instead of re-walking the reference chain. Only the
  /// promotion pass emits this, and only when the address part of the
  /// reference is provably unchanged since the advanced load.
  unsigned AddrSrc = NoTemp;
  /// Stores with StA: the temp whose ALAT entry the st.a allocates.
  unsigned AlatDst = NoTemp;
  Function *Callee = nullptr;
  std::vector<Operand> Args;
  Symbol *HeapSym = nullptr;
  unsigned Id = 0; ///< Unique within the function; stable across edits.
  /// Source line in the .sir file the statement was parsed from, or 0
  /// for statements synthesised by a pass. Diagnostics only.
  unsigned Line = 0;

  bool isLoad() const { return Kind == StmtKind::Load; }
  bool isStore() const { return Kind == StmtKind::Store; }

  /// True if the statement reads or writes memory through \c Ref.
  bool accessesMemory() const { return isLoad() || isStore(); }

  /// True if a checking load draws its address from AddrSrc.
  bool hasAddrSrc() const { return isLoad() && AddrSrc != NoTemp; }

  /// True if the statement defines \c Dst.
  bool definesTemp() const {
    switch (Kind) {
    case StmtKind::Assign:
    case StmtKind::Load:
    case StmtKind::AddrOf:
    case StmtKind::Alloc:
      return true;
    case StmtKind::Call:
      return Dst != NoTemp;
    default:
      return false;
    }
  }

  /// Appends every temp the statement reads to \p Temps.
  void collectUsedTemps(std::vector<unsigned> &Temps) const {
    auto AddOperand = [&Temps](const Operand &Op) {
      if (Op.isTemp())
        Temps.push_back(Op.getTemp());
    };
    AddOperand(A);
    AddOperand(B);
    AddOperand(C);
    if (hasAddrSrc())
      Temps.push_back(AddrSrc);
    else if (accessesMemory() || Kind == StmtKind::AddrOf)
      AddOperand(Ref.Index);
    for (const Operand &Arg : Args)
      AddOperand(Arg);
  }
};

/// Kind of block terminator.
enum class TermKind : uint8_t {
  Br,     ///< Unconditional branch to Target.
  CondBr, ///< Branch to Target if Cond != 0, else FalseTarget.
  Ret,    ///< Return RetVal (may be None).
};

class BasicBlock;

/// Terminator of a basic block.
struct Terminator {
  TermKind Kind = TermKind::Ret;
  Operand Cond;
  BasicBlock *Target = nullptr;
  BasicBlock *FalseTarget = nullptr;
  Operand RetVal;
};

} // namespace srp::ir

#endif // SRP_IR_STMT_H
