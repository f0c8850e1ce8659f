//===- Value.h - Operands and memory references -----------------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Operand (temp or constant) and MemRef, the lexical memory reference the
/// whole promotion machinery revolves around. A MemRef describes an access
/// path anchored at a symbol:
///
///   address(0)  = &Base
///   address(i)  = mem[address(i-1)]            for i in 1..Depth
///   final       = address(Depth) + Index*8 + Offset
///
/// so Depth=0 covers `a` and `a[i]`, Depth=1 covers `*p`, `p[i]` and
/// `p->f`, Depth=2 covers `**q`. Two MemRefs with equal (Base, Depth,
/// Index, Offset) are the same *lexical expression* for PRE purposes.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_IR_VALUE_H
#define SRP_IR_VALUE_H

#include "ir/Symbol.h"

#include <cassert>
#include <cstdint>

namespace srp::ir {

/// Sentinel for "no temp".
inline constexpr unsigned NoTemp = ~0u;

/// A statement operand: a temp reference or an immediate constant.
struct Operand {
  enum class Kind : uint8_t { None, Temp, ConstInt, ConstFloat };

  Kind K = Kind::None;
  unsigned TempId = NoTemp;
  int64_t IntVal = 0;
  double FloatVal = 0.0;

  Operand() = default;

  static Operand temp(unsigned Id) {
    Operand Op;
    Op.K = Kind::Temp;
    Op.TempId = Id;
    return Op;
  }

  static Operand constInt(int64_t Value) {
    Operand Op;
    Op.K = Kind::ConstInt;
    Op.IntVal = Value;
    return Op;
  }

  static Operand constFloat(double Value) {
    Operand Op;
    Op.K = Kind::ConstFloat;
    Op.FloatVal = Value;
    return Op;
  }

  bool isNone() const { return K == Kind::None; }
  bool isTemp() const { return K == Kind::Temp; }

  unsigned getTemp() const {
    assert(isTemp() && "not a temp operand");
    return TempId;
  }

  friend bool operator==(const Operand &L, const Operand &R) {
    if (L.K != R.K)
      return false;
    switch (L.K) {
    case Kind::None:
      return true;
    case Kind::Temp:
      return L.TempId == R.TempId;
    case Kind::ConstInt:
      return L.IntVal == R.IntVal;
    case Kind::ConstFloat:
      return L.FloatVal == R.FloatVal;
    }
    return false;
  }
};

/// Deepest dereference chain the verifier accepts (`**q`). Analyses size
/// their per-level tables by it.
inline constexpr unsigned MaxRefDepth = 2;

/// A lexical memory reference (access path). See the file comment for the
/// address computation.
struct MemRef {
  Symbol *Base = nullptr;
  unsigned Depth = 0;  ///< Number of dereferences through memory.
  Operand Index;       ///< Optional; scaled by the 8-byte element size.
  int64_t Offset = 0;  ///< Constant byte offset on the final address.
  TypeKind ValueType = TypeKind::Int; ///< Type of the accessed element.

  /// True for plain named-variable accesses (`a`, `a[i]`).
  bool isDirect() const { return Depth == 0; }

  /// True if the access goes through at least one loaded pointer.
  bool isIndirect() const { return Depth > 0; }

  bool hasIndex() const { return !Index.isNone(); }

  /// True if two references are the same lexical expression (same base,
  /// same dereference depth, identical index operand and offset). This is
  /// the occurrence-grouping key of SSAPRE.
  bool sameLexicalRef(const MemRef &Other) const {
    return Base == Other.Base && Depth == Other.Depth &&
           Index == Other.Index && Offset == Other.Offset;
  }
};

/// Returns a direct scalar reference to \p Sym.
inline MemRef directRef(Symbol *Sym) {
  MemRef Ref;
  Ref.Base = Sym;
  Ref.ValueType = Sym->ElemType;
  return Ref;
}

/// Returns `Sym[Index]`.
inline MemRef arrayRef(Symbol *Sym, Operand Index) {
  MemRef Ref = directRef(Sym);
  Ref.Index = Index;
  return Ref;
}

/// Returns `*Sym` (+ optional constant byte offset), accessing \p ValueType.
inline MemRef indirectRef(Symbol *Sym, TypeKind ValueType,
                          int64_t Offset = 0) {
  MemRef Ref;
  Ref.Base = Sym;
  Ref.Depth = 1;
  Ref.Offset = Offset;
  Ref.ValueType = ValueType;
  return Ref;
}

/// Returns `**Sym`.
inline MemRef doubleIndirectRef(Symbol *Sym, TypeKind ValueType) {
  MemRef Ref = indirectRef(Sym, ValueType);
  Ref.Depth = 2;
  return Ref;
}

} // namespace srp::ir

#endif // SRP_IR_VALUE_H
