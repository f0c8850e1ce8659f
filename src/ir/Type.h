//===- Type.h - IR enums: types, opcodes, speculation flags -----*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scalar value types, arithmetic opcodes and data-speculation flags of the
/// mid-level IR. All values are 64-bit; pointers are integer-typed
/// addresses. Float is separate because Itanium floating-point loads bypass
/// the L1 data cache (9-cycle latency vs 2), which is one of the performance
/// effects the paper's evaluation hinges on.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_IR_TYPE_H
#define SRP_IR_TYPE_H

#include <cstdint>

namespace srp::ir {

/// Scalar type of a value or memory element.
enum class TypeKind : uint8_t {
  Int,   ///< 64-bit integer; also used for addresses/pointers.
  Float, ///< 64-bit IEEE double.
};

/// Returns a printable name ("int" / "float").
const char *typeName(TypeKind Kind);

/// Operation performed by an Assign statement.
enum class Opcode : uint8_t {
  Copy,
  // Integer arithmetic / logic. Add, Sub and Mul wrap modulo 2^64.
  Add,
  Sub,
  Mul,
  Div, ///< Signed division (divI64): x / 0 = 0, INT64_MIN / -1 = INT64_MIN.
  Rem, ///< Signed remainder (remI64): x % 0 = 0, x % -1 = 0.
  And,
  Or,
  Xor,
  Shl, ///< Shift amount is masked to 6 bits.
  Shr, ///< Logical right shift; amount masked to 6 bits.
  // Integer comparisons, producing 0/1.
  CmpEq,
  CmpNe,
  CmpLt,
  CmpLe,
  // Floating point.
  FAdd,
  FSub,
  FMul,
  FDiv,
  FCmpLt, ///< Produces integer 0/1.
  // Conversions.
  IntToFp,
  FpToInt,
  // Ternary: Dst = A != 0 ? B : C is modeled as two statements; Select
  // keeps the IR small: Dst = (A != 0) ? B : B2 where B2 rides in C.
  Select,
};

/// Signed 64-bit division as the interpreter and the simulator execute
/// it: total, so no operand pair traps the host.
inline uint64_t divI64(uint64_t A, uint64_t B) {
  auto SA = static_cast<int64_t>(A), SB = static_cast<int64_t>(B);
  if (SB == 0)
    return 0;
  return SB == -1 ? 0 - A : static_cast<uint64_t>(SA / SB);
}

/// Signed 64-bit remainder, total like divI64.
inline uint64_t remI64(uint64_t A, uint64_t B) {
  auto SA = static_cast<int64_t>(A), SB = static_cast<int64_t>(B);
  return SB == 0 || SB == -1 ? 0 : static_cast<uint64_t>(SA % SB);
}

/// Returns the mnemonic for \p Op (e.g. "add").
const char *opcodeName(Opcode Op);

/// Returns true if \p Op produces a Float result.
bool opcodeProducesFloat(Opcode Op);

/// Data-speculation flag attached to a Load statement by the speculative
/// register promotion pass. Guides lowering to the IA-64-style ISA.
enum class SpecFlag : uint8_t {
  None,   ///< Plain load.
  LdA,    ///< Advanced load: allocates an ALAT entry (ld.a).
  LdSA,   ///< Speculative advanced load hoisted out of a loop (ld.sa).
  LdC,    ///< Checking load, clears the ALAT entry on success (ld.c.clr).
  LdCnc,  ///< Checking load, keeps the ALAT entry (ld.c.nc).
  ChkA,   ///< Check with recovery branch, clearing completer (chk.a.clr).
  ChkAnc, ///< Check with recovery branch, non-clearing (chk.a.nc).
};

/// Returns the assembly-style mnemonic suffix for \p Flag ("" for None).
const char *specFlagName(SpecFlag Flag);

/// Returns true if \p Flag marks a check (ld.c / chk.a family).
bool isCheckFlag(SpecFlag Flag);

/// Returns true if \p Flag marks an advanced load (ld.a / ld.sa).
bool isAdvancedFlag(SpecFlag Flag);

} // namespace srp::ir

#endif // SRP_IR_TYPE_H
