//===- Parser.h - Textual IR parser -----------------------------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses the textual IR format ir::Printer emits, so programs can be
/// written as text in tests and tools and printed IR round-trips.
///
/// Grammar sketch (one construct per line, '#' comments):
///
///   global NAME : TYPE[N]?
///   func NAME(NAME : TYPE, ...) -> TYPE? {
///     local NAME : TYPE[N]?
///   LABEL:
///     tN = ld<flag>? MEMREF (@addr(tM))? (addr->tM)?
///     st<st.a>? MEMREF = OPERAND (addr->tM)? (alat->tM)?
///     tN = OPCODE OPERAND (, OPERAND)*
///     tN = addrof MEMREF
///     tN = alloc OPERAND @SITE
///     tN = call NAME(OPERANDS) | call NAME(OPERANDS)
///     invala tN
///     print OPERAND
///     br LABEL | condbr OPERAND, LABEL, LABEL | ret OPERAND?
///   }
///
///   MEMREF  := '*'* NAME ('[' OPERAND ']')? ('{' ±INT '}')? (':flt')?
///   OPERAND := tN | INT | FLOATf
///
/// INT is a decimal int64. FLOAT is a decimal literal (digits, '.', an
/// 'e' exponent) whose value a double holds without overflowing or
/// underflowing to zero. A malformed or out-of-range number is an error,
/// not its longest valid prefix or a saturated value. A line whose last
/// character is ':' is a block label.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_IR_PARSER_H
#define SRP_IR_PARSER_H

#include <string>
#include <string_view>

namespace srp::ir {

class Module;

/// Parses \p Text into \p M. Returns true on success; on failure returns
/// false and sets \p Error to a "line N: message" diagnostic. The module
/// may be partially populated on failure.
bool parseModule(std::string_view Text, Module &M, std::string &Error);

} // namespace srp::ir

#endif // SRP_IR_PARSER_H
