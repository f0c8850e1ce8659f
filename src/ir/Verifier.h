//===- Verifier.h - IR structural checks ------------------------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural and type checks over a Module. Passes run the verifier after
/// transforming; tests assert on the collected messages.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_IR_VERIFIER_H
#define SRP_IR_VERIFIER_H

#include <string>
#include <vector>

namespace srp::ir {

class Module;
class Function;

/// Verifies \p M; returns all diagnostics (empty means well-formed).
///
/// Checks include: every block is terminated with in-function targets;
/// temps are in range and used with their declared type; MemRef bases are
/// present, dereference depths go through scalar integer symbols, and
/// direct references stay within declared array extents for constant
/// indices; call argument counts match the callee's formals; alloc
/// statements carry a heap-site symbol; speculation flags have the
/// operands lowering needs (an indirect ld.c its @addr chain pointer, a
/// chk.a a depth-1 reference and @addr, a st.a its alat-> register).
std::vector<std::string> verifyModule(const Module &M);

/// Verifies one function, appending diagnostics to \p Errors.
void verifyFunction(const Function &F, std::vector<std::string> &Errors);

/// Aborts via fatalError if \p M fails verification, printing the first
/// few diagnostics. Convenience for pipeline code and examples.
void verifyOrDie(const Module &M, const char *When);

/// Per-function variant: aborts if \p F fails verification. The fatal
/// message names the failing function alongside \p When, so a pass that
/// verifies each function it touches produces attributable diagnostics
/// ("verifier failed after promotion in function 'walk': ...").
void verifyOrDie(const Function &F, const char *When);

} // namespace srp::ir

#endif // SRP_IR_VERIFIER_H
