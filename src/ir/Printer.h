//===- Printer.h - Textual IR output ----------------------------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prints modules, functions and statements in the project's textual IR
/// format (the same format ir::Parser reads back).
///
//===----------------------------------------------------------------------===//

#ifndef SRP_IR_PRINTER_H
#define SRP_IR_PRINTER_H

#include <string>

namespace srp {
class OStream;
} // namespace srp

namespace srp::ir {

class Module;
class Function;
struct Stmt;
struct MemRef;

/// Prints \p M to \p OS.
void printModule(const Module &M, OStream &OS);

/// Prints \p F to \p OS.
void printFunction(const Function &F, OStream &OS);

/// Returns the statement as a string (handy in tests and traces).
std::string stmtToString(const Stmt &S);

/// Returns the memory reference as a string, e.g. "*p", "buf[t3]".
std::string memRefToString(const MemRef &Ref);

/// Returns the whole module as a string.
std::string moduleToString(const Module &M);

} // namespace srp::ir

#endif // SRP_IR_PRINTER_H
