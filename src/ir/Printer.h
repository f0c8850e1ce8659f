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

/// Returns the whole module as a string: its canonical form. Parsing
/// normalizes away whitespace, comments and formatting, and the printer
/// emits functions, blocks, symbols and statements in their defined
/// order with one fixed spelling, so two inputs that parse to the same
/// program print byte-identical text, and printing a parse of the text
/// reproduces it (pinned by ResultCacheTest over the fuzz-repro corpus).
/// The serve cache keys inline programs on this text and compares it on
/// lookup (core::ResultCache), so a hash of it is never an identity.
std::string moduleToString(const Module &M);

} // namespace srp::ir

#endif // SRP_IR_PRINTER_H
