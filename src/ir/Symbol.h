//===- Symbol.h - Named memory objects --------------------------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Symbols are the named memory objects of the IR: globals, locals, formals
/// and heap allocation sites. All memory state lives in symbols; temps are
/// pure SSA-like values. Register promotion is precisely the act of keeping
/// a symbol's (or pointee's) content in a temp across statements that might
/// alias it.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_IR_SYMBOL_H
#define SRP_IR_SYMBOL_H

#include "ir/Type.h"

#include <string>

namespace srp::ir {

class Function;

/// Storage class of a symbol.
enum class SymbolKind : uint8_t {
  Global,   ///< Module-scope object, fixed address.
  Local,    ///< Function-scope object on the stack frame.
  Formal,   ///< Incoming parameter (also stack-frame resident).
  HeapSite, ///< Abstract name for all objects created by one alloc site.
};

/// A named memory object.
///
/// A symbol of \c NumElems == 1 is a scalar; larger values declare an array
/// of 8-byte elements of \c ElemType. HeapSite symbols do not occupy
/// storage themselves; they name the family of runtime objects a given
/// alloc statement creates, which is the granularity the alias analysis and
/// the alias profiler agree on (heap naming per Chen et al. [7]).
struct Symbol {
  unsigned Id = 0;             ///< Unique within the Module.
  std::string Name;            ///< Unique within its scope.
  SymbolKind Kind = SymbolKind::Global;
  TypeKind ElemType = TypeKind::Int;
  unsigned NumElems = 1;       ///< Scalar if 1; array extent otherwise.
  bool AddressTaken = false;   ///< Some AddrOf statement names this symbol.
  /// The object's contents are confidential (`secret` in .sir). The
  /// taint analyses (analysis::TaintFlow, the interpreter's shadow
  /// propagation) treat every value derived from it as tainted; a tainted
  /// value reaching an address, branch or output while speculative is a
  /// leak. Promotion and codegen ignore the label entirely.
  bool Secret = false;
  Function *Parent = nullptr;  ///< Owning function; null for globals/heap.

  bool isScalar() const { return NumElems == 1; }
  bool isHeapSite() const { return Kind == SymbolKind::HeapSite; }

  /// Size in bytes of the object's storage (elements are 8 bytes).
  uint64_t sizeInBytes() const { return uint64_t(NumElems) * 8; }
};

} // namespace srp::ir

#endif // SRP_IR_SYMBOL_H
