//===- CFG.h - Basic blocks, functions, modules -----------------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The container types of the IR: BasicBlock (a statement list plus a
/// terminator), Function (a CFG plus symbol/temp tables) and Module (the
/// translation unit: globals, heap sites and functions).
///
//===----------------------------------------------------------------------===//

#ifndef SRP_IR_CFG_H
#define SRP_IR_CFG_H

#include "ir/Stmt.h"

#include "support/Arena.h"

#include <deque>
#include <string>
#include <vector>

namespace srp::ir {

class Module;

/// A straight-line statement list ending in one terminator.
class BasicBlock {
public:
  BasicBlock(unsigned Id, std::string Name, Function *Parent)
      : Id(Id), Name(std::move(Name)), Parent(Parent) {}

  unsigned getId() const { return Id; }
  const std::string &getName() const { return Name; }
  Function *getParent() const { return Parent; }

  /// Appends a statement and returns it.
  Stmt *append(Stmt S);

  /// Inserts a statement before position \p Pos and returns it.
  Stmt *insertBefore(size_t Pos, Stmt S);

  /// Inserts a statement after position \p Pos and returns it.
  Stmt *insertAfter(size_t Pos, Stmt S) { return insertBefore(Pos + 1, S); }

  /// Removes the statement at position \p Pos.
  void erase(size_t Pos);

  /// Returns the position of \p S; asserts if absent.
  size_t positionOf(const Stmt *S) const;

  size_t size() const { return Stmts.size(); }
  Stmt *stmt(size_t I) { return Stmts[I]; }
  const Stmt *stmt(size_t I) const { return Stmts[I]; }

  Terminator &term() { return Term; }
  const Terminator &term() const { return Term; }

  /// CFG edges; valid after Function::recomputeCFG().
  const std::vector<BasicBlock *> &preds() const { return Preds; }
  const std::vector<BasicBlock *> &succs() const { return Succs; }

private:
  friend class Function;

  unsigned Id;
  std::string Name;
  Function *Parent;
  /// Statement order; the Stmt objects live in the module's arena.
  /// erase() only unlinks — the object is reclaimed at arena teardown.
  std::vector<Stmt *> Stmts;
  Terminator Term;
  std::vector<BasicBlock *> Preds;
  std::vector<BasicBlock *> Succs;
};

/// A function: formals, locals, temps and a CFG whose first block is the
/// entry.
class Function {
public:
  Function(std::string Name, Module *Parent, unsigned Index)
      : Name(std::move(Name)), Parent(Parent), Index(Index) {}

  const std::string &getName() const { return Name; }
  Module *getParent() const { return Parent; }

  /// Position in the module's function list, fixed at creation. Profiles
  /// key functions by it (interp/Profile.h).
  unsigned index() const { return Index; }

  /// Creates and appends a new block.
  BasicBlock *createBlock(std::string Name);

  unsigned numBlocks() const { return static_cast<unsigned>(Blocks.size()); }
  BasicBlock *block(unsigned I) { return Blocks[I]; }
  const BasicBlock *block(unsigned I) const { return Blocks[I]; }
  BasicBlock *entry() { return Blocks.front(); }
  const BasicBlock *entry() const { return Blocks.front(); }

  /// Creates a fresh temp of \p Type and returns its id.
  unsigned createTemp(TypeKind Type);

  unsigned numTemps() const { return static_cast<unsigned>(TempTypes.size()); }
  TypeKind tempType(unsigned Id) const { return TempTypes[Id]; }

  /// Re-types a temp. Only the text parser uses this: a use can mention a
  /// temp before its defining statement fixes the type.
  void setTempType(unsigned Id, TypeKind Type) { TempTypes[Id] = Type; }

  /// Registers a local or formal symbol (owned by the Module's table).
  void addLocal(Symbol *Sym) { Locals.push_back(Sym); }
  void addFormal(Symbol *Sym) { Formals.push_back(Sym); }

  const std::vector<Symbol *> &locals() const { return Locals; }
  const std::vector<Symbol *> &formals() const { return Formals; }

  /// Recomputes pred/succ edges from the terminators. Block and statement
  /// ids are left alone. Must be called after structural edits and before
  /// any analysis.
  void recomputeCFG();

  /// Returns a fresh statement id. BasicBlock::append and insertBefore
  /// call it, so ids are unique within the function and never reused or
  /// renumbered: erasing a statement retires its id.
  unsigned nextStmtId() { return NextStmtId++; }

  /// One past the largest statement id handed out so far. Analyses that
  /// index per-statement tables by ir::Stmt::Id size them by this; a
  /// statement created after such a table was built has an id at or
  /// above the table's size.
  unsigned numStmtIds() const { return NextStmtId; }

  /// Whether the function returns a value, and its type.
  bool HasReturnValue = false;
  TypeKind ReturnType = TypeKind::Int;

private:
  std::string Name;
  Module *Parent;
  std::vector<BasicBlock *> Blocks; ///< Objects live in the module arena.
  std::vector<TypeKind> TempTypes;
  std::vector<Symbol *> Locals;
  std::vector<Symbol *> Formals;
  unsigned Index;
  unsigned NextStmtId = 0;
};

/// The blocks reachable from \p F's entry, in reverse postorder of a
/// depth-first walk over succs() (entry first; every block precedes its
/// successors except along back edges). Needs up-to-date CFG edges
/// (Function::recomputeCFG); empty for a function without blocks.
std::vector<const BasicBlock *> reversePostorder(const Function &F);

/// A whole program: globals, heap-site names and functions. The function
/// named "main" is the entry point for the interpreter and the simulator.
class Module {
public:
  Module() = default;
  Module(const Module &) = delete;
  Module &operator=(const Module &) = delete;

  /// The allocator behind every Stmt, BasicBlock and Function of this
  /// module; their addresses are stable until reset() or destruction.
  Arena &arena() { return IRArena; }

  /// Drops all IR and recycles the arena slabs, returning the module to
  /// its freshly-constructed state. Lets a pipeline state be reused
  /// across runs without paying slab allocation again; every pointer
  /// into the module is dead afterwards.
  void reset();

  /// Creates a global symbol.
  Symbol *createGlobal(std::string Name, TypeKind ElemType,
                       unsigned NumElems = 1);

  /// Creates a local/formal symbol owned by \p Parent.
  Symbol *createLocal(Function *Parent, std::string Name, TypeKind ElemType,
                      unsigned NumElems = 1, bool IsFormal = false);

  /// Creates the abstract heap-site symbol for one alloc statement.
  Symbol *createHeapSite(std::string Name, TypeKind ElemType);

  /// Creates a function.
  Function *createFunction(std::string Name);

  /// Returns the function named \p Name, or null.
  Function *findFunction(std::string_view Name);
  const Function *findFunction(std::string_view Name) const {
    return const_cast<Module *>(this)->findFunction(Name);
  }

  unsigned numFunctions() const {
    return static_cast<unsigned>(Functions.size());
  }
  Function *function(unsigned I) { return Functions[I]; }
  const Function *function(unsigned I) const { return Functions[I]; }

  const std::vector<Symbol *> &globals() const { return Globals; }
  const std::vector<Symbol *> &heapSites() const { return HeapSites; }

  unsigned numSymbols() const {
    return static_cast<unsigned>(Symbols.size());
  }
  Symbol *symbol(unsigned Id) { return &Symbols[Id]; }
  const Symbol *symbol(unsigned Id) const { return &Symbols[Id]; }

private:
  Symbol *allocateSymbol(std::string Name, SymbolKind Kind, TypeKind ElemType,
                         unsigned NumElems, Function *Parent);

  /// Declared first so it is destroyed last: the arena teardown runs
  /// Function/BasicBlock/Stmt destructors, which must not outlive it.
  Arena IRArena;
  std::deque<Symbol> Symbols; ///< Stable storage for all symbols.
  std::vector<Symbol *> Globals;
  std::vector<Symbol *> HeapSites;
  std::vector<Function *> Functions; ///< Objects live in the arena.
};

} // namespace srp::ir

#endif // SRP_IR_CFG_H
