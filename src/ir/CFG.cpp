//===- CFG.cpp - Basic blocks, functions, modules --------------------------===//

#include "ir/CFG.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>

using namespace srp;
using namespace srp::ir;

//===----------------------------------------------------------------------===//
// BasicBlock
//===----------------------------------------------------------------------===//

Stmt *BasicBlock::append(Stmt S) {
  S.Id = Parent->nextStmtId();
  Stmts.push_back(
      Parent->getParent()->arena().create<Stmt>(std::move(S)));
  return Stmts.back();
}

Stmt *BasicBlock::insertBefore(size_t Pos, Stmt S) {
  assert(Pos <= Stmts.size() && "insert position out of range");
  S.Id = Parent->nextStmtId();
  Stmt *P = Parent->getParent()->arena().create<Stmt>(std::move(S));
  Stmts.insert(Stmts.begin() + static_cast<ptrdiff_t>(Pos), P);
  return P;
}

void BasicBlock::erase(size_t Pos) {
  assert(Pos < Stmts.size() && "erase position out of range");
  Stmts.erase(Stmts.begin() + static_cast<ptrdiff_t>(Pos));
}

size_t BasicBlock::positionOf(const Stmt *S) const {
  for (size_t I = 0, E = Stmts.size(); I != E; ++I)
    if (Stmts[I] == S)
      return I;
  SRP_UNREACHABLE("statement not in block");
}

//===----------------------------------------------------------------------===//
// Function
//===----------------------------------------------------------------------===//

BasicBlock *Function::createBlock(std::string Name) {
  unsigned Id = static_cast<unsigned>(Blocks.size());
  Blocks.push_back(
      Parent->arena().create<BasicBlock>(Id, std::move(Name), this));
  return Blocks.back();
}

unsigned Function::createTemp(TypeKind Type) {
  TempTypes.push_back(Type);
  return static_cast<unsigned>(TempTypes.size()) - 1;
}

void Function::recomputeCFG() {
  for (BasicBlock *BB : Blocks) {
    BB->Preds.clear();
    BB->Succs.clear();
  }
  for (BasicBlock *BB : Blocks) {
    Terminator &T = BB->Term;
    switch (T.Kind) {
    case TermKind::Br:
      assert(T.Target && "br without target");
      BB->Succs.push_back(T.Target);
      break;
    case TermKind::CondBr:
      assert(T.Target && T.FalseTarget && "condbr without targets");
      BB->Succs.push_back(T.Target);
      if (T.FalseTarget != T.Target)
        BB->Succs.push_back(T.FalseTarget);
      break;
    case TermKind::Ret:
      break;
    }
    for (BasicBlock *Succ : BB->Succs)
      Succ->Preds.push_back(BB);
  }
}

std::vector<const BasicBlock *> srp::ir::reversePostorder(const Function &F) {
  std::vector<const BasicBlock *> Order;
  if (F.numBlocks() == 0)
    return Order;
  // Iterative DFS from the entry collecting postorder, reversed at the end.
  std::vector<char> Seen(F.numBlocks(), 0);
  std::vector<std::pair<const BasicBlock *, size_t>> Stack{{F.entry(), 0}};
  Seen[F.entry()->getId()] = 1;
  while (!Stack.empty()) {
    auto &[BB, Next] = Stack.back();
    if (Next < BB->succs().size()) {
      const BasicBlock *Succ = BB->succs()[Next++];
      if (!Seen[Succ->getId()]) {
        Seen[Succ->getId()] = 1;
        Stack.push_back({Succ, 0});
      }
      continue;
    }
    Order.push_back(BB);
    Stack.pop_back();
  }
  std::reverse(Order.begin(), Order.end());
  return Order;
}

//===----------------------------------------------------------------------===//
// Module
//===----------------------------------------------------------------------===//

Symbol *Module::allocateSymbol(std::string Name, SymbolKind Kind,
                               TypeKind ElemType, unsigned NumElems,
                               Function *Parent) {
  assert(NumElems >= 1 && "symbol must have at least one element");
  Symbol Sym;
  Sym.Id = static_cast<unsigned>(Symbols.size());
  Sym.Name = std::move(Name);
  Sym.Kind = Kind;
  Sym.ElemType = ElemType;
  Sym.NumElems = NumElems;
  Sym.Parent = Parent;
  Symbols.push_back(std::move(Sym));
  return &Symbols.back();
}

Symbol *Module::createGlobal(std::string Name, TypeKind ElemType,
                             unsigned NumElems) {
  Symbol *Sym = allocateSymbol(std::move(Name), SymbolKind::Global, ElemType,
                               NumElems, nullptr);
  Globals.push_back(Sym);
  return Sym;
}

Symbol *Module::createLocal(Function *Parent, std::string Name,
                            TypeKind ElemType, unsigned NumElems,
                            bool IsFormal) {
  assert(Parent && "local symbol needs a parent function");
  Symbol *Sym = allocateSymbol(
      std::move(Name), IsFormal ? SymbolKind::Formal : SymbolKind::Local,
      ElemType, NumElems, Parent);
  if (IsFormal)
    Parent->addFormal(Sym);
  else
    Parent->addLocal(Sym);
  return Sym;
}

Symbol *Module::createHeapSite(std::string Name, TypeKind ElemType) {
  Symbol *Sym = allocateSymbol(std::move(Name), SymbolKind::HeapSite,
                               ElemType, 1, nullptr);
  // Heap objects escape by construction: their address is the alloc result.
  Sym->AddressTaken = true;
  HeapSites.push_back(Sym);
  return Sym;
}

Function *Module::createFunction(std::string Name) {
  Functions.push_back(
      IRArena.create<Function>(std::move(Name), this, numFunctions()));
  return Functions.back();
}

Function *Module::findFunction(std::string_view Name) {
  for (Function *F : Functions)
    if (F->getName() == Name)
      return F;
  return nullptr;
}

void Module::reset() {
  Functions.clear();
  Globals.clear();
  HeapSites.clear();
  Symbols.clear();
  IRArena.reset();
}
