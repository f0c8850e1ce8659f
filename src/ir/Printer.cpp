//===- Printer.cpp - Textual IR output -------------------------------------===//
//
// Every entry point goes through one append-only writer over a std::string:
// numbers are formatted in place with std::to_chars, so printing a module
// makes no temporary strings. Integers print as "%lld"/"%u" would and
// floats in general format at precision 6, which is what "%g" prints.
//
//===----------------------------------------------------------------------===//

#include "ir/Printer.h"

#include "ir/CFG.h"
#include "support/OStream.h"

#include <charconv>

using namespace srp;
using namespace srp::ir;

namespace {

class Writer {
public:
  explicit Writer(std::string &Out) : Out(Out) {}

  void module(const Module &M) {
    for (const Symbol *Global : M.globals()) {
      Out += "global ";
      symbolDecl(*Global);
      Out += '\n';
    }
    for (unsigned I = 0, E = M.numFunctions(); I != E; ++I) {
      Out += '\n';
      function(*M.function(I));
    }
  }

  void function(const Function &F) {
    Out += "func ";
    Out += F.getName();
    Out += '(';
    for (size_t I = 0; I < F.formals().size(); ++I) {
      if (I)
        Out += ", ";
      symbolDecl(*F.formals()[I]);
    }
    Out += ')';
    if (F.HasReturnValue) {
      Out += " -> ";
      Out += typeName(F.ReturnType);
    }
    Out += " {\n";
    for (const Symbol *Local : F.locals()) {
      Out += "  local ";
      symbolDecl(*Local);
      Out += '\n';
    }
    for (unsigned I = 0, E = F.numBlocks(); I != E; ++I) {
      const BasicBlock *BB = F.block(I);
      Out += BB->getName();
      Out += ":\n";
      for (size_t J = 0, SE = BB->size(); J != SE; ++J) {
        Out += "  ";
        stmt(*BB->stmt(J));
        Out += '\n';
      }
      Out += "  ";
      terminator(BB->term());
      Out += '\n';
    }
    Out += "}\n";
  }

  void stmt(const Stmt &S) {
    switch (S.Kind) {
    case StmtKind::Assign:
      temp(S.Dst);
      Out += " = ";
      Out += opcodeName(S.Op);
      Out += ' ';
      operand(S.A);
      if (!S.B.isNone()) {
        Out += ", ";
        operand(S.B);
      }
      if (!S.C.isNone()) {
        Out += ", ";
        operand(S.C);
      }
      break;
    case StmtKind::Load:
      temp(S.Dst);
      Out += " = ld";
      if (S.Flag != SpecFlag::None) {
        Out += '<';
        Out += specFlagName(S.Flag);
        Out += '>';
      }
      Out += ' ';
      memRef(S.Ref);
      if (S.AddrSrc != NoTemp) {
        Out += " @addr(";
        temp(S.AddrSrc);
        Out += ')';
      }
      if (S.AddrDst != NoTemp) {
        Out += " addr->";
        temp(S.AddrDst);
      }
      break;
    case StmtKind::Store:
      Out += S.StA ? "st<st.a> " : "st ";
      memRef(S.Ref);
      Out += " = ";
      operand(S.A);
      if (S.AddrDst != NoTemp) {
        Out += " addr->";
        temp(S.AddrDst);
      }
      if (S.AlatDst != NoTemp) {
        Out += " alat->";
        temp(S.AlatDst);
      }
      break;
    case StmtKind::AddrOf:
      temp(S.Dst);
      Out += " = addrof ";
      memRef(S.Ref);
      break;
    case StmtKind::Alloc:
      temp(S.Dst);
      Out += " = alloc ";
      operand(S.A);
      Out += " @";
      Out += S.HeapSym ? std::string_view(S.HeapSym->Name) : "<null>";
      break;
    case StmtKind::Call:
      if (S.Dst != NoTemp) {
        temp(S.Dst);
        Out += " = ";
      }
      Out += "call ";
      Out += S.Callee ? std::string_view(S.Callee->getName()) : "<null>";
      Out += '(';
      for (size_t I = 0; I < S.Args.size(); ++I) {
        if (I)
          Out += ", ";
        operand(S.Args[I]);
      }
      Out += ')';
      break;
    case StmtKind::Invala:
      Out += "invala ";
      temp(S.Dst);
      break;
    case StmtKind::Print:
      Out += "print ";
      operand(S.A);
      break;
    }
  }

  void memRef(const MemRef &Ref) {
    Out.append(Ref.Depth, '*');
    Out += Ref.Base ? std::string_view(Ref.Base->Name) : "<null>";
    if (Ref.hasIndex()) {
      Out += '[';
      operand(Ref.Index);
      Out += ']';
    }
    if (Ref.Offset != 0) {
      Out += Ref.Offset > 0 ? "{+" : "{";
      number(Ref.Offset);
      Out += '}';
    }
    if (Ref.ValueType == TypeKind::Float && Ref.isIndirect())
      Out += ":flt";
  }

  void operand(const Operand &Op) {
    switch (Op.K) {
    case Operand::Kind::None:
      Out += "<none>";
      return;
    case Operand::Kind::Temp:
      temp(Op.TempId);
      return;
    case Operand::Kind::ConstInt:
      number(Op.IntVal);
      return;
    case Operand::Kind::ConstFloat: {
      char Buf[32];
      auto R = std::to_chars(Buf, Buf + sizeof(Buf), Op.FloatVal,
                             std::chars_format::general, 6);
      Out.append(Buf, R.ptr);
      Out += 'f';
      return;
    }
    }
  }

private:
  void symbolDecl(const Symbol &Sym) {
    Out += Sym.Name;
    Out += " : ";
    Out += typeName(Sym.ElemType);
    if (!Sym.isScalar()) {
      Out += '[';
      number(Sym.NumElems);
      Out += ']';
    }
    if (Sym.Secret)
      Out += " secret";
  }

  void terminator(const Terminator &T) {
    switch (T.Kind) {
    case TermKind::Br:
      Out += "br ";
      Out += T.Target->getName();
      break;
    case TermKind::CondBr:
      Out += "condbr ";
      operand(T.Cond);
      Out += ", ";
      Out += T.Target->getName();
      Out += ", ";
      Out += T.FalseTarget->getName();
      break;
    case TermKind::Ret:
      Out += "ret";
      if (!T.RetVal.isNone()) {
        Out += ' ';
        operand(T.RetVal);
      }
      break;
    }
  }

  void temp(unsigned Id) {
    Out += 't';
    number(Id);
  }

  template <typename Int> void number(Int N) {
    char Buf[24];
    Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), N).ptr);
  }

  std::string &Out;
};

/// A capacity guess for a module's text: about 16 bytes a line.
size_t estimateSize(const Module &M) {
  size_t Lines = M.globals().size();
  for (unsigned I = 0, E = M.numFunctions(); I != E; ++I) {
    const Function *F = M.function(I);
    Lines += 3 + F->locals().size();
    for (unsigned B = 0, BE = F->numBlocks(); B != BE; ++B)
      Lines += 2 + F->block(B)->size();
  }
  return Lines * 16;
}

} // namespace

void srp::ir::printModule(const Module &M, OStream &OS) {
  OS << moduleToString(M);
}

void srp::ir::printFunction(const Function &F, OStream &OS) {
  std::string Buffer;
  Writer(Buffer).function(F);
  OS << Buffer;
}

std::string srp::ir::stmtToString(const Stmt &S) {
  std::string Buffer;
  Writer(Buffer).stmt(S);
  return Buffer;
}

std::string srp::ir::memRefToString(const MemRef &Ref) {
  std::string Buffer;
  Writer(Buffer).memRef(Ref);
  return Buffer;
}

std::string srp::ir::moduleToString(const Module &M) {
  std::string Buffer;
  Buffer.reserve(estimateSize(M));
  Writer(Buffer).module(M);
  return Buffer;
}
