//===- Verifier.cpp - IR structural checks ----------------------------------===//

#include "ir/Verifier.h"

#include "ir/CFG.h"
#include "ir/Printer.h"
#include "support/Error.h"
#include "support/StringUtils.h"

using namespace srp;
using namespace srp::ir;

namespace {

/// Collects diagnostics for one function.
class FunctionVerifier {
public:
  FunctionVerifier(const Function &F, std::vector<std::string> &Errors)
      : F(F), Errors(Errors) {}

  void run() {
    if (F.numBlocks() == 0) {
      error("function has no blocks");
      return;
    }
    for (unsigned I = 0, E = F.numBlocks(); I != E; ++I)
      verifyBlock(*F.block(I));
  }

private:
  void error(std::string Message) {
    Errors.push_back(formatString("%s: %s", F.getName().c_str(),
                                  Message.c_str()));
  }

  void stmtError(const Stmt &S, const char *Message) {
    error(formatString("'%s': %s", stmtToString(S).c_str(), Message));
  }

  bool checkTemp(const Stmt &S, unsigned Id, TypeKind Expected) {
    if (Id >= F.numTemps()) {
      stmtError(S, "temp id out of range");
      return false;
    }
    if (F.tempType(Id) != Expected) {
      stmtError(S, "temp type mismatch");
      return false;
    }
    return true;
  }

  bool checkOperand(const Stmt &S, const Operand &Op, TypeKind Expected) {
    switch (Op.K) {
    case Operand::Kind::None:
      stmtError(S, "missing operand");
      return false;
    case Operand::Kind::Temp:
      return checkTemp(S, Op.TempId, Expected);
    case Operand::Kind::ConstInt:
      if (Expected != TypeKind::Int) {
        stmtError(S, "integer constant where float expected");
        return false;
      }
      return true;
    case Operand::Kind::ConstFloat:
      if (Expected != TypeKind::Float) {
        stmtError(S, "float constant where integer expected");
        return false;
      }
      return true;
    }
    return false;
  }

  TypeKind operandTypeOf(const Operand &Op) {
    if (Op.isTemp() && Op.TempId < F.numTemps())
      return F.tempType(Op.TempId);
    return Op.K == Operand::Kind::ConstFloat ? TypeKind::Float
                                             : TypeKind::Int;
  }

  void verifyMemRef(const Stmt &S, const MemRef &Ref) {
    if (!Ref.Base) {
      stmtError(S, "memory reference without base symbol");
      return;
    }
    if (Ref.Depth > MaxRefDepth) {
      stmtError(S, "dereference depth beyond 2 is unsupported");
      return;
    }
    if (Ref.Depth > 0) {
      // The pointer chain starts at a scalar integer slot.
      if (!Ref.Base->isScalar() && !Ref.Base->isHeapSite())
        stmtError(S, "indirect reference through a non-scalar base");
      if (Ref.Base->ElemType != TypeKind::Int)
        stmtError(S, "indirect reference through a float symbol");
    }
    if (Ref.hasIndex())
      checkOperand(S, Ref.Index, TypeKind::Int);
    if (Ref.Offset % 8 != 0)
      stmtError(S, "reference offset is not 8-byte aligned");
    if (Ref.isDirect()) {
      // Constant direct indices must be in bounds.
      int64_t Index =
          Ref.Index.K == Operand::Kind::ConstInt ? Ref.Index.IntVal : 0;
      int64_t Last = Index * 8 + Ref.Offset;
      if (Last < 0 ||
          static_cast<uint64_t>(Last) + 8 > Ref.Base->sizeInBytes())
        if (!Ref.hasIndex() || Ref.Index.K == Operand::Kind::ConstInt)
          stmtError(S, "direct reference outside the symbol's storage");
      if (!Ref.hasIndex() && Ref.Offset == 0 &&
          Ref.ValueType != Ref.Base->ElemType)
        stmtError(S, "scalar reference type differs from symbol type");
    }
  }

  void verifyStmt(const Stmt &S) {
    switch (S.Kind) {
    case StmtKind::Assign:
      verifyAssign(S);
      break;
    case StmtKind::Load:
      verifyMemRef(S, S.Ref);
      checkTemp(S, S.Dst, S.Ref.ValueType);
      // The check shapes lowering can emit: an indirect ld.c reads its
      // address from the saved chain pointer, and chk.a tests a depth-1
      // chain pointer.
      if ((S.Flag == SpecFlag::LdC || S.Flag == SpecFlag::LdCnc) &&
          S.Ref.isIndirect() && S.AddrSrc == NoTemp)
        stmtError(S, "indirect ld.c needs @addr(tN)");
      if ((S.Flag == SpecFlag::ChkA || S.Flag == SpecFlag::ChkAnc) &&
          (S.Ref.Depth != 1 || S.AddrSrc == NoTemp))
        stmtError(S, "chk.a needs a depth-1 reference and @addr(tN)");
      // Lowering reads @addr(tN) only there and in an indirect ld.c;
      // anywhere else the oracle would load from another address.
      if (S.AddrSrc != NoTemp && S.Flag != SpecFlag::ChkA &&
               S.Flag != SpecFlag::ChkAnc &&
               !(S.Ref.isIndirect() &&
                 (S.Flag == SpecFlag::LdC || S.Flag == SpecFlag::LdCnc)))
        stmtError(S, "@addr(tN) needs an indirect ld.c or chk.a");
      break;
    case StmtKind::Store:
      verifyMemRef(S, S.Ref);
      checkOperand(S, S.A, S.Ref.ValueType);
      if (S.StA && S.AlatDst == NoTemp)
        stmtError(S, "st.a needs alat->tN");
      break;
    case StmtKind::AddrOf:
      if (S.Ref.Depth != 0)
        stmtError(S, "addrof must not dereference");
      verifyMemRef(S, S.Ref);
      checkTemp(S, S.Dst, TypeKind::Int);
      if (S.Ref.Base && !S.Ref.Base->AddressTaken)
        stmtError(S, "addrof of a symbol not marked address-taken");
      break;
    case StmtKind::Alloc:
      if (!S.HeapSym || !S.HeapSym->isHeapSite())
        stmtError(S, "alloc without heap-site symbol");
      checkOperand(S, S.A, TypeKind::Int);
      checkTemp(S, S.Dst, TypeKind::Int);
      break;
    case StmtKind::Call:
      verifyCall(S);
      break;
    case StmtKind::Invala:
      if (S.Dst >= F.numTemps())
        stmtError(S, "invala of an unknown temp");
      break;
    case StmtKind::Print:
      if (S.A.isNone())
        stmtError(S, "print without operand");
      break;
    }
  }

  void verifyAssign(const Stmt &S) {
    switch (S.Op) {
    case Opcode::Copy: {
      TypeKind Ty = operandTypeOf(S.A);
      checkOperand(S, S.A, Ty);
      checkTemp(S, S.Dst, Ty);
      break;
    }
    case Opcode::Select: {
      checkOperand(S, S.A, TypeKind::Int);
      TypeKind Ty = operandTypeOf(S.B);
      checkOperand(S, S.B, Ty);
      checkOperand(S, S.C, Ty);
      checkTemp(S, S.Dst, Ty);
      break;
    }
    case Opcode::FAdd:
    case Opcode::FSub:
    case Opcode::FMul:
    case Opcode::FDiv:
      checkOperand(S, S.A, TypeKind::Float);
      checkOperand(S, S.B, TypeKind::Float);
      checkTemp(S, S.Dst, TypeKind::Float);
      break;
    case Opcode::FCmpLt:
      checkOperand(S, S.A, TypeKind::Float);
      checkOperand(S, S.B, TypeKind::Float);
      checkTemp(S, S.Dst, TypeKind::Int);
      break;
    case Opcode::IntToFp:
      checkOperand(S, S.A, TypeKind::Int);
      checkTemp(S, S.Dst, TypeKind::Float);
      break;
    case Opcode::FpToInt:
      checkOperand(S, S.A, TypeKind::Float);
      checkTemp(S, S.Dst, TypeKind::Int);
      break;
    default:
      checkOperand(S, S.A, TypeKind::Int);
      checkOperand(S, S.B, TypeKind::Int);
      checkTemp(S, S.Dst, TypeKind::Int);
      break;
    }
  }

  void verifyCall(const Stmt &S) {
    if (!S.Callee) {
      stmtError(S, "call without callee");
      return;
    }
    if (S.Args.size() != S.Callee->formals().size()) {
      stmtError(S, "argument count differs from formal count");
      return;
    }
    for (size_t I = 0; I < S.Args.size(); ++I)
      checkOperand(S, S.Args[I], S.Callee->formals()[I]->ElemType);
    if (S.Dst != NoTemp) {
      if (!S.Callee->HasReturnValue)
        stmtError(S, "result temp for a void callee");
      else
        checkTemp(S, S.Dst, S.Callee->ReturnType);
    }
  }

  void verifyBlock(const BasicBlock &BB) {
    for (size_t I = 0, E = BB.size(); I != E; ++I)
      verifyStmt(*BB.stmt(I));
    const Terminator &T = BB.term();
    auto CheckTarget = [&](const BasicBlock *Target) {
      if (!Target) {
        error(formatString("block %s: missing branch target",
                           BB.getName().c_str()));
        return;
      }
      if (Target->getParent() != &F)
        error(formatString("block %s: branch leaves the function",
                           BB.getName().c_str()));
    };
    switch (T.Kind) {
    case TermKind::Br:
      CheckTarget(T.Target);
      break;
    case TermKind::CondBr:
      CheckTarget(T.Target);
      CheckTarget(T.FalseTarget);
      if (!T.Cond.isTemp() && T.Cond.K != Operand::Kind::ConstInt)
        error(formatString("block %s: condbr needs an integer condition",
                           BB.getName().c_str()));
      break;
    case TermKind::Ret:
      if (F.HasReturnValue && T.RetVal.isNone())
        error(formatString("block %s: missing return value",
                           BB.getName().c_str()));
      break;
    }
  }

  const Function &F;
  std::vector<std::string> &Errors;
};

} // namespace

void srp::ir::verifyFunction(const Function &F,
                             std::vector<std::string> &Errors) {
  FunctionVerifier(F, Errors).run();
}

std::vector<std::string> srp::ir::verifyModule(const Module &M) {
  std::vector<std::string> Errors;
  for (unsigned I = 0, E = M.numFunctions(); I != E; ++I)
    verifyFunction(*M.function(I), Errors);
  if (!M.findFunction("main"))
    Errors.push_back("module has no 'main' function");
  return Errors;
}

namespace {

/// Shared tail of the two verifyOrDie overloads.
[[noreturn]] void dieWithErrors(std::string Message,
                                const std::vector<std::string> &Errors) {
  for (size_t I = 0; I < Errors.size() && I < 8; ++I)
    Message += "\n  " + Errors[I];
  fatalError(Message);
}

} // namespace

void srp::ir::verifyOrDie(const Module &M, const char *When) {
  std::vector<std::string> Errors = verifyModule(M);
  if (Errors.empty())
    return;
  // Individual diagnostics carry their function prefix; name the first
  // failing function in the headline too so truncated logs still say
  // where to look. (Module-level diagnostics have no such prefix.)
  size_t Sep = Errors[0].find(':');
  std::string Headline =
      Sep == std::string::npos
          ? formatString("verifier failed %s:", When)
          : formatString("verifier failed %s in function '%s':", When,
                         Errors[0].substr(0, Sep).c_str());
  dieWithErrors(std::move(Headline), Errors);
}

void srp::ir::verifyOrDie(const Function &F, const char *When) {
  std::vector<std::string> Errors;
  verifyFunction(F, Errors);
  if (Errors.empty())
    return;
  dieWithErrors(formatString("verifier failed %s in function '%s':", When,
                             F.getName().c_str()),
                Errors);
}
