//===- Lowering.cpp - IR to machine IR lowering ------------------------------===//

#include "codegen/Lowering.h"

#include "interp/Interpreter.h" // layout constants
#include "support/Error.h"

#include <cassert>

using namespace srp;
using namespace srp::ir;
using namespace srp::codegen;

namespace {

/// Lowers one function.
class FunctionLowering {
public:
  FunctionLowering(const ir::Function &F, MFunction &MF, MModule &MM,
                   const std::map<const ir::Function *, MFunction *> &FnMap)
      : F(F), MF(MF), MM(MM), FnMap(FnMap) {}

  void run();

private:
  MBlock &cur() { return MF.block(CurMB); }

  MInstr &emit(MInstr I) {
    cur().Instrs.push_back(I);
    return cur().Instrs.back();
  }

  unsigned freshReg(bool Fp = false) { return MF.createVirtualReg(Fp); }

  unsigned tempReg(unsigned TempId) {
    unsigned &Reg = TempRegs[TempId];
    if (Reg == 0)
      Reg = freshReg(F.tempType(TempId) == TypeKind::Float);
    return Reg;
  }

  /// Materializes an operand into a register.
  unsigned operandReg(const Operand &Op);

  /// Emits Rd = Imm into a fresh register (FpVal carries raw bits).
  unsigned emitMovI(int64_t Imm, bool Fp = false);

  /// Address of a symbol's storage as (BaseReg, Displacement).
  void symbolSlot(const Symbol *Sym, unsigned &BaseReg, int64_t &Disp);

  /// Emits the address computation of \p Ref. Returns (BaseReg, Disp) for
  /// the final access. \p ChainPtrReg receives the register holding the
  /// last chain pointer (NoReg for direct refs). Chain loads use ld.a
  /// when \p AdvancedChain (cascade defs re-establish the pointer
  /// entry); when \p ChainDestReg is given, the last chain load writes
  /// it directly, so a later chk.a on that register finds the entry.
  void accessAddress(const MemRef &Ref, bool AdvancedChain,
                     unsigned &BaseReg, int64_t &Disp,
                     unsigned &ChainPtrReg,
                     unsigned ChainDestReg = NoReg);

  /// Address for checking loads: from a saved chain pointer register.
  void checkAddress(const Stmt &S, unsigned &BaseReg, int64_t &Disp);

  void lowerStmt(const Stmt &S);
  void lowerLoad(const Stmt &S);
  void lowerStore(const Stmt &S);
  void lowerAssign(const Stmt &S);
  void lowerCall(const Stmt &S);
  void lowerTerminator(const Terminator &T);

  void emitPrologue();
  void emitEpilogue(const Operand &RetVal);

  const ir::Function &F;
  MFunction &MF;
  MModule &MM;
  const std::map<const ir::Function *, MFunction *> &FnMap;

  std::map<unsigned, unsigned> TempRegs; ///< IR temp -> virtual register.
  std::vector<unsigned> BlockHead;       ///< IR block id -> mblock index.
  unsigned CurMB = 0;
};

void FunctionLowering::symbolSlot(const Symbol *Sym, unsigned &BaseReg,
                                  int64_t &Disp) {
  if (Sym->Kind == SymbolKind::Global) {
    BaseReg = RegZero;
    Disp = static_cast<int64_t>(MM.GlobalAddr.at(Sym));
    return;
  }
  BaseReg = RegFP;
  Disp = MF.frameOffsetOf(Sym);
}

unsigned FunctionLowering::emitMovI(int64_t Imm, bool Fp) {
  MInstr I;
  I.Op = MOp::MovI;
  I.Rd = freshReg(Fp);
  I.Imm = Imm;
  I.FpVal = Fp;
  emit(I);
  return I.Rd;
}

unsigned FunctionLowering::operandReg(const Operand &Op) {
  switch (Op.K) {
  case Operand::Kind::Temp:
    return tempReg(Op.getTemp());
  case Operand::Kind::ConstInt:
    return emitMovI(Op.IntVal);
  case Operand::Kind::ConstFloat: {
    uint64_t Bits;
    static_assert(sizeof(double) == sizeof(uint64_t));
    __builtin_memcpy(&Bits, &Op.FloatVal, sizeof(Bits));
    return emitMovI(static_cast<int64_t>(Bits), /*Fp=*/true);
  }
  case Operand::Kind::None:
    SRP_UNREACHABLE("materializing a missing operand");
  }
  SRP_UNREACHABLE("invalid operand kind");
}

void FunctionLowering::accessAddress(const MemRef &Ref, bool AdvancedChain,
                                     unsigned &BaseReg, int64_t &Disp,
                                     unsigned &ChainPtrReg,
                                     unsigned ChainDestReg) {
  unsigned SlotBase;
  int64_t SlotDisp;
  symbolSlot(Ref.Base, SlotBase, SlotDisp);
  ChainPtrReg = NoReg;

  unsigned Reg = SlotBase;
  int64_t Offset = SlotDisp;
  for (unsigned Level = 1; Level <= Ref.Depth; ++Level) {
    MInstr Chain;
    Chain.Op = AdvancedChain ? MOp::LdA : MOp::Ld;
    bool Last = Level == Ref.Depth;
    Chain.Rd = Last && ChainDestReg != NoReg ? ChainDestReg : freshReg();
    Chain.Rs1 = Reg;
    Chain.Imm = Offset;
    emit(Chain);
    Reg = Chain.Rd;
    Offset = 0;
  }
  if (Ref.Depth > 0)
    ChainPtrReg = Reg;

  if (Ref.hasIndex()) {
    MInstr Sh;
    Sh.Op = MOp::ShlAdd;
    Sh.Rd = freshReg();
    Sh.Rs1 = operandReg(Ref.Index);
    Sh.Rs2 = Reg;
    emit(Sh);
    Reg = Sh.Rd;
  }
  BaseReg = Reg;
  Disp = Offset + Ref.Offset;
}

void FunctionLowering::checkAddress(const Stmt &S, unsigned &BaseReg,
                                    int64_t &Disp) {
  if (S.Ref.isDirect()) {
    unsigned ChainPtr;
    accessAddress(S.Ref, false, BaseReg, Disp, ChainPtr);
    return;
  }
  assert(S.AddrSrc != NoTemp && "indirect check needs a chain pointer");
  unsigned Reg = tempReg(S.AddrSrc);
  if (S.Ref.hasIndex()) {
    MInstr Sh;
    Sh.Op = MOp::ShlAdd;
    Sh.Rd = freshReg();
    Sh.Rs1 = operandReg(S.Ref.Index);
    Sh.Rs2 = Reg;
    emit(Sh);
    Reg = Sh.Rd;
  }
  BaseReg = Reg;
  Disp = S.Ref.Offset;
}

void FunctionLowering::lowerLoad(const Stmt &S) {
  bool Fp = S.Ref.ValueType == TypeKind::Float;
  unsigned Rd = tempReg(S.Dst);

  switch (S.Flag) {
  case SpecFlag::None:
  case SpecFlag::LdA:
  case SpecFlag::LdSA: {
    bool Advanced = S.Flag != SpecFlag::None;
    unsigned BaseReg, ChainPtr;
    int64_t Disp;
    // Cascade defs (AddrDst on an advanced indirect load) re-advance the
    // chain pointer so a later chk.a can test it (Figure 4(c)); the last
    // chain load writes the exposed register directly so the ALAT entry
    // is keyed by the register the check will name.
    bool AdvancedChain = Advanced && S.AddrDst != NoTemp;
    unsigned ChainDest =
        S.AddrDst != NoTemp && S.Ref.isIndirect() ? tempReg(S.AddrDst)
                                                  : NoReg;
    accessAddress(S.Ref, AdvancedChain, BaseReg, Disp, ChainPtr,
                  ChainDest);
    MInstr L;
    L.Op = S.Flag == SpecFlag::None
               ? MOp::Ld
               : (S.Flag == SpecFlag::LdA ? MOp::LdA : MOp::LdSA);
    L.Rd = Rd;
    L.Rs1 = BaseReg;
    L.Imm = Disp;
    L.FpVal = Fp;
    emit(L);
    return;
  }
  case SpecFlag::LdC:
  case SpecFlag::LdCnc: {
    unsigned BaseReg;
    int64_t Disp;
    checkAddress(S, BaseReg, Disp);
    MInstr L;
    L.Op = S.Flag == SpecFlag::LdC ? MOp::LdCClr : MOp::LdCNc;
    L.Rd = Rd;
    L.Rs1 = BaseReg;
    L.Imm = Disp;
    L.FpVal = Fp;
    emit(L);
    return;
  }
  case SpecFlag::ChkA:
  case SpecFlag::ChkAnc: {
    // chk.a on the saved chain pointer, then a data check; the recovery
    // block reloads both (cascade failure handling, §2.4).
    assert(S.Ref.Depth == 1 && S.AddrSrc != NoTemp &&
           "cascade checks are depth-1 with a saved pointer");
    unsigned AddrReg = tempReg(S.AddrSrc);
    unsigned Cont = MF.createBlock(cur().Name + ".cont");
    unsigned Rec = MF.createBlock(cur().Name + ".recover");
    MF.block(Rec).IsRecovery = true;

    MInstr Chk;
    Chk.Op = MOp::ChkA;
    Chk.Rs1 = AddrReg;
    Chk.Target = Cont;
    Chk.Recovery = Rec;
    emit(Chk);

    // Recovery: reload the pointer (re-advanced) and the data.
    CurMB = Rec;
    {
      unsigned SlotBase;
      int64_t SlotDisp;
      symbolSlot(S.Ref.Base, SlotBase, SlotDisp);
      MInstr Rp;
      Rp.Op = MOp::LdA;
      Rp.Rd = AddrReg;
      Rp.Rs1 = SlotBase;
      Rp.Imm = SlotDisp;
      emit(Rp);
      unsigned BaseReg;
      int64_t Disp;
      checkAddress(S, BaseReg, Disp);
      MInstr Rdata;
      Rdata.Op = MOp::LdA;
      Rdata.Rd = Rd;
      Rdata.Rs1 = BaseReg;
      Rdata.Imm = Disp;
      Rdata.FpVal = Fp;
      emit(Rdata);
      MInstr B;
      B.Op = MOp::Br;
      B.Target = Cont;
      emit(B);
    }

    // Continuation: the data itself may have been clobbered even when the
    // pointer survived; check it too.
    CurMB = Cont;
    unsigned BaseReg;
    int64_t Disp;
    checkAddress(S, BaseReg, Disp);
    MInstr L;
    L.Op = MOp::LdCNc;
    L.Rd = Rd;
    L.Rs1 = BaseReg;
    L.Imm = Disp;
    L.FpVal = Fp;
    emit(L);
    return;
  }
  }
  SRP_UNREACHABLE("invalid spec flag");
}

void FunctionLowering::lowerStore(const Stmt &S) {
  unsigned BaseReg, ChainPtr;
  int64_t Disp;
  accessAddress(S.Ref, false, BaseReg, Disp, ChainPtr);
  if (S.AddrDst != NoTemp) {
    // Stores expose their final address (free: it is in a register).
    if (BaseReg == RegZero) {
      MInstr Mv;
      Mv.Op = MOp::MovI;
      Mv.Rd = tempReg(S.AddrDst);
      Mv.Imm = Disp;
      emit(Mv);
    } else {
      MInstr AddI;
      AddI.Op = MOp::Add;
      AddI.Rd = tempReg(S.AddrDst);
      AddI.Rs1 = BaseReg;
      AddI.HasImm = true;
      AddI.Imm = Disp;
      emit(AddI);
    }
  }
  MInstr St;
  St.Op = S.StA ? MOp::StA : MOp::St;
  St.Rs1 = BaseReg;
  St.Imm = Disp;
  St.Rs3 = operandReg(S.A);
  St.FpVal = S.Ref.ValueType == TypeKind::Float;
  if (S.StA) {
    assert(S.AlatDst != NoTemp && "st.a needs the tracked register");
    St.Rs2 = tempReg(S.AlatDst);
  }
  emit(St);
}

void FunctionLowering::lowerAssign(const Stmt &S) {
  unsigned Rd = tempReg(S.Dst);
  auto Binary = [&](MOp Op, bool Commutative) {
    MInstr I;
    I.Op = Op;
    I.Rd = Rd;
    if (S.B.K == Operand::Kind::ConstInt) {
      I.Rs1 = operandReg(S.A);
      I.HasImm = true;
      I.Imm = S.B.IntVal;
    } else if (Commutative && S.A.K == Operand::Kind::ConstInt) {
      I.Rs1 = operandReg(S.B);
      I.HasImm = true;
      I.Imm = S.A.IntVal;
    } else {
      I.Rs1 = operandReg(S.A);
      I.Rs2 = operandReg(S.B);
    }
    emit(I);
  };
  switch (S.Op) {
  case Opcode::Copy: {
    MInstr I;
    I.Op = MOp::Mov;
    I.Rd = Rd;
    I.Rs1 = operandReg(S.A);
    emit(I);
    return;
  }
  case Opcode::Add:
    Binary(MOp::Add, true);
    return;
  case Opcode::Sub:
    Binary(MOp::Sub, false);
    return;
  case Opcode::Mul:
    Binary(MOp::Mul, true);
    return;
  case Opcode::Div:
    Binary(MOp::Div, false);
    return;
  case Opcode::Rem:
    Binary(MOp::Rem, false);
    return;
  case Opcode::And:
    Binary(MOp::And, true);
    return;
  case Opcode::Or:
    Binary(MOp::Or, true);
    return;
  case Opcode::Xor:
    Binary(MOp::Xor, true);
    return;
  case Opcode::Shl:
    Binary(MOp::Shl, false);
    return;
  case Opcode::Shr:
    Binary(MOp::Shr, false);
    return;
  case Opcode::CmpEq:
    Binary(MOp::CmpEq, true);
    return;
  case Opcode::CmpNe:
    Binary(MOp::CmpNe, true);
    return;
  case Opcode::CmpLt:
    Binary(MOp::CmpLt, false);
    return;
  case Opcode::CmpLe:
    Binary(MOp::CmpLe, false);
    return;
  case Opcode::FAdd:
    Binary(MOp::FAdd, false);
    return;
  case Opcode::FSub:
    Binary(MOp::FSub, false);
    return;
  case Opcode::FMul:
    Binary(MOp::FMul, false);
    return;
  case Opcode::FDiv:
    Binary(MOp::FDiv, false);
    return;
  case Opcode::FCmpLt:
    Binary(MOp::FCmpLt, false);
    return;
  case Opcode::IntToFp: {
    MInstr I;
    I.Op = MOp::ICvtF;
    I.Rd = Rd;
    I.Rs1 = operandReg(S.A);
    emit(I);
    return;
  }
  case Opcode::FpToInt: {
    MInstr I;
    I.Op = MOp::FCvtI;
    I.Rd = Rd;
    I.Rs1 = operandReg(S.A);
    emit(I);
    return;
  }
  case Opcode::Select: {
    MInstr I;
    I.Op = MOp::Sel;
    I.Rd = Rd;
    I.Rs1 = operandReg(S.A);
    I.Rs2 = operandReg(S.B);
    I.Rs3 = operandReg(S.C);
    emit(I);
    return;
  }
  }
  SRP_UNREACHABLE("invalid opcode");
}

void FunctionLowering::lowerCall(const Stmt &S) {
  MFunction *Callee = FnMap.at(S.Callee);
  // Arguments go just below the current SP, where the callee's formal
  // slots will land once its prologue runs.
  for (size_t I = 0; I < S.Args.size(); ++I) {
    MInstr St;
    St.Op = MOp::St;
    St.Rs1 = RegSP;
    St.Imm = -8 * static_cast<int64_t>(I + 1);
    St.Rs3 = operandReg(S.Args[I]);
    emit(St);
  }
  unsigned Resume = MF.createBlock(cur().Name + ".ret");
  MInstr C;
  C.Op = MOp::Call;
  C.Callee = Callee;
  C.Target = Resume;
  emit(C);
  CurMB = Resume;
  if (S.Dst != NoTemp) {
    bool Fp = F.tempType(S.Dst) == TypeKind::Float;
    MInstr Mv;
    Mv.Op = MOp::Mov;
    Mv.Rd = tempReg(S.Dst);
    Mv.Rs1 = Fp ? RegRetFp : RegRetInt;
    emit(Mv);
  }
}

void FunctionLowering::lowerStmt(const Stmt &S) {
  switch (S.Kind) {
  case StmtKind::Assign:
    lowerAssign(S);
    return;
  case StmtKind::Load:
    lowerLoad(S);
    return;
  case StmtKind::Store:
    lowerStore(S);
    return;
  case StmtKind::AddrOf: {
    unsigned SlotBase;
    int64_t SlotDisp;
    symbolSlot(S.Ref.Base, SlotBase, SlotDisp);
    unsigned Reg = SlotBase;
    if (S.Ref.hasIndex()) {
      MInstr Sh;
      Sh.Op = MOp::ShlAdd;
      Sh.Rd = freshReg();
      Sh.Rs1 = operandReg(S.Ref.Index);
      Sh.Rs2 = Reg;
      emit(Sh);
      Reg = Sh.Rd;
    }
    MInstr AddI;
    AddI.Op = Reg == RegZero ? MOp::MovI : MOp::Add;
    AddI.Rd = tempReg(S.Dst);
    AddI.Rs1 = Reg == RegZero ? NoReg : Reg;
    AddI.HasImm = Reg != RegZero;
    AddI.Imm = SlotDisp + S.Ref.Offset;
    emit(AddI);
    return;
  }
  case StmtKind::Alloc: {
    MInstr I;
    I.Op = MOp::AllocHeap;
    I.Rd = tempReg(S.Dst);
    if (S.A.K == Operand::Kind::ConstInt) {
      I.HasImm = true;
      I.Imm = S.A.IntVal;
    } else {
      I.Rs1 = operandReg(S.A);
    }
    emit(I);
    return;
  }
  case StmtKind::Call:
    lowerCall(S);
    return;
  case StmtKind::Invala: {
    MInstr I;
    I.Op = MOp::InvalaE;
    I.Rs1 = tempReg(S.Dst);
    emit(I);
    return;
  }
  case StmtKind::Print: {
    MInstr I;
    I.Op = MOp::Print;
    I.Rs1 = operandReg(S.A);
    I.FpVal = S.A.K == Operand::Kind::ConstFloat ||
              (S.A.isTemp() &&
               F.tempType(S.A.getTemp()) == TypeKind::Float);
    emit(I);
    return;
  }
  }
  SRP_UNREACHABLE("invalid statement kind");
}

void FunctionLowering::emitPrologue() {
  // Save the caller's FP below the formal slots, establish our FP, and
  // open the frame. The frame-size immediate is patched after register
  // allocation adds spill slots.
  int64_t FpSave = -8 * static_cast<int64_t>(F.formals().size() + 1);
  MInstr SaveFP;
  SaveFP.Op = MOp::St;
  SaveFP.Rs1 = RegSP;
  SaveFP.Imm = FpSave;
  SaveFP.Rs3 = RegFP;
  emit(SaveFP);
  MInstr SetFP;
  SetFP.Op = MOp::Mov;
  SetFP.Rd = RegFP;
  SetFP.Rs1 = RegSP;
  emit(SetFP);
  MInstr OpenFrame;
  OpenFrame.Op = MOp::Add;
  OpenFrame.Rd = RegSP;
  OpenFrame.Rs1 = RegSP;
  OpenFrame.HasImm = true;
  OpenFrame.Imm = 0; // patched to -frameSize() after register allocation
  emit(OpenFrame);
}

void FunctionLowering::emitEpilogue(const Operand &RetVal) {
  if (!RetVal.isNone()) {
    bool Fp = RetVal.K == Operand::Kind::ConstFloat ||
              (RetVal.isTemp() &&
               F.tempType(RetVal.getTemp()) == TypeKind::Float);
    MInstr Mv;
    Mv.Op = MOp::Mov;
    Mv.Rd = Fp ? RegRetFp : RegRetInt;
    Mv.Rs1 = operandReg(RetVal);
    emit(Mv);
  }
  int64_t FpSave = -8 * static_cast<int64_t>(F.formals().size() + 1);
  MInstr CloseFrame;
  CloseFrame.Op = MOp::Mov;
  CloseFrame.Rd = RegSP;
  CloseFrame.Rs1 = RegFP;
  emit(CloseFrame);
  MInstr RestoreFP;
  RestoreFP.Op = MOp::Ld;
  RestoreFP.Rd = RegFP;
  RestoreFP.Rs1 = RegSP;
  RestoreFP.Imm = FpSave;
  emit(RestoreFP);
  MInstr R;
  R.Op = MOp::Ret;
  emit(R);
}

void FunctionLowering::lowerTerminator(const Terminator &T) {
  switch (T.Kind) {
  case TermKind::Br: {
    MInstr B;
    B.Op = MOp::Br;
    B.Target = BlockHead[T.Target->getId()];
    emit(B);
    return;
  }
  case TermKind::CondBr: {
    MInstr B;
    B.Op = MOp::BrCond;
    B.Rs1 = operandReg(T.Cond);
    B.Target = BlockHead[T.Target->getId()];
    B.FalseTarget = BlockHead[T.FalseTarget->getId()];
    emit(B);
    return;
  }
  case TermKind::Ret:
    emitEpilogue(T.RetVal);
    return;
  }
  SRP_UNREACHABLE("invalid terminator");
}

void FunctionLowering::run() {
  BlockHead.resize(F.numBlocks());
  for (unsigned BI = 0; BI < F.numBlocks(); ++BI)
    BlockHead[BI] = MF.createBlock(F.block(BI)->getName());

  for (unsigned BI = 0; BI < F.numBlocks(); ++BI) {
    CurMB = BlockHead[BI];
    if (BI == 0)
      emitPrologue();
    const BasicBlock *BB = F.block(BI);
    for (size_t SI = 0; SI < BB->size(); ++SI)
      lowerStmt(*BB->stmt(SI));
    lowerTerminator(BB->term());
  }
}

} // namespace

std::unique_ptr<MModule> srp::codegen::lowerModule(const ir::Module &M) {
  auto MM = std::make_unique<MModule>();

  uint64_t Next = interp::layout::GlobalBase;
  for (const Symbol *Global : M.globals()) {
    MM->GlobalAddr[Global] = Next;
    Next += interp::layout::objectSpan(Global->sizeInBytes());
  }

  // Create all functions and lay out frames first (callers write argument
  // slots relative to the callee frame's top, which only depends on the
  // formal count).
  std::map<const ir::Function *, MFunction *> FnMap;
  for (unsigned FI = 0; FI < M.numFunctions(); ++FI) {
    const ir::Function *F = M.function(FI);
    MFunction *MF = MM->createFunction(F->getName());
    FnMap[F] = MF;
    // Formals at FP-8(i+1), then the FP save slot, then locals.
    int64_t Offset = 0;
    for (const Symbol *Formal : F->formals()) {
      Offset -= 8;
      MF->assignSlot(Formal, Offset);
      MF->allocateFrameBytes(8);
    }
    MF->allocateFrameBytes(8); // caller-FP save slot
    for (const Symbol *Local : F->locals()) {
      int64_t SlotOff =
          MF->allocateFrameBytes(Local->sizeInBytes());
      MF->assignSlot(Local, SlotOff);
    }
  }
  for (unsigned FI = 0; FI < M.numFunctions(); ++FI) {
    FunctionLowering FL(*M.function(FI), *FnMap.at(M.function(FI)), *MM,
                        FnMap);
    FL.run();
  }
  return MM;
}
