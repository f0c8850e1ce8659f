//===- MIR.h - IA-64-style machine IR ---------------------------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ITA machine IR: an IA-64-flavoured instruction set with the data
/// speculation family the paper uses (ld.a / ld.sa / ld.c.clr / ld.c.nc /
/// chk.a with recovery blocks / invala.e, plus the proposed st.a of §2.5).
///
/// Register conventions (a simplified register stack model):
///   r0  — always zero          r1  — stack pointer (SP)
///   r2  — frame pointer (FP)   r4..r7 — spill scratch
///   r8  — integer return value
///   r32..r127 — stacked, allocatable (the RSE spills/fills these)
///   f8  — float return value   f32..f127 — allocatable floats
/// Virtual registers are numbered from FirstVirtualReg upward until
/// register allocation replaces them.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_CODEGEN_MIR_H
#define SRP_CODEGEN_MIR_H

#include "ir/CFG.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace srp {
class OStream;
} // namespace srp

namespace srp::codegen {

inline constexpr unsigned NoReg = ~0u;
inline constexpr unsigned RegZero = 0;
inline constexpr unsigned RegSP = 1;
inline constexpr unsigned RegFP = 2;
inline constexpr unsigned RegScratch0 = 4;
inline constexpr unsigned RegScratch1 = 5;
inline constexpr unsigned RegRetInt = 8;
inline constexpr unsigned FirstStackedReg = 32;
inline constexpr unsigned NumStackedRegs = 96; ///< r32..r127
inline constexpr unsigned FpRegBase = 128;     ///< f0 is reg 128, etc.
inline constexpr unsigned RegRetFp = FpRegBase + 8;
inline constexpr unsigned FpScratch0 = FpRegBase + 4;
inline constexpr unsigned FpScratch1 = FpRegBase + 5;
inline constexpr unsigned FirstVirtualReg = 1024;

/// True for f-register ids (physical only).
inline bool isFpReg(unsigned Reg) {
  return Reg >= FpRegBase && Reg < FirstVirtualReg;
}

inline bool isVirtualReg(unsigned Reg) {
  return Reg != NoReg && Reg >= FirstVirtualReg;
}

/// Machine opcodes.
enum class MOp : uint8_t {
  // Data movement and arithmetic.
  MovI,   ///< Rd = Imm
  Mov,    ///< Rd = Rs1
  Add,    ///< Rd = Rs1 + (Rs2 | Imm)
  Sub,
  Mul,
  Div,    ///< Zero divisor yields zero (matches the IR semantics).
  Rem,
  And,
  Or,
  Xor,
  Shl,
  Shr,
  ShlAdd, ///< Rd = Rs1*8 + Rs2 (IA-64 shladd)
  CmpEq,
  CmpNe,
  CmpLt,
  CmpLe,
  FAdd,
  FSub,
  FMul,
  FDiv,
  FCmpLt,
  ICvtF,
  FCvtI,
  Sel,    ///< Rd = Rs1 != 0 ? Rs2 : Rs3 (predicated move pair on IA-64)
  // Memory.
  Ld,     ///< Rd = [Rs1 + Imm]
  LdA,    ///< Advanced load: also allocates an ALAT entry for Rd.
  LdSA,   ///< Speculative advanced load (control + data speculation).
  LdCClr, ///< Check load; reload on miss, clear the entry on hit.
  LdCNc,  ///< Check load; reload on miss, keep the entry.
  St,     ///< [Rs1 + Imm] = Rs3
  StA,    ///< St plus ALAT entry allocation for register Rs2 (§2.5 st.a).
  InvalaE,///< Invalidate the ALAT entry of register Rs1.
  AllocHeap, ///< Rd = address of a fresh heap block of (Rs1|Imm)*8 bytes.
  Print,  ///< Emit Rs1 to the program output (FpVal selects formatting).
  // Control flow (block terminators, except ChkA's fall-through form).
  Br,     ///< to Target
  BrCond, ///< Rs1 != 0 ? Target : FalseTarget
  ChkA,   ///< ALAT entry for Rs1 valid ? Target : Recovery (chk.a)
  Call,   ///< Callee; return lands on the next block (Target)
  Ret,
  Nop,
};

/// Returns the assembly mnemonic.
const char *mopName(MOp Op);

inline bool isCheckLoad(MOp Op) {
  return Op == MOp::LdCClr || Op == MOp::LdCNc;
}

inline bool isTerminator(MOp Op) {
  switch (Op) {
  case MOp::Br:
  case MOp::BrCond:
  case MOp::ChkA:
  case MOp::Ret:
    return true;
  default:
    return false;
  }
}

class MFunction;

/// One machine instruction.
struct MInstr {
  MOp Op = MOp::Nop;
  unsigned Rd = NoReg;
  unsigned Rs1 = NoReg;
  unsigned Rs2 = NoReg;
  unsigned Rs3 = NoReg;
  int64_t Imm = 0;
  bool HasImm = false;   ///< ALU ops: second operand is Imm.
  bool FpVal = false;    ///< Loads/stores/prints move a float value.
  unsigned Target = ~0u;       ///< Block index (Br/BrCond/ChkA/Call resume).
  unsigned FalseTarget = ~0u;  ///< BrCond.
  unsigned Recovery = ~0u;     ///< ChkA recovery block.
  MFunction *Callee = nullptr;

  /// Registers this instruction reads, in a small inline buffer.
  /// Inline (header-defined): the simulator calls this once per
  /// simulated instruction.
  void sources(unsigned Out[3], unsigned &Count) const {
    Count = 0;
    auto Push = [&](unsigned Reg) {
      if (Reg != NoReg)
        Out[Count++] = Reg;
    };
    switch (Op) {
    case MOp::MovI:
    case MOp::Br:
    case MOp::Ret:
    case MOp::Nop:
    case MOp::Call:
      break;
    case MOp::St:
    case MOp::StA:
      Push(Rs1);
      Push(Rs3);
      break;
    case MOp::Sel:
      Push(Rs1);
      Push(Rs2);
      Push(Rs3);
      break;
    default:
      Push(Rs1);
      if (!HasImm)
        Push(Rs2);
      break;
    }
  }
  bool definesReg() const { return Rd != NoReg; }
};

/// A machine basic block. The last instruction is always a terminator.
struct MBlock {
  std::string Name;
  std::vector<MInstr> Instrs;
  bool IsRecovery = false; ///< chk.a recovery code (Ju et al. style).
};

/// A machine function.
class MFunction {
public:
  MFunction(std::string Name) : Name(std::move(Name)) {}

  const std::string &getName() const { return Name; }

  unsigned createBlock(std::string BlockName) {
    Blocks.push_back(MBlock{std::move(BlockName), {}, false});
    return static_cast<unsigned>(Blocks.size()) - 1;
  }

  unsigned numBlocks() const { return static_cast<unsigned>(Blocks.size()); }
  MBlock &block(unsigned I) { return Blocks[I]; }
  const MBlock &block(unsigned I) const { return Blocks[I]; }

  /// Creates a virtual register.
  unsigned createVirtualReg(bool Fp) {
    VirtRegFp.push_back(Fp);
    return FirstVirtualReg + static_cast<unsigned>(VirtRegFp.size()) - 1;
  }
  bool isVirtFp(unsigned Reg) const {
    return VirtRegFp[Reg - FirstVirtualReg];
  }
  unsigned numVirtualRegs() const {
    return static_cast<unsigned>(VirtRegFp.size());
  }

  /// Frame slot assignment (negative FP-relative offsets).
  int64_t frameOffsetOf(const ir::Symbol *Sym) const {
    return SlotOffsets.at(Sym);
  }
  void assignSlot(const ir::Symbol *Sym, int64_t Offset) {
    SlotOffsets[Sym] = Offset;
  }

  /// Allocates \p Bytes more frame space; returns the new slot's offset.
  int64_t allocateFrameBytes(uint64_t Bytes) {
    FrameSize += (Bytes + 7) & ~7ULL;
    return -static_cast<int64_t>(FrameSize);
  }
  uint64_t frameSize() const { return FrameSize; }

  /// Register-stack frame size after allocation (drives the RSE model).
  unsigned StackedRegsUsed = 0;
  /// Number of FP registers used (no RSE, but reported).
  unsigned FpRegsUsed = 0;
  /// One past the highest register id this function's code writes, split
  /// by file (stacked r32.. / float f32..). The simulator saves and
  /// restores only these windows around calls; the defaults cover the
  /// whole files so hand-built MIR that bypasses the register allocator
  /// (micro benches, tests) stays correct. RegAlloc tightens them.
  unsigned StackedRegHigh = FirstStackedReg + NumStackedRegs;
  unsigned FpRegHigh = FpRegBase + 128;

private:
  std::string Name;
  std::vector<MBlock> Blocks;
  std::vector<bool> VirtRegFp;
  std::map<const ir::Symbol *, int64_t> SlotOffsets;
  uint64_t FrameSize = 0;
};

/// A lowered module: machine functions plus the global memory image.
class MModule {
public:
  MModule() = default;
  MModule(const MModule &) = delete;
  MModule &operator=(const MModule &) = delete;

  MFunction *createFunction(std::string Name) {
    Functions.push_back(MirArena.create<MFunction>(std::move(Name)));
    return Functions.back();
  }

  unsigned numFunctions() const {
    return static_cast<unsigned>(Functions.size());
  }
  MFunction *function(unsigned I) { return Functions[I]; }
  const MFunction *function(unsigned I) const { return Functions[I]; }

  MFunction *findFunction(std::string_view Name);
  const MFunction *findFunction(std::string_view Name) const {
    return const_cast<MModule *>(this)->findFunction(Name);
  }

  /// Global symbol addresses (same layout as the interpreter's).
  std::map<const ir::Symbol *, uint64_t> GlobalAddr;

  Arena &arena() { return MirArena; }

private:
  /// Declared before Functions so teardown runs the MFunction
  /// destructors (queued in the arena) before the pointer list dies.
  Arena MirArena;
  std::vector<MFunction *> Functions; ///< Objects live in MirArena.
};

/// Prints \p M as assembly-style text.
void printMModule(const MModule &M, OStream &OS);
void printMFunction(const MFunction &F, OStream &OS);
std::string minstrToString(const MInstr &I);

} // namespace srp::codegen

#endif // SRP_CODEGEN_MIR_H
