//===- Decoded.cpp - MIR -> micro-op stream builder ---------------------------===//
//
// Decode half of the decode/simulate contract (Decoded.h). The builder
// is deterministic: the stream layout is a pure function of the module
// (blocks in order, each followed by its FellOff sentinel, then the
// function's out-of-range-target sentinels in ascending block-id order),
// so two decodes of one module are byte-identical — DecodedModuleTest
// memcmp's exactly that.
//
//===----------------------------------------------------------------------===//

#include "arch/Decoded.h"

#include <cassert>
#include <cstring>
#include <map>
#include <unordered_map>

using namespace srp;
using namespace srp::arch;
using namespace srp::codegen;

namespace {

/// NoReg and virtual registers sit outside the physical file; both fold
/// to the executor's always-zero DummyReg slot (Decoded.h invariants).
uint16_t mapReg(unsigned R) {
  return R < FirstVirtualReg ? static_cast<uint16_t>(R) : DummyReg;
}

/// Immediate-form kind selection for the default-shape ALU family.
DOpKind aluKind(MOp Op, bool HasImm) {
  switch (Op) {
  case MOp::Add:    return HasImm ? DOpKind::AddI : DOpKind::Add;
  case MOp::Sub:    return HasImm ? DOpKind::SubI : DOpKind::Sub;
  case MOp::Mul:    return HasImm ? DOpKind::MulI : DOpKind::Mul;
  case MOp::Div:    return HasImm ? DOpKind::DivI : DOpKind::Div;
  case MOp::Rem:    return HasImm ? DOpKind::RemI : DOpKind::Rem;
  case MOp::And:    return HasImm ? DOpKind::AndI : DOpKind::And;
  case MOp::Or:     return HasImm ? DOpKind::OrI : DOpKind::Or;
  case MOp::Xor:    return HasImm ? DOpKind::XorI : DOpKind::Xor;
  case MOp::Shl:    return HasImm ? DOpKind::ShlI : DOpKind::Shl;
  case MOp::Shr:    return HasImm ? DOpKind::ShrI : DOpKind::Shr;
  case MOp::ShlAdd: return HasImm ? DOpKind::ShlAddI : DOpKind::ShlAdd;
  case MOp::CmpEq:  return HasImm ? DOpKind::CmpEqI : DOpKind::CmpEq;
  case MOp::CmpNe:  return HasImm ? DOpKind::CmpNeI : DOpKind::CmpNe;
  case MOp::CmpLt:  return HasImm ? DOpKind::CmpLtI : DOpKind::CmpLt;
  case MOp::CmpLe:  return HasImm ? DOpKind::CmpLeI : DOpKind::CmpLe;
  case MOp::FAdd:   return HasImm ? DOpKind::FAddI : DOpKind::FAdd;
  case MOp::FSub:   return HasImm ? DOpKind::FSubI : DOpKind::FSub;
  case MOp::FMul:   return HasImm ? DOpKind::FMulI : DOpKind::FMul;
  case MOp::FDiv:   return HasImm ? DOpKind::FDivI : DOpKind::FDiv;
  case MOp::FCmpLt: return HasImm ? DOpKind::FCmpLtI : DOpKind::FCmpLt;
  case MOp::AllocHeap:
    return HasImm ? DOpKind::AllocHeapI : DOpKind::AllocHeap;
  default:
    assert(false && "not an immediate-form op");
    return DOpKind::Nop;
  }
}

DOpKind kindOf(const MInstr &I) {
  switch (I.Op) {
  case MOp::MovI:    return DOpKind::MovI;
  case MOp::Mov:     return DOpKind::Mov;
  case MOp::ICvtF:   return DOpKind::ICvtF;
  case MOp::FCvtI:   return DOpKind::FCvtI;
  case MOp::Sel:     return DOpKind::Sel;
  case MOp::Ld:      return DOpKind::Ld;
  case MOp::LdA:
  case MOp::LdSA:    return DOpKind::LdA; // identical simulator semantics
  case MOp::LdCClr:  return DOpKind::LdCClr;
  case MOp::LdCNc:   return DOpKind::LdCNc;
  case MOp::St:      return DOpKind::St;
  case MOp::StA:     return DOpKind::StA;
  case MOp::InvalaE: return DOpKind::InvalaE;
  case MOp::Print:   return DOpKind::Print;
  case MOp::Br:      return DOpKind::Br;
  case MOp::BrCond:  return DOpKind::BrCond;
  case MOp::ChkA:    return DOpKind::ChkA;
  case MOp::Call:    return DOpKind::Call;
  case MOp::Ret:     return DOpKind::Ret;
  case MOp::Nop:     return DOpKind::Nop;
  default:           return aluKind(I.Op, I.HasImm);
  }
}

/// True when the micro-op's handler writes Rd through the register file
/// (these must carry a physical Rd; decoding asserts it).
bool definesRd(MOp Op) {
  switch (Op) {
  case MOp::St:
  case MOp::StA:
  case MOp::InvalaE:
  case MOp::Print:
  case MOp::Br:
  case MOp::BrCond:
  case MOp::ChkA:
  case MOp::Call:
  case MOp::Ret:
  case MOp::Nop:
    return false;
  default:
    return true;
  }
}

/// Precomputes the issue-scan source list: MInstr::sources() shape order
/// with NoReg and virtual registers (`>= FirstVirtualReg`) filtered out,
/// padded with DummyReg.
void fillScanList(const MInstr &I, DecodedOp &D) {
  uint16_t Slots[3];
  unsigned N = 0;
  auto Add = [&](unsigned R) {
    if (R < FirstVirtualReg)
      Slots[N++] = static_cast<uint16_t>(R);
  };
  switch (I.Op) {
  case MOp::MovI:
  case MOp::Br:
  case MOp::Ret:
  case MOp::Nop:
  case MOp::Call:
    break;
  case MOp::St:
  case MOp::StA:
    Add(I.Rs1);
    Add(I.Rs3);
    break;
  case MOp::Sel:
    Add(I.Rs1);
    Add(I.Rs2);
    Add(I.Rs3);
    break;
  default:
    Add(I.Rs1);
    if (!I.HasImm)
      Add(I.Rs2);
    break;
  }
  D.S0 = N > 0 ? Slots[0] : DummyReg;
  D.S1 = N > 1 ? Slots[1] : DummyReg;
  D.S2 = N > 2 ? Slots[2] : DummyReg;
}

/// Decode-time pair fusion (Decoded.h invariants): the fused kind for an
/// adjacent (A, B) micro-op pair, or A unchanged when the pair is not one
/// of the hot combinations. The pair table is the measured top of the
/// dynamic opcode-pair histogram over the standard grid — memory-op pairs
/// and the compare-and-branch / address-arithmetic idioms together cover
/// just under half of all dispatches.
DOpKind fusedKind(DOpKind A, DOpKind B) {
  switch (A) {
  case DOpKind::Ld:
    if (B == DOpKind::Ld)
      return DOpKind::FuseLdLd;
    if (B == DOpKind::St)
      return DOpKind::FuseLdSt;
    break;
  case DOpKind::St:
    if (B == DOpKind::Ld)
      return DOpKind::FuseStLd;
    if (B == DOpKind::Mov)
      return DOpKind::FuseStMov;
    break;
  case DOpKind::AddI:
    if (B == DOpKind::St)
      return DOpKind::FuseAddISt;
    break;
  case DOpKind::Add:
    if (B == DOpKind::St)
      return DOpKind::FuseAddSt;
    break;
  case DOpKind::ShlAdd:
    if (B == DOpKind::Ld)
      return DOpKind::FuseShlAddLd;
    break;
  case DOpKind::Mov:
    if (B == DOpKind::AddI)
      return DOpKind::FuseMovAddI;
    break;
  case DOpKind::AndI:
    if (B == DOpKind::ShlAdd)
      return DOpKind::FuseAndIShlAdd;
    break;
  case DOpKind::CmpLtI:
    if (B == DOpKind::BrCond)
      return DOpKind::FuseCmpLtIBrCond;
    break;
  default:
    break;
  }
  return A;
}

const char *internCStr(Arena &A, const std::string &S) {
  char *Mem = static_cast<char *>(A.allocate(S.size() + 1, 1));
  std::memcpy(Mem, S.c_str(), S.size() + 1);
  return Mem;
}

} // namespace

DecodedModule::DecodedModule(const MModule &M) {
  std::unordered_map<const MFunction *, uint32_t> FuncIdx;
  for (unsigned I = 0; I < M.numFunctions(); ++I)
    FuncIdx[M.function(I)] = I;

  std::vector<DecodedOp> Stream;
  Funcs.reserve(M.numFunctions());

  for (unsigned FI = 0; FI < M.numFunctions(); ++FI) {
    const MFunction &F = *M.function(FI);
    const uint32_t NumBlocks = F.numBlocks();
    const uint32_t Base = static_cast<uint32_t>(Stream.size());

    // Layout: each block's ops followed by its fell-off sentinel, then
    // one sentinel per out-of-range branch target (ascending id order,
    // so the layout — and the decoded bytes — are deterministic).
    std::vector<uint32_t> Start(NumBlocks);
    uint32_t Off = 0;
    for (uint32_t B = 0; B < NumBlocks; ++B) {
      Start[B] = Off;
      Off += static_cast<uint32_t>(F.block(B).Instrs.size()) + 1;
    }
    std::map<uint32_t, uint32_t> InvalidAt; // block id -> local index
    auto NoteTarget = [&](unsigned T) {
      if (T >= NumBlocks)
        InvalidAt.emplace(T, 0);
    };
    for (uint32_t B = 0; B < NumBlocks; ++B)
      for (const MInstr &I : F.block(B).Instrs)
        switch (I.Op) {
        case MOp::Br:
        case MOp::Call:
          NoteTarget(I.Target);
          break;
        case MOp::BrCond:
          NoteTarget(I.Target);
          NoteTarget(I.FalseTarget);
          break;
        case MOp::ChkA:
          NoteTarget(I.Target);
          NoteTarget(I.Recovery);
          break;
        default:
          break;
        }
    for (auto &KV : InvalidAt)
      KV.second = Off++;
    auto Resolve = [&](unsigned T) {
      return Base + (T < NumBlocks ? Start[T] : InvalidAt.at(T));
    };

    for (uint32_t B = 0; B < NumBlocks; ++B) {
      for (const MInstr &I : F.block(B).Instrs) {
        DecodedOp D;
        D.Kind = static_cast<uint8_t>(kindOf(I));
        D.Fp = I.FpVal ? 1 : 0;
        assert((!definesRd(I.Op) || I.Rd < FirstVirtualReg) &&
               "defining micro-op with no physical destination register");
        D.Rd = mapReg(I.Rd);
        D.Rs1 = mapReg(I.Rs1);
        D.Rs2 = mapReg(I.Rs2);
        D.Rs3 = mapReg(I.Rs3);
        fillScanList(I, D);
        D.Imm = I.Imm;
        switch (I.Op) {
        case MOp::Br:
          D.Target = Resolve(I.Target);
          break;
        case MOp::BrCond:
          D.Target = Resolve(I.Target);
          D.Aux = Resolve(I.FalseTarget);
          break;
        case MOp::ChkA:
          D.Target = Resolve(I.Target);
          D.Aux = Resolve(I.Recovery);
          break;
        case MOp::Call:
          assert(I.Callee && "call without callee");
          D.Target = Resolve(I.Target);
          D.Aux = FuncIdx.at(I.Callee);
          break;
        default:
          break;
        }
        Stream.push_back(D);
      }
      DecodedOp Sentinel;
      Sentinel.Kind = static_cast<uint8_t>(DOpKind::FellOff);
      Sentinel.Rd = 0;
      Sentinel.Aux = B;
      Stream.push_back(Sentinel);
    }
    for (const auto &KV : InvalidAt) {
      DecodedOp Sentinel;
      Sentinel.Kind = static_cast<uint8_t>(DOpKind::FellOff);
      Sentinel.Rd = 0;
      Sentinel.Aux = KV.first;
      Stream.push_back(Sentinel);
    }
    if (NumBlocks == 0) {
      // Empty function: entering it must trap "fell off block b0".
      DecodedOp Sentinel;
      Sentinel.Kind = static_cast<uint8_t>(DOpKind::FellOff);
      Sentinel.Rd = 0;
      Sentinel.Aux = 0;
      Stream.push_back(Sentinel);
    }

    DecodedFunction DF;
    DF.Name = internCStr(A, F.getName());
    DF.EntryPC = Base;
    DF.StackedRegsUsed = F.StackedRegsUsed;
    DF.IntHigh = F.StackedRegHigh;
    DF.FpHigh = F.FpRegHigh;
    Funcs.push_back(DF);

    if (F.getName() == "main")
      MainIdx = FI;
  }

  // Pair-fusion rewrite, whole stream in one pass. Only the first op of
  // a matched pair changes kind, and detection at index I reads the
  // still-original kind (processing pair I-1 rewrote index I-1, not I),
  // so overlapping chains fuse naturally. Function slices need no
  // bookkeeping: every slice ends in FellOff sentinels, which never
  // match either side of a pair.
  for (size_t I = 0; I + 1 < Stream.size(); ++I)
    Stream[I].Kind = static_cast<uint8_t>(
        fusedKind(static_cast<DOpKind>(Stream[I].Kind),
                  static_cast<DOpKind>(Stream[I + 1].Kind)));

  Ops = A.copyArray(Stream.data(), Stream.size());
  NumOps = static_cast<uint32_t>(Stream.size());
}
