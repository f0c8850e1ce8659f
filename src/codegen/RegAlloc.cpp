//===- RegAlloc.cpp - Linear-scan register allocation ------------------------===//

#include "codegen/RegAlloc.h"

#include "support/Error.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <set>

using namespace srp;
using namespace srp::codegen;

namespace {

/// Allocates one function.
class FunctionAllocator {
public:
  FunctionAllocator(MFunction &F, const RegAllocOptions &Options,
                    RegAllocStats &Stats)
      : F(F), Options(Options), Stats(Stats) {}

  void run() {
    numberInstructions();
    computeLiveness();
    buildIntervals();
    allocate();
    rewrite();
    patchPrologue();
  }

private:
  struct Interval {
    unsigned VReg;
    unsigned Start;
    unsigned End;
    bool Fp;
    bool AlatTracked;
    unsigned Assigned = NoReg;
    int64_t SpillSlot = 0;
    bool Spilled = false;
  };

  unsigned vindex(unsigned Reg) const { return Reg - FirstVirtualReg; }

  void numberInstructions() {
    unsigned N = 0;
    BlockStart.resize(F.numBlocks());
    BlockEnd.resize(F.numBlocks());
    for (unsigned BI = 0; BI < F.numBlocks(); ++BI) {
      BlockStart[BI] = N;
      N += static_cast<unsigned>(F.block(BI).Instrs.size());
      BlockEnd[BI] = N; // one past the last instruction
    }
    NumPositions = N;
  }

  /// Successor blocks of BI, derived from the terminator (plus call
  /// resume and chk.a recovery edges).
  void appendSuccessors(unsigned BI, std::vector<unsigned> &Out) const {
    const auto &Instrs = F.block(BI).Instrs;
    if (Instrs.empty())
      return;
    const MInstr &T = Instrs.back();
    switch (T.Op) {
    case MOp::Br:
      Out.push_back(T.Target);
      break;
    case MOp::BrCond:
      Out.push_back(T.Target);
      Out.push_back(T.FalseTarget);
      break;
    case MOp::ChkA:
      Out.push_back(T.Target);
      Out.push_back(T.Recovery);
      break;
    case MOp::Call:
      Out.push_back(T.Target);
      break;
    case MOp::Ret:
      break;
    default:
      // Fall-through should not happen (blocks always end in a
      // terminator); be permissive for partially built functions.
      if (BI + 1 < F.numBlocks())
        Out.push_back(BI + 1);
      break;
    }
  }

  /// Live-variable sets are bit vectors over the virtual registers, one
  /// row of Words 64-bit words per block.
  uint64_t *row(std::vector<uint64_t> &Set, unsigned BI) {
    return Set.data() + size_t(BI) * Words;
  }
  const uint64_t *row(const std::vector<uint64_t> &Set, unsigned BI) const {
    return Set.data() + size_t(BI) * Words;
  }
  static void setBit(uint64_t *Row, unsigned V) {
    Row[V / 64] |= uint64_t(1) << (V % 64);
  }
  static void clearBit(uint64_t *Row, unsigned V) {
    Row[V / 64] &= ~(uint64_t(1) << (V % 64));
  }

  /// Backward liveness: LiveIn = Use ∪ (LiveOut − Def) per block, solved
  /// to the least fixpoint.
  void computeLiveness() {
    unsigned NumBlocks = F.numBlocks();
    Words = (F.numVirtualRegs() + 63) / 64;
    // Per block: Use (read before any write in the block) and Def
    // (written in the block), from one backward walk.
    std::vector<uint64_t> Use(size_t(NumBlocks) * Words, 0);
    std::vector<uint64_t> Def(size_t(NumBlocks) * Words, 0);
    std::vector<unsigned> SuccBegin(NumBlocks + 1, 0), Succs;
    for (unsigned BI = 0; BI < NumBlocks; ++BI) {
      uint64_t *U = row(Use, BI), *D = row(Def, BI);
      const auto &Instrs = F.block(BI).Instrs;
      for (auto It = Instrs.rbegin(); It != Instrs.rend(); ++It) {
        if (It->definesReg() && isVirtualReg(It->Rd)) {
          clearBit(U, vindex(It->Rd));
          setBit(D, vindex(It->Rd));
        }
        unsigned Srcs[3];
        unsigned Count;
        It->sources(Srcs, Count);
        for (unsigned K = 0; K < Count; ++K)
          if (isVirtualReg(Srcs[K]))
            setBit(U, vindex(Srcs[K]));
      }
      appendSuccessors(BI, Succs);
      SuccBegin[BI + 1] = static_cast<unsigned>(Succs.size());
    }
    LiveIn.assign(size_t(NumBlocks) * Words, 0);
    LiveOut.assign(size_t(NumBlocks) * Words, 0);
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (unsigned BI = NumBlocks; BI-- > 0;) {
        uint64_t *In = row(LiveIn, BI), *Out = row(LiveOut, BI);
        const uint64_t *U = row(Use, BI), *D = row(Def, BI);
        for (unsigned W = 0; W < Words; ++W) {
          uint64_t NewOut = 0;
          for (unsigned SI = SuccBegin[BI]; SI != SuccBegin[BI + 1]; ++SI)
            NewOut |= row(LiveIn, Succs[SI])[W];
          uint64_t NewIn = U[W] | (NewOut & ~D[W]);
          if (NewIn != In[W] || NewOut != Out[W]) {
            In[W] = NewIn;
            Out[W] = NewOut;
            Changed = true;
          }
        }
      }
    }
  }

  void buildIntervals() {
    unsigned NumV = F.numVirtualRegs();
    std::vector<unsigned> Start(NumV, ~0u), End(NumV, 0);
    std::vector<bool> Tracked(NumV, false), Seen(NumV, false);
    auto Extend = [&](unsigned V, unsigned Pos) {
      Seen[V] = true;
      Start[V] = std::min(Start[V], Pos);
      End[V] = std::max(End[V], Pos + 1);
    };
    for (unsigned BI = 0; BI < F.numBlocks(); ++BI) {
      unsigned Pos = BlockStart[BI];
      for (const MInstr &I : F.block(BI).Instrs) {
        if (I.definesReg() && isVirtualReg(I.Rd)) {
          Extend(vindex(I.Rd), Pos);
          if (I.Op == MOp::LdA || I.Op == MOp::LdSA || isCheckLoad(I.Op))
            Tracked[vindex(I.Rd)] = true;
        }
        unsigned Srcs[3];
        unsigned Count;
        I.sources(Srcs, Count);
        for (unsigned K = 0; K < Count; ++K)
          if (isVirtualReg(Srcs[K]))
            Extend(vindex(Srcs[K]), Pos);
        if (I.Op == MOp::StA && isVirtualReg(I.Rs2))
          Tracked[vindex(I.Rs2)] = true;
        if ((I.Op == MOp::InvalaE || I.Op == MOp::ChkA) &&
            isVirtualReg(I.Rs1))
          Tracked[vindex(I.Rs1)] = true;
        ++Pos;
      }
      auto ExtendLive = [&](const uint64_t *Row, unsigned Pos) {
        for (unsigned W = 0; W < Words; ++W)
          for (uint64_t Bits = Row[W]; Bits; Bits &= Bits - 1)
            Extend(W * 64 + static_cast<unsigned>(std::countr_zero(Bits)),
                   Pos);
      };
      ExtendLive(row(LiveIn, BI), BlockStart[BI]);
      ExtendLive(row(LiveOut, BI), BlockEnd[BI] == 0 ? 0 : BlockEnd[BI] - 1);
    }
    for (unsigned V = 0; V < NumV; ++V) {
      if (!Seen[V])
        continue;
      Interval IV;
      IV.VReg = FirstVirtualReg + V;
      IV.Start = Start[V];
      IV.End = End[V];
      IV.Fp = F.isVirtFp(IV.VReg);
      IV.AlatTracked = Tracked[V];
      Intervals.push_back(IV);
    }
    std::sort(Intervals.begin(), Intervals.end(),
              [](const Interval &A, const Interval &B) {
                return A.Start < B.Start ||
                       (A.Start == B.Start && A.VReg < B.VReg);
              });
  }

  void allocate() {
    // Two independent pools; classic linear scan with furthest-end spill,
    // preferring to spill untracked intervals.
    std::vector<unsigned> FreeInt, FreeFp;
    for (unsigned I = 0; I < Options.IntPoolSize; ++I)
      FreeInt.push_back(FirstStackedReg + I);
    for (unsigned I = 0; I < Options.FpPoolSize; ++I)
      FreeFp.push_back(FpRegBase + FirstStackedReg + I);
    std::reverse(FreeInt.begin(), FreeInt.end());
    std::reverse(FreeFp.begin(), FreeFp.end());

    std::vector<Interval *> Active;
    unsigned IntInUse = 0, FpInUse = 0;
    for (Interval &IV : Intervals) {
      // Expire old intervals.
      for (size_t K = 0; K < Active.size();) {
        if (Active[K]->End <= IV.Start) {
          (Active[K]->Fp ? FreeFp : FreeInt)
              .push_back(Active[K]->Assigned);
          (Active[K]->Fp ? FpInUse : IntInUse) -= 1;
          Active.erase(Active.begin() + static_cast<ptrdiff_t>(K));
        } else {
          ++K;
        }
      }
      auto &Pool = IV.Fp ? FreeFp : FreeInt;
      if (!Pool.empty()) {
        IV.Assigned = Pool.back();
        Pool.pop_back();
        Active.push_back(&IV);
        unsigned &InUse = IV.Fp ? FpInUse : IntInUse;
        ++InUse;
        unsigned &MaxP = IV.Fp ? Stats.MaxFpPressure : Stats.MaxIntPressure;
        MaxP = std::max(MaxP, InUse);
        continue;
      }
      // Spill: the active interval of the same class with the furthest
      // end that is not ALAT-tracked; otherwise spill the new interval.
      Interval *Victim = nullptr;
      for (Interval *Cand : Active)
        if (Cand->Fp == IV.Fp && !Cand->AlatTracked)
          if (!Victim || Cand->End > Victim->End)
            Victim = Cand;
      if (Victim && Victim->End > IV.End && !IV.AlatTracked) {
        IV.Assigned = Victim->Assigned;
        Victim->Assigned = NoReg;
        Victim->Spilled = true;
        Victim->SpillSlot = F.allocateFrameBytes(8);
        ++Stats.SpilledRegs;
        *std::find(Active.begin(), Active.end(), Victim) = &IV;
        continue;
      }
      if (IV.AlatTracked && Victim) {
        // Tracked intervals must stay in registers; evict the victim.
        IV.Assigned = Victim->Assigned;
        Victim->Assigned = NoReg;
        Victim->Spilled = true;
        Victim->SpillSlot = F.allocateFrameBytes(8);
        ++Stats.SpilledRegs;
        *std::find(Active.begin(), Active.end(), Victim) = &IV;
        continue;
      }
      IV.Spilled = true;
      IV.SpillSlot = F.allocateFrameBytes(8);
      ++Stats.SpilledRegs;
    }

    // Count distinct physical registers for the RSE frame model.
    std::set<unsigned> UsedInt, UsedFp;
    for (const Interval &IV : Intervals) {
      if (IV.Assigned == NoReg)
        continue;
      if (IV.Fp)
        UsedFp.insert(IV.Assigned);
      else
        UsedInt.insert(IV.Assigned);
    }
    F.StackedRegsUsed = static_cast<unsigned>(UsedInt.size());
    F.FpRegsUsed = static_cast<unsigned>(UsedFp.size());
    // The rewritten code writes no stacked register above the highest
    // assignment (fixed scratch/return regs sit below the stacked
    // range), so the simulator only saves up to these around calls.
    F.StackedRegHigh =
        UsedInt.empty() ? FirstStackedReg : *UsedInt.rbegin() + 1;
    F.FpRegHigh =
        UsedFp.empty() ? FpRegBase + FirstStackedReg : *UsedFp.rbegin() + 1;
  }

  void rewrite() {
    // Map vreg -> interval.
    std::vector<Interval *> ByReg(F.numVirtualRegs(), nullptr);
    for (Interval &IV : Intervals)
      ByReg[vindex(IV.VReg)] = &IV;

    for (unsigned BI = 0; BI < F.numBlocks(); ++BI) {
      auto &Instrs = F.block(BI).Instrs;
      std::vector<MInstr> Out;
      Out.reserve(Instrs.size());
      for (MInstr I : Instrs) {
        unsigned ScratchInt = RegScratch0;
        unsigned ScratchFp = FpScratch0;
        auto MapSrc = [&](unsigned &Reg) {
          if (!isVirtualReg(Reg))
            return;
          Interval *IV = ByReg[vindex(Reg)];
          if (!IV->Spilled) {
            Reg = IV->Assigned;
            return;
          }
          unsigned Scratch = IV->Fp ? ScratchFp++ : ScratchInt++;
          MInstr Fill;
          Fill.Op = MOp::Ld;
          Fill.Rd = Scratch;
          Fill.Rs1 = RegFP;
          Fill.Imm = IV->SpillSlot;
          Fill.FpVal = IV->Fp;
          Out.push_back(Fill);
          Reg = Scratch;
        };
        MapSrc(I.Rs1);
        if (!I.HasImm)
          MapSrc(I.Rs2);
        MapSrc(I.Rs3);
        if (I.definesReg() && isVirtualReg(I.Rd)) {
          Interval *IV = ByReg[vindex(I.Rd)];
          if (!IV->Spilled) {
            I.Rd = IV->Assigned;
            Out.push_back(I);
          } else {
            unsigned Scratch = IV->Fp ? FpScratch1 : RegScratch1;
            I.Rd = Scratch;
            Out.push_back(I);
            MInstr Spill;
            Spill.Op = MOp::St;
            Spill.Rs1 = RegFP;
            Spill.Imm = IV->SpillSlot;
            Spill.Rs3 = Scratch;
            Spill.FpVal = IV->Fp;
            Out.push_back(Spill);
          }
        } else {
          Out.push_back(I);
        }
      }
      Instrs = std::move(Out);
    }
  }

  void patchPrologue() {
    // The frame-open Add SP = SP + imm in the entry block gets the final
    // frame size (spill slots included).
    for (MInstr &I : F.block(0).Instrs) {
      if (I.Op == MOp::Add && I.Rd == RegSP && I.Rs1 == RegSP && I.HasImm &&
          I.Imm == 0) {
        I.Imm = -static_cast<int64_t>(F.frameSize());
        return;
      }
    }
    SRP_UNREACHABLE("prologue frame-open instruction not found");
  }

  MFunction &F;
  const RegAllocOptions &Options;
  RegAllocStats &Stats;
  std::vector<unsigned> BlockStart, BlockEnd;
  unsigned NumPositions = 0;
  unsigned Words = 0; ///< 64-bit words per liveness row
  std::vector<uint64_t> LiveIn, LiveOut; ///< [block * Words + word]
  std::vector<Interval> Intervals;
};

} // namespace

RegAllocStats srp::codegen::allocateRegisters(MModule &M,
                                              const RegAllocOptions &Options) {
  RegAllocStats Stats;
  for (unsigned FI = 0; FI < M.numFunctions(); ++FI) {
    FunctionAllocator FA(*M.function(FI), Options, Stats);
    FA.run();
  }
  return Stats;
}
