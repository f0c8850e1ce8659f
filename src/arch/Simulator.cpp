//===- Simulator.cpp - ITA functional + timing simulator ----------------------===//

#include "arch/Simulator.h"

#include "interp/Interpreter.h" // layout constants
#include "support/Error.h"
#include "support/PagedMemory.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>

using namespace srp;
using namespace srp::arch;
using namespace srp::codegen;

namespace {

/// One simulated run.
class Machine {
public:
  Machine(const MModule &M, const SimConfig &Config)
      : M(M), Config(Config), IssueW(Config.IssueWidth),
        MaxInstrs(Config.MaxInstructions), Table(Config.Alat, Config.Faults) {}

  SimResult run();

private:
  // (hot-loop constants are latched in the constructor)
  struct ReturnPoint {
    const MFunction *F;
    unsigned Block;
    unsigned Index;
    unsigned StackedRegs; ///< callee's frame for the RSE pop.
    /// The IA-64 register stack renames r32..r127 / f32..f127 per frame;
    /// a flat register file must save and restore them instead. Only the
    /// window the callee can actually write ([FirstStackedReg,
    /// StackedRegHigh) per file, see MFunction) needs copying — regs
    /// above it are untouched across the call by induction. The saved
    /// words live in the pooled SaveArea starting at SavedBase, so calls
    /// never allocate. The RSE *timing* of the same mechanism is charged
    /// by rseCall/rseReturn.
    unsigned IntHigh;
    unsigned FpHigh;
    size_t SavedBase;
  };

  void trap(std::string Message) {
    if (!Trapped) {
      Trapped = true;
      TrapMessage = std::move(Message);
    }
  }

  uint64_t read64(uint64_t Addr) {
    if (Addr % 8 != 0) {
      trap(formatString("unaligned read at 0x%llx",
                        static_cast<unsigned long long>(Addr)));
      return 0;
    }
    return Memory.load(Addr >> 3);
  }

  void write64(uint64_t Addr, uint64_t Bits) {
    if (Addr % 8 != 0) {
      trap(formatString("unaligned write at 0x%llx",
                        static_cast<unsigned long long>(Addr)));
      return;
    }
    Memory.store(Addr >> 3, Bits);
  }

  uint64_t reg(unsigned R) const {
    assert(R < Regs.size() && "register id out of range");
    return R == RegZero ? 0 : Regs[R];
  }

  void setReg(unsigned R, uint64_t V, uint64_t ReadyAt, bool FromLoad) {
    assert(R < Regs.size() && "register id out of range");
    if (R == RegZero)
      return;
    Regs[R] = V;
    Ready[R] = ReadyAt;
    WriteSeq[R] = RetSeq;
    LoadProduced[R] = FromLoad;
    if (ReadyAt > PendingUntil)
      PendingUntil = ReadyAt;
  }

  static bool isStackedIdx(unsigned R) {
    return (R - FirstStackedReg) < NumStackedRegs ||
           (R - (FpRegBase + FirstStackedReg)) < NumStackedRegs;
  }

  /// The ready cycle issue() must observe for source register \p R.
  /// Architecturally every return overwrites Ready of the *whole*
  /// stacked file with the return cycle (a pending caller-side load
  /// latency does not survive the call); doing that as 192 stores per
  /// Ret dominated the simulator, so Ret instead bumps RetSeq and a
  /// stacked register not written since (WriteSeq stale) reads the
  /// recorded LastRetCycle.
  uint64_t readyOf(unsigned R) const {
    if (isStackedIdx(R) && WriteSeq[R] != RetSeq)
      return LastRetCycle;
    return Ready[R];
  }

  /// Folds one source register into the issue dependence scan. NoReg and
  /// virtual-register sentinels fall outside [0, FirstVirtualReg) and are
  /// skipped; RegZero needs no special case because setReg never writes
  /// slot 0, so Ready[0] and LoadProduced[0] stay zero.
  void srcDep(unsigned R, uint64_t &Avail, bool &LoadLimited) {
    if (R >= FirstVirtualReg)
      return;
    uint64_t Rdy = readyOf(R);
    if (Rdy > Avail) {
      Avail = Rdy;
      LoadLimited = LoadProduced[R];
    } else if (Rdy == Avail && Avail > Cycle && LoadProduced[R]) {
      LoadLimited = true;
    }
  }

  /// Source-operand shape per opcode, mirroring MInstr::sources():
  /// 0 = none, 1 = store (Rs1, Rs3), 2 = select (Rs1, Rs2, Rs3),
  /// 3 = default (Rs1, and Rs2 unless the immediate form). issue() runs
  /// once per simulated instruction; the byte table replaces a second
  /// opcode switch over the same instruction.
  static constexpr auto SrcShape = [] {
    std::array<uint8_t, static_cast<size_t>(MOp::Nop) + 1> T{};
    for (auto &V : T)
      V = 3;
    for (MOp Op : {MOp::MovI, MOp::Br, MOp::Ret, MOp::Nop, MOp::Call})
      T[static_cast<size_t>(Op)] = 0;
    T[static_cast<size_t>(MOp::St)] = 1;
    T[static_cast<size_t>(MOp::StA)] = 1;
    T[static_cast<size_t>(MOp::Sel)] = 2;
    return T;
  }();

  /// Advances the issue clock over source dependences and a slot.
  void issue(const MInstr &I) {
    // No register in the whole file has a ready cycle beyond the clock
    // (PendingUntil is a monotone watermark over every setReg, and
    // LastRetCycle never exceeds Cycle), so the dependence scan cannot
    // move Avail and is skipped. Pure ALU stretches stay on this path.
    if (Cycle >= PendingUntil) {
      ++SlotsUsed;
      if (SlotsUsed >= IssueW) {
        ++Cycle;
        SlotsUsed = 0;
      }
      ++Counters.Instructions;
      return;
    }
    uint64_t Avail = Cycle;
    bool LoadLimited = false;
    switch (SrcShape[static_cast<size_t>(I.Op)]) {
    case 0:
      break;
    case 1:
      srcDep(I.Rs1, Avail, LoadLimited);
      srcDep(I.Rs3, Avail, LoadLimited);
      break;
    case 2:
      srcDep(I.Rs1, Avail, LoadLimited);
      srcDep(I.Rs2, Avail, LoadLimited);
      srcDep(I.Rs3, Avail, LoadLimited);
      break;
    default:
      srcDep(I.Rs1, Avail, LoadLimited);
      if (!I.HasImm)
        srcDep(I.Rs2, Avail, LoadLimited);
      break;
    }
    if (Avail > Cycle) {
      if (LoadLimited)
        Counters.DataAccessCycles += Avail - Cycle;
      Cycle = Avail;
      SlotsUsed = 0;
    }
    ++SlotsUsed;
    if (SlotsUsed >= IssueW) {
      ++Cycle;
      SlotsUsed = 0;
    }
    ++Counters.Instructions;
  }

  void takenBranch(unsigned Penalty) {
    Cycle += Penalty;
    SlotsUsed = 0;
    ++Counters.TakenBranches;
  }

  /// RSE bookkeeping for a call into a frame of \p N stacked registers.
  void rseCall(unsigned N) {
    RseTotal += N;
    if (RseTotal > RseSpilled + NumStackedRegs) {
      uint64_t D = RseTotal - RseSpilled - NumStackedRegs;
      RseSpilled += D;
      Counters.RseSpills += D;
      Counters.RseCycles += D * Config.RsePerRegCycles;
    }
  }

  void rseReturn(unsigned N) {
    RseTotal -= N;
    if (RseSpilled > RseTotal) {
      uint64_t D = RseSpilled - RseTotal;
      RseSpilled -= D;
      Counters.RseFills += D;
      Counters.RseCycles += D * Config.RsePerRegCycles;
    }
  }

  uint64_t performLoad(uint64_t Addr, bool Fp) {
    ++Counters.RetiredLoads;
    LastLoadLatency = Mem.loadLatency(Addr, Fp);
    return read64(Addr);
  }

  void execute(const MInstr &I);

  const MModule &M;
  const SimConfig &Config;
  const unsigned IssueW; ///< Config.IssueWidth, read once per instruction.
  const uint64_t MaxInstrs; ///< Config.MaxInstructions, checked per instruction.
  Alat Table;
  MemoryHierarchy Mem;

  std::vector<uint64_t> Regs = std::vector<uint64_t>(FirstVirtualReg, 0);
  std::vector<uint64_t> Ready = std::vector<uint64_t>(FirstVirtualReg, 0);
  /// uint8_t, not bool: issue() reads and setReg() writes this once per
  /// simulated instruction, and vector<bool>'s bit packing costs a
  /// read-modify-write on the hot path.
  std::vector<uint8_t> LoadProduced = std::vector<uint8_t>(FirstVirtualReg, 0);
  /// Lazy whole-file Ready overwrite on Ret: see readyOf().
  std::vector<uint64_t> WriteSeq = std::vector<uint64_t>(FirstVirtualReg, 0);
  uint64_t RetSeq = 0;
  uint64_t LastRetCycle = 0;
  /// Highest ready cycle ever written by setReg; while Cycle is at or
  /// past it, issue()'s dependence scan is provably a no-op.
  uint64_t PendingUntil = 0;
  PagedMemory Memory;
  uint64_t HeapTop = interp::layout::HeapBase;

  const MFunction *CurF = nullptr;
  unsigned CurBlock = 0;
  unsigned CurIndex = 0;
  std::vector<ReturnPoint> CallStack;
  /// Pooled stacked-register save area; ReturnPoint::SavedBase indexes
  /// into it. Grows once to the deepest call chain's footprint.
  std::vector<uint64_t> SaveArea;

  uint64_t Cycle = 0;
  unsigned SlotsUsed = 0;
  unsigned LastLoadLatency = 0;
  uint64_t RseTotal = 0;
  uint64_t RseSpilled = 0;

  PerfCounters Counters;
  std::vector<std::string> Output;
  bool Trapped = false;
  bool Finished = false;
  std::string TrapMessage;
};

void Machine::execute(const MInstr &I) {
  auto S1 = [&] { return reg(I.Rs1); };
  auto S2 = [&] { return I.HasImm ? static_cast<uint64_t>(I.Imm)
                                  : reg(I.Rs2); };
  auto Int = [](int64_t V) { return static_cast<uint64_t>(V); };
  auto Dbl = [](double V) { return std::bit_cast<uint64_t>(V); };
  auto AsI = [](uint64_t V) { return static_cast<int64_t>(V); };
  auto AsD = [](uint64_t V) { return std::bit_cast<double>(V); };

  issue(I);

  auto SetAlu = [&](uint64_t V, unsigned Latency = 1) {
    setReg(I.Rd, V, Cycle + Latency - 1, false);
  };

  switch (I.Op) {
  case MOp::MovI:
    SetAlu(static_cast<uint64_t>(I.Imm));
    break;
  case MOp::Mov:
    SetAlu(S1());
    break;
  case MOp::Add:
    SetAlu(Int(AsI(S1()) + AsI(S2())));
    break;
  case MOp::Sub:
    SetAlu(Int(AsI(S1()) - AsI(S2())));
    break;
  case MOp::Mul:
    SetAlu(Int(AsI(S1()) * AsI(S2())), Config.MulLatency);
    break;
  case MOp::Div:
    SetAlu(AsI(S2()) == 0 ? 0 : Int(AsI(S1()) / AsI(S2())),
           Config.DivLatency);
    break;
  case MOp::Rem:
    SetAlu(AsI(S2()) == 0 ? 0 : Int(AsI(S1()) % AsI(S2())),
           Config.DivLatency);
    break;
  case MOp::And:
    SetAlu(S1() & S2());
    break;
  case MOp::Or:
    SetAlu(S1() | S2());
    break;
  case MOp::Xor:
    SetAlu(S1() ^ S2());
    break;
  case MOp::Shl:
    SetAlu(S1() << (S2() & 63));
    break;
  case MOp::Shr:
    SetAlu(S1() >> (S2() & 63));
    break;
  case MOp::ShlAdd:
    SetAlu((S1() << 3) + (I.HasImm ? static_cast<uint64_t>(I.Imm)
                                   : reg(I.Rs2)));
    break;
  case MOp::CmpEq:
    SetAlu(AsI(S1()) == AsI(S2()));
    break;
  case MOp::CmpNe:
    SetAlu(AsI(S1()) != AsI(S2()));
    break;
  case MOp::CmpLt:
    SetAlu(AsI(S1()) < AsI(S2()));
    break;
  case MOp::CmpLe:
    SetAlu(AsI(S1()) <= AsI(S2()));
    break;
  case MOp::FAdd:
    SetAlu(Dbl(AsD(S1()) + AsD(S2())), Config.FpLatency);
    break;
  case MOp::FSub:
    SetAlu(Dbl(AsD(S1()) - AsD(S2())), Config.FpLatency);
    break;
  case MOp::FMul:
    SetAlu(Dbl(AsD(S1()) * AsD(S2())), Config.FpLatency);
    break;
  case MOp::FDiv:
    SetAlu(Dbl(AsD(S2()) == 0.0 ? 0.0 : AsD(S1()) / AsD(S2())),
           Config.FpDivLatency);
    break;
  case MOp::FCmpLt:
    SetAlu(AsD(S1()) < AsD(S2()), Config.FpLatency);
    break;
  case MOp::ICvtF:
    SetAlu(Dbl(static_cast<double>(AsI(S1()))), Config.FpLatency);
    break;
  case MOp::FCvtI:
    SetAlu(Int(static_cast<int64_t>(AsD(S1()))), Config.FpLatency);
    break;
  case MOp::Sel:
    SetAlu(S1() != 0 ? reg(I.Rs2) : reg(I.Rs3));
    break;

  case MOp::Ld: {
    uint64_t Addr = S1() + static_cast<uint64_t>(I.Imm);
    uint64_t V = performLoad(Addr, I.FpVal);
    setReg(I.Rd, V, Cycle + LastLoadLatency - 1, true);
    break;
  }
  case MOp::LdA:
  case MOp::LdSA: {
    uint64_t Addr = S1() + static_cast<uint64_t>(I.Imm);
    uint64_t V = performLoad(Addr, I.FpVal);
    Table.allocate(I.Rd, Addr);
    setReg(I.Rd, V, Cycle + LastLoadLatency - 1, true);
    break;
  }
  case MOp::LdCClr:
  case MOp::LdCNc: {
    uint64_t Addr = S1() + static_cast<uint64_t>(I.Imm);
    ++Counters.AlatChecks;
    if (Table.check(I.Rd, Addr, /*Clear=*/I.Op == MOp::LdCClr)) {
      // Hit: the register already holds the memory value; no latency.
      // (Functionally we refresh it, which is a no-op on a hit.)
      Regs[I.Rd] = read64(Addr);
      break;
    }
    ++Counters.AlatCheckFailures;
    uint64_t V = performLoad(Addr, I.FpVal);
    if (I.Op == MOp::LdCNc)
      Table.allocate(I.Rd, Addr);
    setReg(I.Rd, V, Cycle + LastLoadLatency - 1, true);
    break;
  }
  case MOp::St:
  case MOp::StA: {
    uint64_t Addr = S1() + static_cast<uint64_t>(I.Imm);
    write64(Addr, reg(I.Rs3));
    Mem.store(Addr);
    Table.storeNotify(Addr);
    ++Counters.RetiredStores;
    if (I.Op == MOp::StA) {
      if (!Config.UseStA) {
        trap("st.a executed on a machine without the st.a extension");
        break;
      }
      // The §2.5 extension: the store itself allocates the entry.
      Table.allocate(I.Rs2, Addr);
    }
    break;
  }
  case MOp::InvalaE:
    Table.invalidateRegister(I.Rs1);
    break;
  case MOp::AllocHeap: {
    int64_t Count = I.HasImm ? I.Imm : AsI(S1());
    if (Count < 1)
      Count = 1;
    uint64_t Bytes = (static_cast<uint64_t>(Count) * 8 + 63) & ~63ULL;
    SetAlu(HeapTop);
    HeapTop += Bytes;
    break;
  }
  case MOp::Print: {
    uint64_t Bits = reg(I.Rs1);
    if (I.FpVal)
      Output.push_back(formatString("%.6g", AsD(Bits)));
    else
      Output.push_back(formatString(
          "%lld", static_cast<long long>(AsI(Bits))));
    break;
  }

  case MOp::Br:
    CurBlock = I.Target;
    CurIndex = 0;
    takenBranch(Config.TakenBranchPenalty);
    return;
  case MOp::BrCond:
    if (S1() != 0) {
      CurBlock = I.Target;
      takenBranch(Config.TakenBranchPenalty);
    } else {
      CurBlock = I.FalseTarget;
      takenBranch(Config.TakenBranchPenalty);
    }
    CurIndex = 0;
    return;
  case MOp::ChkA:
    ++Counters.AlatChecks;
    if (Table.checkRegister(I.Rs1)) {
      CurBlock = I.Target;
    } else {
      ++Counters.AlatCheckFailures;
      ++Counters.ChkARecoveries;
      Cycle += Config.ChkMissPenalty;
      SlotsUsed = 0;
      CurBlock = I.Recovery;
    }
    CurIndex = 0;
    return;
  case MOp::Call: {
    if (CallStack.size() >= 512) {
      trap("call depth limit exceeded");
      return;
    }
    ReturnPoint RP{CurF,
                   I.Target,
                   0,
                   I.Callee->StackedRegsUsed,
                   I.Callee->StackedRegHigh,
                   I.Callee->FpRegHigh,
                   SaveArea.size()};
    // Bulk range inserts: one capacity check and a memmove per window,
    // not a push_back per register.
    SaveArea.insert(SaveArea.end(), Regs.data() + FirstStackedReg,
                    Regs.data() + RP.IntHigh);
    SaveArea.insert(SaveArea.end(), Regs.data() + FpRegBase + FirstStackedReg,
                    Regs.data() + RP.FpHigh);
    CallStack.push_back(RP);
    rseCall(I.Callee->StackedRegsUsed);
    CurF = I.Callee;
    CurBlock = 0;
    CurIndex = 0;
    takenBranch(Config.CallPenalty);
    return;
  }
  case MOp::Ret: {
    if (CallStack.empty()) {
      Finished = true;
      return;
    }
    ReturnPoint RP = CallStack.back();
    CallStack.pop_back();
    rseReturn(RP.StackedRegs);
    const uint64_t *Src = SaveArea.data() + RP.SavedBase;
    std::copy(Src, Src + (RP.IntHigh - FirstStackedReg),
              Regs.data() + FirstStackedReg);
    Src += RP.IntHigh - FirstStackedReg;
    std::copy(Src, Src + (RP.FpHigh - (FpRegBase + FirstStackedReg)),
              Regs.data() + FpRegBase + FirstStackedReg);
    SaveArea.resize(RP.SavedBase);
    // The return makes every stacked register architecturally current
    // again (Ready := this cycle) — recorded lazily, see readyOf().
    ++RetSeq;
    LastRetCycle = Cycle;
    CurF = RP.F;
    CurBlock = RP.Block;
    CurIndex = RP.Index;
    takenBranch(Config.CallPenalty);
    return;
  }
  case MOp::Nop:
    break;
  }
  ++CurIndex;
}

SimResult Machine::run() {
  SimResult Result;
  const MFunction *Main = M.findFunction("main");
  if (!Main) {
    Result.Error = "module has no main function";
    return Result;
  }
  Regs[RegSP] = interp::layout::StackBase;
  Regs[RegFP] = interp::layout::StackBase;
  CurF = Main;
  rseCall(Main->StackedRegsUsed);
  CallStack.reserve(512);
  SaveArea.reserve(512 * 2 * NumStackedRegs / 8);

  while (!Finished && !Trapped) {
    if (CurBlock >= CurF->numBlocks() ||
        CurIndex >= CurF->block(CurBlock).Instrs.size()) {
      trap(formatString("fell off block b%u of %s", CurBlock,
                        CurF->getName().c_str()));
      break;
    }
    // Run straight-line code without refetching the block per
    // instruction; execute() bumps CurIndex for fall-through ops and
    // rewrites CurF/CurBlock/CurIndex on control transfers, which drops
    // us back to the outer loop. The instruction budget stays checked
    // per instruction — the trap point is program-visible.
    const MBlock &B = CurF->block(CurBlock);
    const MInstr *Code = B.Instrs.data();
    const size_t N = B.Instrs.size();
    const MFunction *F0 = CurF;
    const unsigned B0 = CurBlock;
    while (CurIndex < N && !Finished && !Trapped) {
      if (Counters.Instructions >= MaxInstrs) {
        trap("instruction budget exhausted");
        break;
      }
      execute(Code[CurIndex]);
      if (CurF != F0 || CurBlock != B0)
        break;
    }
  }

  Result.Output = std::move(Output);
  if (Trapped) {
    Result.Error = TrapMessage;
    return Result;
  }
  Result.Ok = true;
  Result.ExitValue = static_cast<int64_t>(Regs[RegRetInt]);
  Counters.Cycles = Cycle;
  Counters.L1Hits = Mem.l1Hits();
  Counters.L1Misses = Mem.l1Misses();
  Counters.L2Hits = Mem.l2Hits();
  Counters.L2Misses = Mem.l2Misses();
  Result.Counters = Counters;
  Result.Alat = Table.stats();
  return Result;
}

} // namespace

SimResult srp::arch::simulateLegacy(const codegen::MModule &M,
                                    const SimConfig &Config) {
  Machine Mach(M, Config);
  return Mach.run();
}
