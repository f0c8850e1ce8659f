//===- DecodedSim.cpp - threaded decoded-stream executor ----------------------===//
//
// Simulate half of the decode/simulate contract (Decoded.h): a single
// dispatch function over the pre-decoded micro-op stream. Everything the
// legacy Machine kept in member variables — the clock, the issue slots,
// the PendingUntil watermark, the stream cursor — lives in locals here so
// the compiler can keep the hot state in registers across the whole run,
// and dispatch is a computed goto per micro-op (a GNU extension, which
// every compiler the tree builds with provides) instead of a block
// refetch + bounds checks + opcode switch per instruction.
//
// Timing-model arithmetic executes in exactly the legacy order: issue()
// fast path on the watermark, srcDep scan in shape order, the lazy
// whole-file Ready overwrite on Ret (RetSeq / LastRetCycle / WriteSeq),
// and the DataAccessCycles attribution. The counter fingerprint of any
// run is byte-identical to simulateLegacy() by construction, and
// DecodedModuleTest + the bench-regress CI fingerprint gate keep it so.
//
//===----------------------------------------------------------------------===//

#include "arch/Decoded.h"

#include "interp/Interpreter.h" // layout constants
#include "support/PagedMemory.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

using namespace srp;
using namespace srp::arch;
using namespace srp::codegen;

#define SRP_LIKELY(X) __builtin_expect(!!(X), 1)
#define SRP_UNLIKELY(X) __builtin_expect(!!(X), 0)
// Forces the hot helper lambdas into their call sites. gprof on -O2
// showed the issue scan outlined (one call per simulated instruction,
// ~14% of simulate time); inlining it also lets the captured hot state
// (Cycle, SlotsUsed, PendingUntil, InstrCount) live in registers across
// handlers instead of round-tripping through the capture frame.
#define SRP_AI __attribute__((always_inline))

namespace {

struct DReturnPoint {
  uint32_t FuncIdx;
  uint32_t ResumePC;
  uint32_t StackedRegs; ///< callee's frame for the RSE pop.
  uint32_t IntHigh;     ///< save-window bounds, see Simulator.cpp.
  uint32_t FpHigh;
  size_t SavedBase;
};

int64_t asI(uint64_t V) { return static_cast<int64_t>(V); }
double asD(uint64_t V) { return std::bit_cast<double>(V); }
uint64_t fromI(int64_t V) { return static_cast<uint64_t>(V); }
uint64_t fromD(double V) { return std::bit_cast<uint64_t>(V); }

} // namespace

SimResult srp::arch::simulate(const DecodedModule &DM,
                              const SimConfig &Config) {
  SimResult Result;
  if (DM.mainIndex() == DecodedModule::NoFunction) {
    Result.Error = "module has no main function";
    return Result;
  }

  const DecodedOp *const Ops = DM.ops();
  const DecodedFunction *const Funcs = DM.functions().data();

  // Config knobs latched once.
  const unsigned IssueW = Config.IssueWidth;
  const uint64_t MaxInstrs = Config.MaxInstructions;
  const unsigned TakenPen = Config.TakenBranchPenalty;
  const unsigned CallPen = Config.CallPenalty;
  const unsigned ChkPen = Config.ChkMissPenalty;
  const unsigned MulLat = Config.MulLatency;
  const unsigned DivLat = Config.DivLatency;
  const unsigned FpLat = Config.FpLatency;
  const unsigned FpDivLat = Config.FpDivLatency;
  const bool UseStA = Config.UseStA;

  Alat Table(Config.Alat, Config.Faults);
  MemoryHierarchy Mem(Config.Memory);
  PagedMemory Memory;

  // Register file plus the always-zero DummyReg slot (Decoded.h). The
  // decoder never emits a defining micro-op with Rd outside the physical
  // file, so the dummy slot stays zero and padded scan slots are timing
  // no-ops. RL packs each register's readiness as Ready*2 | LoadProduced
  // so the issue scan reads one word per source, and the lexicographic
  // max over packed values reproduces the legacy (max Ready, OR of
  // producer kinds at the max) pair exactly: on equal Ready the
  // load-produced bit wins, which is the legacy tie rule.
  std::vector<uint64_t> RegsV(FirstVirtualReg + 1, 0);
  std::vector<uint64_t> RLV(FirstVirtualReg + 1, 0);
  uint64_t *const Regs = RegsV.data();
  uint64_t *const RL = RLV.data();

  // Hot machine state, all locals (the point of this executor).
  uint64_t Cycle = 0;
  unsigned SlotsUsed = 0;
  uint64_t PendingUntil = 0;
  uint64_t HeapTop = interp::layout::HeapBase;
  unsigned LastLoadLatency = 0;
  uint64_t RseTotal = 0;
  uint64_t RseSpilled = 0;

  // Counters, locals until the final copy-out.
  uint64_t InstrCount = 0;
  uint64_t NDataAccessCycles = 0;
  uint64_t NTakenBranches = 0;
  uint64_t NRetiredLoads = 0;
  uint64_t NRetiredStores = 0;
  uint64_t NAlatChecks = 0;
  uint64_t NAlatCheckFailures = 0;
  uint64_t NChkARecoveries = 0;
  uint64_t NRseCycles = 0;
  uint64_t NRseSpills = 0;
  uint64_t NRseFills = 0;

  std::vector<DReturnPoint> CallStack;
  CallStack.reserve(512);
  std::vector<uint64_t> SaveArea;
  SaveArea.reserve(512 * 2 * NumStackedRegs / 8);
  std::vector<std::string> Output;

  bool Trapped = false;
  std::string TrapMessage;
  auto trap = [&](std::string Message) {
    if (!Trapped) {
      Trapped = true;
      TrapMessage = std::move(Message);
    }
  };

  auto read64 = [&](uint64_t Addr) SRP_AI -> uint64_t {
    if (SRP_UNLIKELY(Addr % 8 != 0)) {
      trap(formatString("unaligned read at 0x%llx",
                        static_cast<unsigned long long>(Addr)));
      return 0;
    }
    return Memory.load(Addr >> 3);
  };
  auto write64 = [&](uint64_t Addr, uint64_t Bits) SRP_AI {
    if (SRP_UNLIKELY(Addr % 8 != 0)) {
      trap(formatString("unaligned write at 0x%llx",
                        static_cast<unsigned long long>(Addr)));
      return;
    }
    Memory.store(Addr >> 3, Bits);
  };

  auto setRegL = [&](uint32_t R, uint64_t V, uint64_t ReadyAt,
                     bool FromLoad) SRP_AI {
    if (R == RegZero)
      return;
    Regs[R] = V;
    RL[R] = ReadyAt * 2 + FromLoad;
    if (ReadyAt > PendingUntil)
      PendingUntil = ReadyAt;
  };

  // The legacy stale-stacked rule — a stacked register not rewritten
  // since the last return reads ready at that return's cycle — is
  // applied eagerly by the Ret handler (bulk overwrite of the Ready
  // halves of both stacked windows), so a source's readiness is just
  // RL[R]. The DummyReg padding slot reads packed 0 and is a timing
  // no-op, so padded slots scan unconditionally.
  auto srcDep = [&](uint32_t R, uint64_t &AvailP) SRP_AI {
    uint64_t V = RL[R];
    if (V > AvailP)
      AvailP = V;
  };

  auto issueTail = [&]() SRP_AI {
    if (++SlotsUsed >= IssueW) {
      ++Cycle;
      SlotsUsed = 0;
    }
    ++InstrCount;
  };
  // Shape-0 ops (MovI/Br/Ret/Nop/Call): the slow path has no sources to
  // scan, so fast and slow paths coincide. The packed scans seed the
  // running max at Cycle*2+1: a packed value exceeds that iff its Ready
  // half exceeds Cycle, so `AvailP > Init` is exactly the legacy
  // stall test and the low bit of the max is the legacy LoadLimited.
  auto issue0 = [&]() SRP_AI { issueTail(); };
  auto issue2 = [&](const DecodedOp &I) SRP_AI {
    if (SRP_LIKELY(Cycle >= PendingUntil)) {
      issueTail();
      return;
    }
    const uint64_t Init = Cycle * 2 + 1;
    uint64_t AvailP = Init;
    srcDep(I.S0, AvailP);
    srcDep(I.S1, AvailP);
    if (AvailP > Init) {
      if (AvailP & 1)
        NDataAccessCycles += (AvailP >> 1) - Cycle;
      Cycle = AvailP >> 1;
      SlotsUsed = 0;
    }
    issueTail();
  };
  auto issue3 = [&](const DecodedOp &I) SRP_AI {
    if (SRP_LIKELY(Cycle >= PendingUntil)) {
      issueTail();
      return;
    }
    const uint64_t Init = Cycle * 2 + 1;
    uint64_t AvailP = Init;
    srcDep(I.S0, AvailP);
    srcDep(I.S1, AvailP);
    srcDep(I.S2, AvailP);
    if (AvailP > Init) {
      if (AvailP & 1)
        NDataAccessCycles += (AvailP >> 1) - Cycle;
      Cycle = AvailP >> 1;
      SlotsUsed = 0;
    }
    issueTail();
  };

  auto takenBranch = [&](unsigned Penalty) SRP_AI {
    Cycle += Penalty;
    SlotsUsed = 0;
    ++NTakenBranches;
  };
  auto rseCall = [&](uint32_t N) {
    RseTotal += N;
    if (RseTotal > RseSpilled + NumStackedRegs) {
      uint64_t D = RseTotal - RseSpilled - NumStackedRegs;
      RseSpilled += D;
      NRseSpills += D;
      NRseCycles += D * Config.RsePerRegCycles;
    }
  };
  auto rseReturn = [&](uint32_t N) {
    RseTotal -= N;
    if (RseSpilled > RseTotal) {
      uint64_t D = RseSpilled - RseTotal;
      RseSpilled -= D;
      NRseFills += D;
      NRseCycles += D * Config.RsePerRegCycles;
    }
  };
  auto performLoad = [&](uint64_t Addr, bool Fp) SRP_AI -> uint64_t {
    ++NRetiredLoads;
    LastLoadLatency = Mem.loadLatency(Addr, Fp);
    return read64(Addr);
  };

  uint32_t CurFunc = DM.mainIndex();
  const DecodedOp *PC = Ops + Funcs[CurFunc].EntryPC;
  Regs[RegSP] = interp::layout::StackBase;
  Regs[RegFP] = interp::layout::StackBase;
  rseCall(Funcs[CurFunc].StackedRegsUsed);

// The dispatch skeleton: SRP_HANDLER labels a handler and SRP_NEXT
// jumps to the handler of the micro-op at PC through the jump table.
#define SRP_HANDLER(K) H_##K:
#define SRP_NEXT()                                                             \
  do {                                                                         \
    if (SRP_UNLIKELY(InstrCount >= MaxInstrs) &&                               \
        PC->Kind != static_cast<uint8_t>(DOpKind::FellOff)) {              \
      trap("instruction budget exhausted");                                    \
      goto Done;                                                               \
    }                                                                          \
    goto *JumpTable[PC->Kind];                                             \
  } while (0)
  static const void *const JumpTable[] = {
#define SRP_DECODED_KIND_LABEL(K) &&H_##K,
      SRP_DECODED_OP_KINDS(SRP_DECODED_KIND_LABEL)
#undef SRP_DECODED_KIND_LABEL
  };
  SRP_NEXT();

// Default-shape ALU family. A_ = Rs1, B_ = Rs2 or the immediate; EXPR
// computes the value written back at 1 + (LAT-1) cycles of latency,
// exactly like the legacy SetAlu. The *_CORE macros are the handler
// bodies minus the PC advance and redispatch, so the fused-pair handlers
// below can chain two of them on one dispatch.
#define SRP_ALU_CORE(I, BINIT, LAT, EXPR)                                      \
  {                                                                            \
    issue2(I);                                                                 \
    const uint64_t A_ = Regs[I.Rs1];                                           \
    const uint64_t B_ = (BINIT);                                               \
    (void)A_;                                                                  \
    (void)B_;                                                                  \
    setRegL(I.Rd, (EXPR), Cycle + (LAT) - 1, false);                           \
  }
#define SRP_ALU_BODY(BINIT, LAT, EXPR)                                         \
  {                                                                            \
    const DecodedOp &I = *PC;                                              \
    SRP_ALU_CORE(I, BINIT, LAT, EXPR)                                          \
    ++PC;                                                                      \
    SRP_NEXT();                                                                \
  }
#define SRP_ALU(K, LAT, EXPR)                                                  \
  SRP_HANDLER(K) SRP_ALU_BODY(Regs[I.Rs2], LAT, EXPR)
#define SRP_ALUI(K, LAT, EXPR)                                                 \
  SRP_HANDLER(K##I) SRP_ALU_BODY(static_cast<uint64_t>(I.Imm), LAT, EXPR)
#define SRP_ALU_PAIR(K, LAT, EXPR)                                             \
  SRP_ALU(K, LAT, EXPR)                                                        \
  SRP_ALUI(K, LAT, EXPR)
// Plain load / store bodies, shared between the standalone handlers and
// the fused pairs.
#define SRP_LD_CORE(I)                                                         \
  issue2(I);                                                                   \
  {                                                                            \
    const uint64_t Addr = Regs[I.Rs1] + static_cast<uint64_t>(I.Imm);          \
    const uint64_t V = performLoad(Addr, I.Fp != 0);                           \
    setRegL(I.Rd, V, Cycle + LastLoadLatency - 1, true);                       \
  }                                                                            \
  if (SRP_UNLIKELY(Trapped))                                                   \
    goto Done;
#define SRP_ST_CORE(I)                                                         \
  issue2(I);                                                                   \
  {                                                                            \
    const uint64_t Addr = Regs[I.Rs1] + static_cast<uint64_t>(I.Imm);          \
    write64(Addr, Regs[I.Rs3]);                                                \
    Mem.store(Addr);                                                           \
    Table.storeNotify(Addr);                                                   \
  }                                                                            \
  ++NRetiredStores;                                                            \
  if (SRP_UNLIKELY(Trapped))                                                   \
    goto Done;
// The legacy loop checks the instruction budget before *every*
// instruction; a fused handler replays that check between its two ops
// (the second op of a fused pair is never FellOff, so the sentinel
// exemption in SRP_NEXT cannot apply).
#define SRP_MIDFUSE()                                                          \
  if (SRP_UNLIKELY(InstrCount >= MaxInstrs)) {                                 \
    trap("instruction budget exhausted");                                      \
    goto Done;                                                                 \
  }

  SRP_HANDLER(MovI) {
    const DecodedOp &I = *PC;
    issue0();
    setRegL(I.Rd, static_cast<uint64_t>(I.Imm), Cycle, false);
    ++PC;
    SRP_NEXT();
  }
  SRP_ALU(Mov, 1, A_)
  SRP_ALU_PAIR(Add, 1, fromI(asI(A_) + asI(B_)))
  SRP_ALU_PAIR(Sub, 1, fromI(asI(A_) - asI(B_)))
  SRP_ALU_PAIR(Mul, MulLat, fromI(asI(A_) * asI(B_)))
  SRP_ALU_PAIR(Div, DivLat, asI(B_) == 0 ? 0 : fromI(asI(A_) / asI(B_)))
  SRP_ALU_PAIR(Rem, DivLat, asI(B_) == 0 ? 0 : fromI(asI(A_) % asI(B_)))
  SRP_ALU_PAIR(And, 1, A_ & B_)
  SRP_ALU_PAIR(Or, 1, A_ | B_)
  SRP_ALU_PAIR(Xor, 1, A_ ^ B_)
  SRP_ALU_PAIR(Shl, 1, A_ << (B_ & 63))
  SRP_ALU_PAIR(Shr, 1, A_ >> (B_ & 63))
  SRP_ALU_PAIR(ShlAdd, 1, (A_ << 3) + B_)
  SRP_ALU_PAIR(CmpEq, 1, asI(A_) == asI(B_))
  SRP_ALU_PAIR(CmpNe, 1, asI(A_) != asI(B_))
  SRP_ALU_PAIR(CmpLt, 1, asI(A_) < asI(B_))
  SRP_ALU_PAIR(CmpLe, 1, asI(A_) <= asI(B_))
  SRP_ALU_PAIR(FAdd, FpLat, fromD(asD(A_) + asD(B_)))
  SRP_ALU_PAIR(FSub, FpLat, fromD(asD(A_) - asD(B_)))
  SRP_ALU_PAIR(FMul, FpLat, fromD(asD(A_) * asD(B_)))
  SRP_ALU_PAIR(FDiv, FpDivLat,
               fromD(asD(B_) == 0.0 ? 0.0 : asD(A_) / asD(B_)))
  SRP_ALU_PAIR(FCmpLt, FpLat, asD(A_) < asD(B_))
  SRP_ALU(ICvtF, FpLat, fromD(static_cast<double>(asI(A_))))
  SRP_ALU(FCvtI, FpLat, fromI(static_cast<int64_t>(asD(A_))))

  SRP_HANDLER(Sel) {
    const DecodedOp &I = *PC;
    issue3(I);
    setRegL(I.Rd, Regs[I.Rs1] != 0 ? Regs[I.Rs2] : Regs[I.Rs3], Cycle, false);
    ++PC;
    SRP_NEXT();
  }

  SRP_HANDLER(Ld) {
    const DecodedOp &I = *PC;
    SRP_LD_CORE(I);
    ++PC;
    SRP_NEXT();
  }
  SRP_HANDLER(LdA) {
    const DecodedOp &I = *PC;
    issue2(I);
    const uint64_t Addr = Regs[I.Rs1] + static_cast<uint64_t>(I.Imm);
    const uint64_t V = performLoad(Addr, I.Fp != 0);
    Table.allocate(I.Rd, Addr);
    setRegL(I.Rd, V, Cycle + LastLoadLatency - 1, true);
    if (SRP_UNLIKELY(Trapped))
      goto Done;
    ++PC;
    SRP_NEXT();
  }
  SRP_HANDLER(LdCClr) {
    const DecodedOp &I = *PC;
    issue2(I);
    const uint64_t Addr = Regs[I.Rs1] + static_cast<uint64_t>(I.Imm);
    ++NAlatChecks;
    if (Table.check(I.Rd, Addr, /*Clear=*/true)) {
      // Hit: refresh the register raw — no latency, no Ready update.
      // (r0 guarded to keep the zero-slot invariant; the legacy write to
      // Regs[0] was unobservable through its reg() accessor.)
      const uint64_t V = read64(Addr);
      if (I.Rd != RegZero)
        Regs[I.Rd] = V;
    } else {
      ++NAlatCheckFailures;
      const uint64_t V = performLoad(Addr, I.Fp != 0);
      setRegL(I.Rd, V, Cycle + LastLoadLatency - 1, true);
    }
    if (SRP_UNLIKELY(Trapped))
      goto Done;
    ++PC;
    SRP_NEXT();
  }
  SRP_HANDLER(LdCNc) {
    const DecodedOp &I = *PC;
    issue2(I);
    const uint64_t Addr = Regs[I.Rs1] + static_cast<uint64_t>(I.Imm);
    ++NAlatChecks;
    if (Table.check(I.Rd, Addr, /*Clear=*/false)) {
      const uint64_t V = read64(Addr);
      if (I.Rd != RegZero)
        Regs[I.Rd] = V;
    } else {
      ++NAlatCheckFailures;
      const uint64_t V = performLoad(Addr, I.Fp != 0);
      Table.allocate(I.Rd, Addr);
      setRegL(I.Rd, V, Cycle + LastLoadLatency - 1, true);
    }
    if (SRP_UNLIKELY(Trapped))
      goto Done;
    ++PC;
    SRP_NEXT();
  }

  SRP_HANDLER(St) {
    const DecodedOp &I = *PC;
    SRP_ST_CORE(I);
    ++PC;
    SRP_NEXT();
  }
  SRP_HANDLER(StA) {
    const DecodedOp &I = *PC;
    issue2(I);
    const uint64_t Addr = Regs[I.Rs1] + static_cast<uint64_t>(I.Imm);
    write64(Addr, Regs[I.Rs3]);
    Mem.store(Addr);
    Table.storeNotify(Addr);
    ++NRetiredStores;
    if (SRP_UNLIKELY(!UseStA)) {
      trap("st.a executed on a machine without the st.a extension");
      goto Done;
    }
    // The §2.5 extension: the store itself allocates the entry.
    Table.allocate(I.Rs2, Addr);
    if (SRP_UNLIKELY(Trapped))
      goto Done;
    ++PC;
    SRP_NEXT();
  }
  SRP_HANDLER(InvalaE) {
    const DecodedOp &I = *PC;
    issue2(I);
    Table.invalidateRegister(I.Rs1);
    ++PC;
    SRP_NEXT();
  }

  SRP_HANDLER(AllocHeap) {
    const DecodedOp &I = *PC;
    issue2(I);
    int64_t Count = asI(Regs[I.Rs1]);
    if (Count < 1)
      Count = 1;
    const uint64_t Bytes = (static_cast<uint64_t>(Count) * 8 + 63) & ~63ULL;
    setRegL(I.Rd, HeapTop, Cycle, false);
    HeapTop += Bytes;
    ++PC;
    SRP_NEXT();
  }
  SRP_HANDLER(AllocHeapI) {
    const DecodedOp &I = *PC;
    issue2(I);
    int64_t Count = I.Imm;
    if (Count < 1)
      Count = 1;
    const uint64_t Bytes = (static_cast<uint64_t>(Count) * 8 + 63) & ~63ULL;
    setRegL(I.Rd, HeapTop, Cycle, false);
    HeapTop += Bytes;
    ++PC;
    SRP_NEXT();
  }
  SRP_HANDLER(Print) {
    const DecodedOp &I = *PC;
    issue2(I);
    const uint64_t Bits = Regs[I.Rs1];
    if (I.Fp)
      Output.push_back(formatString("%.6g", asD(Bits)));
    else
      Output.push_back(
          formatString("%lld", static_cast<long long>(asI(Bits))));
    ++PC;
    SRP_NEXT();
  }

  SRP_HANDLER(Br) {
    const DecodedOp &I = *PC;
    issue0();
    PC = Ops + I.Target;
    takenBranch(TakenPen);
    SRP_NEXT();
  }
  SRP_HANDLER(BrCond) {
    const DecodedOp &I = *PC;
    issue2(I);
    PC = Ops + (Regs[I.Rs1] != 0 ? I.Target : I.Aux);
    takenBranch(TakenPen);
    SRP_NEXT();
  }
  SRP_HANDLER(ChkA) {
    const DecodedOp &I = *PC;
    issue2(I);
    ++NAlatChecks;
    if (Table.checkRegister(I.Rs1)) {
      PC = Ops + I.Target;
    } else {
      ++NAlatCheckFailures;
      ++NChkARecoveries;
      Cycle += ChkPen;
      SlotsUsed = 0;
      PC = Ops + I.Aux; // recovery block
    }
    SRP_NEXT();
  }
  SRP_HANDLER(Call) {
    const DecodedOp &I = *PC;
    issue0();
    if (SRP_UNLIKELY(CallStack.size() >= 512)) {
      trap("call depth limit exceeded");
      goto Done;
    }
    const DecodedFunction &Callee = Funcs[I.Aux];
    DReturnPoint RP{CurFunc,         I.Target,       Callee.StackedRegsUsed,
                    Callee.IntHigh,  Callee.FpHigh,  SaveArea.size()};
    SaveArea.insert(SaveArea.end(), Regs + FirstStackedReg, Regs + RP.IntHigh);
    SaveArea.insert(SaveArea.end(), Regs + FpRegBase + FirstStackedReg,
                    Regs + RP.FpHigh);
    CallStack.push_back(RP);
    rseCall(Callee.StackedRegsUsed);
    CurFunc = I.Aux;
    PC = Ops + Callee.EntryPC;
    takenBranch(CallPen);
    SRP_NEXT();
  }
  SRP_HANDLER(Ret) {
    issue0();
    if (CallStack.empty())
      goto Done; // program finished
    const DReturnPoint RP = CallStack.back();
    CallStack.pop_back();
    rseReturn(RP.StackedRegs);
    const uint64_t *Src = SaveArea.data() + RP.SavedBase;
    std::copy(Src, Src + (RP.IntHigh - FirstStackedReg),
              Regs + FirstStackedReg);
    Src += RP.IntHigh - FirstStackedReg;
    std::copy(Src, Src + (RP.FpHigh - (FpRegBase + FirstStackedReg)),
              Regs + FpRegBase + FirstStackedReg);
    SaveArea.resize(RP.SavedBase);
    // The return makes every stacked register architecturally current
    // again: Ready := this cycle (before the branch penalty), exactly
    // the value the legacy lazy RetSeq/LastRetCycle scheme would hand
    // any stacked register not rewritten after this point. The packed
    // low (LoadProduced) bit deliberately survives — the legacy rule
    // kept reporting the stale producer kind for such registers.
    const uint64_t C2 = Cycle * 2;
    for (unsigned R = FirstStackedReg; R < FirstStackedReg + NumStackedRegs;
         ++R)
      RL[R] = C2 | (RL[R] & 1);
    for (unsigned R = FpRegBase + FirstStackedReg;
         R < FpRegBase + FirstStackedReg + NumStackedRegs; ++R)
      RL[R] = C2 | (RL[R] & 1);
    CurFunc = RP.FuncIdx;
    PC = Ops + RP.ResumePC;
    takenBranch(CallPen);
    SRP_NEXT();
  }
  SRP_HANDLER(Nop) {
    issue0();
    ++PC;
    SRP_NEXT();
  }

  // Fused pairs (Decoded.h): both ops of the pair retire on this one
  // dispatch, each through the same core body its standalone handler
  // uses, with the legacy per-instruction budget check replayed in the
  // middle. The second op's operands come from Ops[PC + 1].
  SRP_HANDLER(FuseLdLd) {
    {
      const DecodedOp &I = *PC;
      SRP_LD_CORE(I);
    }
    SRP_MIDFUSE();
    {
      const DecodedOp &I = PC[1];
      SRP_LD_CORE(I);
    }
    PC += 2;
    SRP_NEXT();
  }
  SRP_HANDLER(FuseLdSt) {
    {
      const DecodedOp &I = *PC;
      SRP_LD_CORE(I);
    }
    SRP_MIDFUSE();
    {
      const DecodedOp &I = PC[1];
      SRP_ST_CORE(I);
    }
    PC += 2;
    SRP_NEXT();
  }
  SRP_HANDLER(FuseStLd) {
    {
      const DecodedOp &I = *PC;
      SRP_ST_CORE(I);
    }
    SRP_MIDFUSE();
    {
      const DecodedOp &I = PC[1];
      SRP_LD_CORE(I);
    }
    PC += 2;
    SRP_NEXT();
  }
  SRP_HANDLER(FuseStMov) {
    {
      const DecodedOp &I = *PC;
      SRP_ST_CORE(I);
    }
    SRP_MIDFUSE();
    {
      const DecodedOp &I = PC[1];
      SRP_ALU_CORE(I, Regs[I.Rs2], 1, A_);
    }
    PC += 2;
    SRP_NEXT();
  }
  SRP_HANDLER(FuseAddISt) {
    {
      const DecodedOp &I = *PC;
      SRP_ALU_CORE(I, static_cast<uint64_t>(I.Imm), 1, fromI(asI(A_) + asI(B_)));
    }
    SRP_MIDFUSE();
    {
      const DecodedOp &I = PC[1];
      SRP_ST_CORE(I);
    }
    PC += 2;
    SRP_NEXT();
  }
  SRP_HANDLER(FuseAddSt) {
    {
      const DecodedOp &I = *PC;
      SRP_ALU_CORE(I, Regs[I.Rs2], 1, fromI(asI(A_) + asI(B_)));
    }
    SRP_MIDFUSE();
    {
      const DecodedOp &I = PC[1];
      SRP_ST_CORE(I);
    }
    PC += 2;
    SRP_NEXT();
  }
  SRP_HANDLER(FuseShlAddLd) {
    {
      const DecodedOp &I = *PC;
      SRP_ALU_CORE(I, Regs[I.Rs2], 1, (A_ << 3) + B_);
    }
    SRP_MIDFUSE();
    {
      const DecodedOp &I = PC[1];
      SRP_LD_CORE(I);
    }
    PC += 2;
    SRP_NEXT();
  }
  SRP_HANDLER(FuseMovAddI) {
    {
      const DecodedOp &I = *PC;
      SRP_ALU_CORE(I, Regs[I.Rs2], 1, A_);
    }
    SRP_MIDFUSE();
    {
      const DecodedOp &I = PC[1];
      SRP_ALU_CORE(I, static_cast<uint64_t>(I.Imm), 1, fromI(asI(A_) + asI(B_)));
    }
    PC += 2;
    SRP_NEXT();
  }
  SRP_HANDLER(FuseAndIShlAdd) {
    {
      const DecodedOp &I = *PC;
      SRP_ALU_CORE(I, static_cast<uint64_t>(I.Imm), 1, A_ & B_);
    }
    SRP_MIDFUSE();
    {
      const DecodedOp &I = PC[1];
      SRP_ALU_CORE(I, Regs[I.Rs2], 1, (A_ << 3) + B_);
    }
    PC += 2;
    SRP_NEXT();
  }
  SRP_HANDLER(FuseCmpLtIBrCond) {
    {
      const DecodedOp &I = *PC;
      SRP_ALU_CORE(I, static_cast<uint64_t>(I.Imm), 1, asI(A_) < asI(B_));
    }
    SRP_MIDFUSE();
    {
      const DecodedOp &I = PC[1];
      issue2(I);
      PC = Ops + (Regs[I.Rs1] != 0 ? I.Target : I.Aux);
      takenBranch(TakenPen);
    }
    SRP_NEXT();
  }

  SRP_HANDLER(FellOff) {
    trap(formatString("fell off block b%u of %s", PC->Aux,
                      Funcs[CurFunc].Name));
    goto Done;
  }

#undef SRP_MIDFUSE
#undef SRP_ST_CORE
#undef SRP_LD_CORE
#undef SRP_ALU_PAIR
#undef SRP_ALUI
#undef SRP_ALU
#undef SRP_ALU_BODY
#undef SRP_ALU_CORE
#undef SRP_HANDLER
#undef SRP_NEXT

Done:
  Result.Output = std::move(Output);
  if (Trapped) {
    Result.Error = std::move(TrapMessage);
    return Result;
  }
  Result.Ok = true;
  Result.ExitValue = static_cast<int64_t>(Regs[RegRetInt]);
  Result.Counters.Cycles = Cycle;
  Result.Counters.Instructions = InstrCount;
  Result.Counters.RetiredLoads = NRetiredLoads;
  Result.Counters.RetiredStores = NRetiredStores;
  Result.Counters.DataAccessCycles = NDataAccessCycles;
  Result.Counters.AlatChecks = NAlatChecks;
  Result.Counters.AlatCheckFailures = NAlatCheckFailures;
  Result.Counters.ChkARecoveries = NChkARecoveries;
  Result.Counters.RseCycles = NRseCycles;
  Result.Counters.RseSpills = NRseSpills;
  Result.Counters.RseFills = NRseFills;
  Result.Counters.TakenBranches = NTakenBranches;
  Result.Counters.L1Hits = Mem.l1Hits();
  Result.Counters.L1Misses = Mem.l1Misses();
  Result.Counters.L2Hits = Mem.l2Hits();
  Result.Counters.L2Misses = Mem.l2Misses();
  Result.Alat = Table.stats();
  return Result;
}

SimResult srp::arch::simulate(const codegen::MModule &M,
                              const SimConfig &Config) {
  // One-shot convenience: decode then run. Callers that re-simulate the
  // same module (bench repeat loops, fault-plan sweeps, warm serve
  // requests) should build the DecodedModule once and reuse it.
  DecodedModule DM(M);
  return simulate(DM, Config);
}
