//===- Decoded.h - Decode-once micro-op stream for the simulator -*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decoded micro-op trace cache (DESIGN.md §9). `arch::DecodedModule`
/// flattens a lowered, register-allocated `codegen::MModule` into one
/// arena-resident micro-op stream that the simulator dispatches over
/// directly, so every piece of per-instruction work that only depends on
/// the *program* — operand source shapes, immediate-form selection,
/// branch targets, the NoReg/virtual-register operand filter, the save
/// window bounds of call sites — is paid once per module instead of once
/// per simulated instruction. The stream is immutable after construction
/// and carries no pointers back into the MModule, so one DecodedModule is
/// shared read-only across repeat simulations of the same binary, such
/// as `valid::DiffOracle`'s fault-plan re-runs.
///
/// Layout (module-level struct-of-arrays):
///  * one flat `DecodedOp[]` covering every function — branch/call/resume
///    targets are *indices into this stream*, never block ids;
///  * a `DecodedFunction[]` side table (entry index, RSE frame size, save
///    window bounds, name for trap messages).
///
/// Decode-time invariants the executor relies on:
///  * Every basic block is followed by a `FellOff` sentinel micro-op, and
///    every branch to an out-of-range block id resolves to a sentinel
///    carrying that id — the executor has no bounds checks, falling off
///    or jumping wild lands on a sentinel that raises the "fell off block"
///    trap.
///  * `S0..S2` hold the issue-scan source list with `MInstr::sources()`'s
///    shape and the `>= FirstVirtualReg` filter already applied, padded
///    with `DummyReg`; the register file allocates one extra always-zero,
///    never-written slot at `DummyReg` so padded slots and NoReg operands
///    need no branches. NoReg and virtual-register operands both map to
///    `DummyReg` (register allocation leaves no virtual register behind,
///    and decoding asserts that every defining op has a physical Rd).
///  * Immediate forms are distinct micro-op kinds (`AddI` vs `Add`), so
///    the executor never tests `HasImm`; `ld.sa` decodes to the `LdA`
///    micro-op (identical simulator semantics).
///  * Hot adjacent pairs are fused at decode time (`Fuse*` kinds): the
///    *first* op of a matched pair is rewritten to the fused kind, whose
///    handler retires both ops on a single dispatch, reading the second
///    op's operands from `Ops[PC + 1]`. The second op keeps its original
///    kind and fields, so a branch into the middle of a pair executes it
///    standalone, and overlapping chains (`St Mov AddI` fusing both
///    `St→Mov` and `Mov→AddI`) stay consistent — whichever op control
///    enters at retires the same instruction sequence as unfused ops.
///
/// The decode/simulate contract: fusion and pointer-PC dispatch are pure
/// performance transformations, so a run's counters, output, exit value
/// and trap message are those of executing the MModule one instruction
/// at a time. `DecodedModuleTest` pins every simulated number of a golden
/// corpus (tests/golden/sim.golden: workloads, fuzz repros, random
/// programs, the grid, ALAT geometries, fault plans and instruction
/// budgets); the bench-regress CI lane pins the full-grid counter
/// fingerprint.
///
/// Invalidation: there is none — a DecodedModule is built from a final
/// MModule and never updated. Any mutation of the MIR (there is none
/// after regalloc today) requires decoding a fresh DecodedModule; holders
/// (PipelineState::Decoded) simply drop and rebuild.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_ARCH_DECODED_H
#define SRP_ARCH_DECODED_H

#include "arch/Simulator.h"
#include "codegen/MIR.h"
#include "support/Arena.h"

#include <cstdint>
#include <type_traits>
#include <vector>

namespace srp::arch {

/// Padded / filtered-out operand slot: one past the physical register
/// file. The executor's file has an always-zero slot here, so reading or
/// dependence-scanning a padded operand is a no-op without a branch.
inline constexpr uint16_t DummyReg =
    static_cast<uint16_t>(codegen::FirstVirtualReg);

/// Micro-op kinds. X-macro so the executor's jump table and the enum can
/// never drift out of sync. Order is the dispatch-table order; `FellOff`
/// must stay last (the budget check exempts it, see the executor).
#define SRP_DECODED_OP_KINDS(X)                                                \
  X(MovI) X(Mov)                                                               \
  X(Add) X(AddI) X(Sub) X(SubI) X(Mul) X(MulI) X(Div) X(DivI)                  \
  X(Rem) X(RemI) X(And) X(AndI) X(Or) X(OrI) X(Xor) X(XorI)                    \
  X(Shl) X(ShlI) X(Shr) X(ShrI) X(ShlAdd) X(ShlAddI)                           \
  X(CmpEq) X(CmpEqI) X(CmpNe) X(CmpNeI) X(CmpLt) X(CmpLtI)                     \
  X(CmpLe) X(CmpLeI)                                                           \
  X(FAdd) X(FAddI) X(FSub) X(FSubI) X(FMul) X(FMulI) X(FDiv) X(FDivI)          \
  X(FCmpLt) X(FCmpLtI) X(ICvtF) X(FCvtI) X(Sel)                                \
  X(Ld) X(LdA) X(LdCClr) X(LdCNc) X(St) X(StA) X(InvalaE)                      \
  X(AllocHeap) X(AllocHeapI) X(Print)                                          \
  X(Br) X(BrCond) X(ChkA) X(Call) X(Ret) X(Nop)                                \
  X(FuseLdLd) X(FuseLdSt) X(FuseStLd) X(FuseStMov)                             \
  X(FuseAddISt) X(FuseAddSt) X(FuseShlAddLd) X(FuseMovAddI)                    \
  X(FuseAndIShlAdd) X(FuseCmpLtIBrCond)                                        \
  X(FellOff)

enum class DOpKind : uint8_t {
#define SRP_DECODED_KIND_ENUM(K) K,
  SRP_DECODED_OP_KINDS(SRP_DECODED_KIND_ENUM)
#undef SRP_DECODED_KIND_ENUM
};

inline constexpr unsigned NumDOpKinds =
    static_cast<unsigned>(DOpKind::FellOff) + 1;

/// One decoded micro-op: 32 bytes, no padding holes (byte-stable decode
/// output is memcmp-testable), trivially copyable for arena residence.
struct DecodedOp {
  uint8_t Kind = 0;  ///< DOpKind.
  uint8_t Fp = 0;    ///< MInstr::FpVal (load latency class / print format).
  uint16_t Rd = 0;   ///< Destination register (DummyReg when unused).
  uint16_t Rs1 = DummyReg; ///< Exec operands; NoReg/virtual map to DummyReg.
  uint16_t Rs2 = DummyReg;
  uint16_t Rs3 = DummyReg;
  uint16_t S0 = DummyReg; ///< Issue-scan sources, sources() order,
  uint16_t S1 = DummyReg; ///< pre-filtered, DummyReg-padded.
  uint16_t S2 = DummyReg;
  int64_t Imm = 0;    ///< Immediate / load-store offset.
  uint32_t Target = 0; ///< Stream index: Br / BrCond-true / ChkA-ok /
                       ///< Call resume point.
  uint32_t Aux = 0;    ///< BrCond false target / ChkA recovery / Call
                       ///< callee function index / FellOff block id.
};
static_assert(sizeof(DecodedOp) == 32, "micro-op record grew");
static_assert(std::is_trivially_copyable_v<DecodedOp>);

/// Per-function metadata riding next to the stream.
struct DecodedFunction {
  const char *Name = nullptr; ///< Null-terminated, arena-backed.
  uint32_t EntryPC = 0;       ///< Stream index of block 0 (or sentinel).
  uint32_t StackedRegsUsed = 0; ///< RSE frame size (rseCall/rseReturn).
  uint32_t IntHigh = 0; ///< Save windows around calls *into* this
  uint32_t FpHigh = 0;  ///< function: [FirstStackedReg, IntHigh) etc.
};

/// The decode-once, simulate-many form of a lowered module. Immutable
/// and self-contained after construction (safe to keep after the source
/// MModule dies; safe to share read-only across threads).
class DecodedModule {
public:
  explicit DecodedModule(const codegen::MModule &M);
  DecodedModule(const DecodedModule &) = delete;
  DecodedModule &operator=(const DecodedModule &) = delete;

  static constexpr uint32_t NoFunction = ~0u;

  const DecodedOp *ops() const { return Ops; }
  uint32_t numOps() const { return NumOps; }
  const std::vector<DecodedFunction> &functions() const { return Funcs; }
  /// Index of "main", or NoFunction.
  uint32_t mainIndex() const { return MainIdx; }

private:
  Arena A; ///< Owns the stream and the name strings.
  const DecodedOp *Ops = nullptr;
  uint32_t NumOps = 0;
  std::vector<DecodedFunction> Funcs;
  uint32_t MainIdx = NoFunction;
};

/// Runs the decoded stream on the timing model (Simulator.h): the
/// counters, output, exit value and trap message of the module the
/// stream was decoded from.
SimResult simulate(const DecodedModule &M, const SimConfig &Config);

} // namespace srp::arch

#endif // SRP_ARCH_DECODED_H
