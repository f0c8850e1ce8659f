//===- ablation_alat_size.cpp - ALAT geometry sensitivity ---------------------===//
//
// Ablation (motivated by §2.1 and §5): sensitivity of speculative
// promotion to the ALAT's geometry — total entries, associativity, and
// the partial address-tag bits stores compare against.
//
// The standard workloads track only a couple of registers, so they never
// stress the table; this bench builds a dedicated kernel that promotes K
// expressions simultaneously (K live ALAT entries) while a hot loop
// streams stores across a large array (plenty of distinct store
// addresses for partial tags to falsely match). Fewer entries cause
// capacity evictions; fewer tag bits cause false invalidations; both
// degrade into extra reloads, never into wrong answers (asserted against
// the oracle).
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"

#include "workloads/LoopHelper.h"

using namespace srp;
using namespace srp::bench;
using namespace srp::core;
using namespace srp::ir;

namespace {

/// K promoted scalars, each read twice per iteration around an ambiguous
/// store, plus a streaming array store (addresses cover 16KB).
Workload stressWorkload(unsigned K) {
  Workload W;
  W.Name = "stress" + std::to_string(K);
  W.TrainScale = 1;
  W.RefScale = 2;
  W.Build = [K](Module &M, uint64_t Scale) {
    const int64_t N = static_cast<int64_t>(1500 * Scale);
    Symbol *Stream = M.createGlobal("stream", TypeKind::Int, 2048);
    Symbol *Sink = M.createGlobal("sink", TypeKind::Int, 2);
    Symbol *SinkPtr = M.createGlobal("sink_ptr", TypeKind::Int);
    Symbol *Zero = M.createGlobal("always_zero", TypeKind::Int);
    Symbol *I = M.createGlobal("i", TypeKind::Int);
    Symbol *Acc = M.createGlobal("acc", TypeKind::Int);
    std::vector<Symbol *> Cells;
    for (unsigned C = 0; C < K; ++C)
      Cells.push_back(
          M.createGlobal("cell" + std::to_string(C), TypeKind::Int));

    workloads::LoopCtx L;
    IRBuilder B(M);
    B.startFunction("main");
    // sink_ptr may point at any cell (decoy chain) but targets sink.
    {
      BasicBlock *Decoy = B.createBlock("decoy");
      BasicBlock *Join = B.createBlock("seeded");
      unsigned TZ = B.emitLoad(directRef(Zero));
      B.setCondBr(Operand::temp(TZ), Decoy, Join);
      B.setBlock(Decoy);
      for (Symbol *C : Cells) {
        unsigned T = B.emitAddrOf(C);
        B.emitStore(directRef(SinkPtr), Operand::temp(T));
      }
      B.setBr(Join);
      B.setBlock(Join);
      unsigned TS = B.emitAddrOf(Sink);
      B.emitStore(directRef(SinkPtr), Operand::temp(TS));
    }
    for (unsigned C = 0; C < K; ++C)
      B.emitStore(directRef(Cells[C]),
                  Operand::constInt(static_cast<int64_t>(C) * 3 + 1));

    L = workloads::beginLoop(B, I, Operand::constInt(N));
    {
      unsigned TI = L.IdxTemp;
      // Streaming store: 2048 distinct addresses (16KB window).
      unsigned TIdx = B.emitAssign(Opcode::And, Operand::temp(TI),
                                   Operand::constInt(2047));
      B.emitStore(arrayRef(Stream, Operand::temp(TIdx)),
                  Operand::temp(TI));
      // K promoted reads around two ambiguous stores.
      std::vector<unsigned> Vals;
      for (unsigned C = 0; C < K; ++C)
        Vals.push_back(B.emitLoad(directRef(Cells[C])));
      B.emitStore(indirectRef(SinkPtr, TypeKind::Int),
                  Operand::temp(TI));
      B.emitStore(indirectRef(SinkPtr, TypeKind::Int, 8),
                  Operand::temp(TIdx));
      unsigned Sum = Vals[0];
      for (unsigned C = 0; C < K; ++C) {
        unsigned Again = B.emitLoad(directRef(Cells[C]));
        Sum = B.emitAssign(Opcode::Add, Operand::temp(Sum),
                           Operand::temp(Again));
      }
      unsigned TAcc = B.emitLoad(directRef(Acc));
      unsigned TNew = B.emitAssign(Opcode::Add, Operand::temp(TAcc),
                                   Operand::temp(Sum));
      B.emitStore(directRef(Acc), Operand::temp(TNew));
    }
    workloads::endLoop(B, L);
    unsigned TOut = B.emitLoad(directRef(Acc));
    B.emitPrint(Operand::temp(TOut));
    B.setRet(Operand::temp(TOut));
  };
  return W;
}

struct Geometry {
  unsigned Entries, Ways, TagBits;
  const char *Note;
};

const Geometry Geoms[] = {
    {32, 2, 20, "Itanium-like"}, {16, 2, 20, "half size"},
    {8, 2, 20, "quarter size"},  {4, 2, 20, "tiny"},
    {32, 1, 20, "direct-mapped"}, {64, 4, 20, "oversized"},
    {32, 2, 14, "14-bit tags"},  {32, 2, 11, "11-bit tags"},
    {32, 2, 8, "8-bit tags"},    {32, 2, 48, "full tags"},
};

} // namespace

int main(int argc, char **argv) {
  BenchOptions Opts = parseBenchOptions(argc, argv);
  printHeader("Ablation: ALAT geometry",
              "stress kernels with K concurrently tracked registers over "
              "a streaming store window; failures degrade performance, "
              "never correctness");

  std::vector<Workload> Ws;
  for (unsigned K : {4, 12, 24, 40})
    Ws.push_back(stressWorkload(K));
  std::vector<PipelineConfig> Configs;
  for (const Geometry &G : Geoms) {
    PipelineConfig C = configFor(pre::PromotionConfig::alat());
    C.Sim.Alat.Entries = G.Entries;
    C.Sim.Alat.Ways = G.Ways;
    C.Sim.Alat.PartialTagBits = G.TagBits;
    Configs.push_back(C);
  }
  ExperimentGrid Grid = runGridOrDie(std::move(Ws), Configs, Opts);

  for (size_t WI = 0; WI < Grid.Workloads.size(); ++WI) {
    outs() << formatString("%-10s %8s %6s %9s %10s %11s %11s %12s\n",
                           Grid.Workloads[WI].Name.c_str(), "entries",
                           "ways", "tag-bits", "failed(%)", "false-inv",
                           "evictions", "cycles");
    for (size_t GI = 0; GI < std::size(Geoms); ++GI) {
      const Geometry &G = Geoms[GI];
      const PipelineResult &R = Grid.at(WI, GI);
      const auto &Ctr = R.Sim.Counters;
      double FailPct = Ctr.AlatChecks
                           ? 100.0 * double(Ctr.AlatCheckFailures) /
                                 double(Ctr.AlatChecks)
                           : 0.0;
      outs() << formatString(
          "%-10s %8u %6u %9u %9.2f%% %11llu %11llu %12llu  %s\n", "",
          G.Entries, G.Ways, G.TagBits, FailPct,
          (unsigned long long)R.Sim.Alat.FalseInvalidations,
          (unsigned long long)R.Sim.Alat.CapacityEvictions,
          (unsigned long long)Ctr.Cycles, G.Note);
    }
    outs() << '\n';
  }
  finishBench(Opts);
  return 0;
}
