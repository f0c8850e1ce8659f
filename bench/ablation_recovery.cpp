//===- ablation_recovery.cpp - Mis-speculation cost sensitivity ---------------===//
//
// Ablation of §2.5's cost discussion: a failed ld.c merely re-exposes the
// load latency, but a failed chk.a pays a trap plus branches. This bench
// sweeps the chk.a recovery penalty on gzip (the only workload with a
// visible mis-speculation rate) and on a cascade-promoted variant of the
// Figure 4 kernel, showing when aggressive speculation stops paying.
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"

#include "workloads/LoopHelper.h"

using namespace srp;
using namespace srp::bench;
using namespace srp::core;
using namespace srp::ir;

namespace {

/// A pointer-chase kernel where p itself is redirected on every Nth
/// iteration: cascade speculation (chk.a) fails at rate 1/N.
Workload cascadeWorkload(int64_t CollidePeriod) {
  Workload W;
  W.Name = "cascade" + std::to_string(CollidePeriod);
  W.TrainScale = 1;
  W.RefScale = 4;
  W.Build = [CollidePeriod](Module &M, uint64_t Scale) {
    const int64_t N = static_cast<int64_t>(1000 * Scale);
    Symbol *A = M.createGlobal("a", TypeKind::Int);
    Symbol *B2 = M.createGlobal("b", TypeKind::Int);
    Symbol *P = M.createGlobal("p", TypeKind::Int);
    Symbol *Q = M.createGlobal("q", TypeKind::Int);
    Symbol *Spare = M.createGlobal("spare", TypeKind::Int);
    Symbol *Zero = M.createGlobal("always_zero", TypeKind::Int);
    Symbol *I = M.createGlobal("i", TypeKind::Int);
    Symbol *Acc = M.createGlobal("acc", TypeKind::Int);

    IRBuilder B(M);
    B.startFunction("main");
    unsigned TA = B.emitAddrOf(A);
    unsigned TB = B.emitAddrOf(B2);
    B.emitStore(directRef(A), Operand::constInt(11));
    B.emitStore(directRef(B2), Operand::constInt(22));
    B.emitStore(directRef(P), Operand::temp(TA));
    // q may point at p itself (a cascade hazard) or at spare.
    {
      BasicBlock *Decoy = B.createBlock("decoy");
      BasicBlock *Join = B.createBlock("seeded");
      unsigned TZ = B.emitLoad(directRef(Zero));
      B.setCondBr(Operand::temp(TZ), Decoy, Join);
      B.setBlock(Decoy);
      unsigned TP = B.emitAddrOf(P);
      B.emitStore(directRef(Q), Operand::temp(TP));
      B.setBr(Join);
      B.setBlock(Join);
      unsigned TS = B.emitAddrOf(Spare);
      B.emitStore(directRef(Q), Operand::temp(TS));
    }

    workloads::LoopCtx L =
        workloads::beginLoop(B, I, Operand::constInt(N));
    {
      unsigned TI = L.IdxTemp;
      unsigned T1 = B.emitLoad(indirectRef(P, TypeKind::Int));
      // Every CollidePeriod-th iteration q really redirects p; the
      // pointer flips between &a and &b, so the cascade check fails.
      BasicBlock *Collide = B.createBlock("collide");
      BasicBlock *Quiet = B.createBlock("quiet");
      BasicBlock *After = B.createBlock("after");
      unsigned TRem = B.emitAssign(Opcode::Rem, Operand::temp(TI),
                                   Operand::constInt(CollidePeriod));
      unsigned TLate = B.emitAssign(
          Opcode::CmpLe, Operand::constInt(1100), Operand::temp(TI));
      unsigned TEq = B.emitAssign(Opcode::CmpEq, Operand::temp(TRem),
                                  Operand::constInt(1));
      unsigned TCol = B.emitAssign(Opcode::And, Operand::temp(TEq),
                                   Operand::temp(TLate));
      B.setCondBr(Operand::temp(TCol), Collide, Quiet);
      B.setBlock(Collide);
      unsigned TPp = B.emitAddrOf(P);
      B.emitStore(directRef(Q), Operand::temp(TPp));
      B.setBr(After);
      B.setBlock(Quiet);
      unsigned TSp = B.emitAddrOf(Spare);
      B.emitStore(directRef(Q), Operand::temp(TSp));
      B.setBr(After);
      B.setBlock(After);
      // *q = &b: when q == &p this really retargets p.
      unsigned TB2 = B.emitAddrOf(B2);
      B.emitStore(indirectRef(Q, TypeKind::Int), Operand::temp(TB2));
      unsigned T2 = B.emitLoad(indirectRef(P, TypeKind::Int));
      unsigned TSum = B.emitAssign(Opcode::Add, Operand::temp(T1),
                                   Operand::temp(T2));
      unsigned TAcc = B.emitLoad(directRef(Acc));
      unsigned TNew = B.emitAssign(Opcode::Add, Operand::temp(TAcc),
                                   Operand::temp(TSum));
      B.emitStore(directRef(Acc), Operand::temp(TNew));
      // Restore p for the next round.
      B.emitStore(directRef(P), Operand::temp(TA));
    }
    workloads::endLoop(B, L);
    unsigned TOut = B.emitLoad(directRef(Acc));
    B.emitPrint(Operand::temp(TOut));
    B.setRet(Operand::temp(TOut));
    (void)TB;
  };
  return W;
}

} // namespace

int main(int argc, char **argv) {
  BenchOptions Opts = parseBenchOptions(argc, argv);
  printHeader("Ablation: recovery penalty",
              "chk.a mis-speculation cost sweep (the paper: 'address "
              "mis-speculation could be expensive')");

  // Config 0 is the baseline; 1..4 sweep the chk.a recovery penalty.
  const unsigned Penalties[] = {5u, 15u, 50u, 150u};
  std::vector<PipelineConfig> Configs = {
      configFor(pre::PromotionConfig::baselineO3())};
  for (unsigned Penalty : Penalties) {
    PipelineConfig C = configFor(pre::PromotionConfig::alat());
    C.Promotion.EnableCascade = true;
    C.Sim.ChkMissPenalty = Penalty;
    Configs.push_back(C);
  }
  ExperimentGrid G = runGridOrDie(
      {cascadeWorkload(64), cascadeWorkload(8)}, Configs, Opts);

  outs() << formatString("%-12s %10s %10s %12s %12s %12s\n", "kernel",
                         "recover", "penalty", "cycles", "vs baseline",
                         "fail(%)");
  for (size_t WI = 0; WI < G.Workloads.size(); ++WI) {
    const Workload &W = G.Workloads[WI];
    const PipelineResult &Base = G.at(WI, 0);
    for (size_t PI = 0; PI < std::size(Penalties); ++PI) {
      const PipelineResult &R = G.at(WI, PI + 1);
      const auto &Ctr = R.Sim.Counters;
      double FailPct = Ctr.AlatChecks
                           ? 100.0 * double(Ctr.AlatCheckFailures) /
                                 double(Ctr.AlatChecks)
                           : 0.0;
      double Delta = 100.0 *
                     (double(Base.Sim.Counters.Cycles) -
                      double(Ctr.Cycles)) /
                     double(Base.Sim.Counters.Cycles);
      outs() << formatString(
          "%-12s %10llu %10u %12llu %+11.1f%% %11.2f%%\n",
          W.Name.c_str(), (unsigned long long)Ctr.ChkARecoveries,
          Penalties[PI], (unsigned long long)Ctr.Cycles, Delta, FailPct);
    }
  }
  outs() << "\nreading: cascade speculation loses even at modest "
            "penalties and collapses as collisions rise — which is "
            "precisely why the paper's implementation is 'limited to "
            "expressions that will not cause cascaded failure' (§4); "
            "EnableCascade stays off by default here too\n";
  finishBench(Opts);
  return 0;
}
