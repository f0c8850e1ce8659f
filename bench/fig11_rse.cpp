//===- fig11_rse.cpp - Figure 11 reproduction ---------------------------------===//
//
// Figure 11 of the paper: register-stack-engine memory cycles before and
// after speculative promotion. Promotion keeps more values live in
// registers, growing procedure register frames; the paper's point is
// that the resulting RSE traffic stays in the noise (for ammp and gzip
// the relative increase is large, but the absolute RSE cycles are about
// 0.001% of execution).
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"

using namespace srp;
using namespace srp::bench;
using namespace srp::core;

int main(int argc, char **argv) {
  BenchOptions Opts = parseBenchOptions(argc, argv);
  printHeader("Figure 11: RSE memory cycle increase",
              "paper: increases are relatively visible but absolutely "
              "negligible");

  ExperimentGrid G = runGridOrDie(
      workloads::standardWorkloads(),
      {configFor(pre::PromotionConfig::baselineO3()),
       configFor(pre::PromotionConfig::alat())},
      Opts);

  outs() << formatString("%-8s %12s %12s %12s %14s %12s\n", "bench",
                         "rse(base)", "rse(spec)", "increase(%)",
                         "rse/cycles(%)", "frame regs");
  for (size_t WI = 0; WI < G.Workloads.size(); ++WI) {
    const Workload &W = G.Workloads[WI];
    const PipelineResult &Base = G.at(WI, 0);
    const PipelineResult &Spec = G.at(WI, 1);
    uint64_t RseB = Base.Sim.Counters.RseCycles;
    uint64_t RseS = Spec.Sim.Counters.RseCycles;
    double Inc = RseB ? 100.0 * (double(RseS) - double(RseB)) /
                            double(RseB)
                      : (RseS ? 100.0 : 0.0);
    double Frac = 100.0 * double(RseS) /
                  double(Spec.Sim.Counters.Cycles);
    outs() << formatString(
        "%-8s %12llu %12llu %11.1f%% %13.5f%% %6u->%u\n",
        W.Name.c_str(), (unsigned long long)RseB,
        (unsigned long long)RseS, Inc, Frac, Base.MaxStackedRegs,
        Spec.MaxStackedRegs);
  }
  outs() << "\n(workloads are shallow call trees, so most rows are 0 — "
            "the deep-call RSE path is exercised by CodegenTest)\n";
  finishBench(Opts);
  return 0;
}
