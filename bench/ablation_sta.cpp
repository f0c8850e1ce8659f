//===- ablation_sta.cpp - The §2.5 st.a extension ------------------------------===//
//
// Ablation of the paper's proposed st.a instruction: a store that also
// allocates the ALAT entry, saving the explicit ld.a the read-after-write
// pattern (Figure 1(b)) otherwise needs. Measures retired loads and
// cycles with and without the extension.
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"

using namespace srp;
using namespace srp::bench;
using namespace srp::core;

int main(int argc, char **argv) {
  BenchOptions Opts = parseBenchOptions(argc, argv);
  printHeader("Ablation: st.a extension (§2.5)",
              "the extension removes the ld.a after defining stores");

  pre::PromotionConfig C = pre::PromotionConfig::alat();
  C.UseStA = true;
  ExperimentGrid G = runGridOrDie(
      workloads::standardWorkloads(),
      {configFor(pre::PromotionConfig::alat()), configFor(C)}, Opts);

  outs() << formatString("%-8s %12s %12s %12s %12s %10s\n", "bench",
                         "loads", "loads+st.a", "cycles", "cycles+st.a",
                         "st.a uses");
  for (size_t WI = 0; WI < G.Workloads.size(); ++WI) {
    const Workload &W = G.Workloads[WI];
    const PipelineResult &Plain = G.at(WI, 0);
    const PipelineResult &StA = G.at(WI, 1);
    outs() << formatString("%-8s %12llu %12llu %12llu %12llu %10u\n",
                           W.Name.c_str(),
                           (unsigned long long)Plain.Sim.Counters.RetiredLoads,
                           (unsigned long long)StA.Sim.Counters.RetiredLoads,
                           (unsigned long long)Plain.Sim.Counters.Cycles,
                           (unsigned long long)StA.Sim.Counters.Cycles,
                           StA.Promotion.StAStores);
  }
  finishBench(Opts);
  return 0;
}
