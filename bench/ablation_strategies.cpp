//===- ablation_strategies.cpp - Strategy comparison ---------------------------===//
//
// Ablation: the full strategy ladder per workload — no promotion beyond
// safe PRE (conservative), the software run-time disambiguation baseline
// [30], ALAT speculation (the paper), and the paper's §2.5 st.a
// extension on top. Also ALAT without the alias profile, which must
// degenerate to the baseline (no χ can be marked speculative).
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"

using namespace srp;
using namespace srp::bench;
using namespace srp::core;

int main(int argc, char **argv) {
  BenchOptions Opts = parseBenchOptions(argc, argv);
  printHeader("Ablation: promotion strategies",
              "cycles per workload across the strategy ladder");

  pre::PromotionConfig StACfg = pre::PromotionConfig::alat();
  StACfg.UseStA = true;
  PipelineConfig NoProf = configFor(pre::PromotionConfig::alat());
  NoProf.UseAliasProfile = false;
  ExperimentGrid G = runGridOrDie(
      workloads::standardWorkloads(),
      {configFor(pre::PromotionConfig::conservative()),
       configFor(pre::PromotionConfig::baselineO3()),
       configFor(pre::PromotionConfig::alat()), configFor(StACfg), NoProf},
      Opts);

  outs() << formatString("%-8s %12s %12s %12s %12s %14s\n", "bench",
                         "conserv", "baseline", "alat", "alat+st.a",
                         "alat(no prof)");
  for (size_t WI = 0; WI < G.Workloads.size(); ++WI) {
    const Workload &W = G.Workloads[WI];
    outs() << formatString(
        "%-8s %12llu %12llu %12llu %12llu %14llu\n", W.Name.c_str(),
        (unsigned long long)G.at(WI, 0).Sim.Counters.Cycles,
        (unsigned long long)G.at(WI, 1).Sim.Counters.Cycles,
        (unsigned long long)G.at(WI, 2).Sim.Counters.Cycles,
        (unsigned long long)G.at(WI, 3).Sim.Counters.Cycles,
        (unsigned long long)G.at(WI, 4).Sim.Counters.Cycles);
  }
  outs() << "\nexpected order: conserv >= baseline >= alat >= alat+st.a; "
            "alat without a profile ~= baseline\n";
  finishBench(Opts);
  return 0;
}
