//===- ablation_alias.cpp - Alias-analysis precision vs speculation -----------===//
//
// The question §5 of the paper raises: the alternative to hardware
// speculation is a better static alias analysis. This ablation runs the
// conservative strategy under Steensgaard (ORC's equivalence-class
// baseline) and under the inclusion-based Andersen analysis, against the
// ALAT strategy — showing how much of the win precision alone recovers.
//
// On these workloads the ambiguity is *fundamental* (the decoy
// assignments are statically reachable), so even a precise flow-
// insensitive analysis cannot disprove the aliases; the profile can.
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"

using namespace srp;
using namespace srp::bench;
using namespace srp::core;

int main(int argc, char **argv) {
  BenchOptions Opts = parseBenchOptions(argc, argv);
  printHeader("Ablation: alias precision vs speculation",
              "cycles: conservative/Steensgaard vs conservative/Andersen "
              "vs ALAT speculation");

  PipelineConfig AndersenCfg =
      configFor(pre::PromotionConfig::conservative());
  AndersenCfg.UseAndersen = true;
  ExperimentGrid G = runGridOrDie(
      workloads::standardWorkloads(),
      {configFor(pre::PromotionConfig::conservative()), AndersenCfg,
       configFor(pre::PromotionConfig::alat())},
      Opts);

  outs() << formatString("%-8s %14s %14s %12s\n", "bench", "steensgaard",
                         "andersen", "alat");
  for (size_t WI = 0; WI < G.Workloads.size(); ++WI) {
    const Workload &W = G.Workloads[WI];
    outs() << formatString(
        "%-8s %14llu %14llu %12llu\n", W.Name.c_str(),
        (unsigned long long)G.at(WI, 0).Sim.Counters.Cycles,
        (unsigned long long)G.at(WI, 1).Sim.Counters.Cycles,
        (unsigned long long)G.at(WI, 2).Sim.Counters.Cycles);
  }
  outs() << "\nexpected: andersen <= steensgaard (never worse), and alat "
            "well below both — the ambiguity here is dynamic, not an "
            "analysis artifact\n";
  finishBench(Opts);
  return 0;
}
