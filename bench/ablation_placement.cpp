//===- ablation_placement.cpp - Check placement: §3.4 vs Figure 1 --------------===//
//
// The paper presents two equivalent code shapes: Figure 1 turns the
// reuse load itself into ld.c; §3.4's CodeMotion instead inserts a check
// statement after each speculatively ignored store, letting one check
// cover every later reuse. This ablation measures both placements.
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"

using namespace srp;
using namespace srp::bench;
using namespace srp::core;

int main(int argc, char **argv) {
  BenchOptions Opts = parseBenchOptions(argc, argv);
  printHeader("Ablation: check placement",
              "after-store check statements (§3.4) vs checking loads at "
              "the reuse (Figure 1)");

  pre::PromotionConfig C = pre::PromotionConfig::alat();
  C.ChecksAtReuse = true;
  ExperimentGrid G = runGridOrDie(
      workloads::standardWorkloads(),
      {configFor(pre::PromotionConfig::alat()), configFor(C)}, Opts);

  outs() << formatString("%-8s %14s %14s %12s %12s\n", "bench",
                         "cyc(after-st)", "cyc(at-reuse)", "chk(a-s)",
                         "chk(a-r)");
  for (size_t WI = 0; WI < G.Workloads.size(); ++WI) {
    const Workload &W = G.Workloads[WI];
    const PipelineResult &AfterStore = G.at(WI, 0);
    const PipelineResult &AtReuse = G.at(WI, 1);
    outs() << formatString(
        "%-8s %14llu %14llu %12llu %12llu\n", W.Name.c_str(),
        (unsigned long long)AfterStore.Sim.Counters.Cycles,
        (unsigned long long)AtReuse.Sim.Counters.Cycles,
        (unsigned long long)AfterStore.Sim.Counters.AlatChecks,
        (unsigned long long)AtReuse.Sim.Counters.AlatChecks);
  }
  outs() << "\nreading: with several reuses per store the after-store "
            "form needs fewer checks; with several stores per reuse the "
            "at-reuse form does\n";
  finishBench(Opts);
  return 0;
}
