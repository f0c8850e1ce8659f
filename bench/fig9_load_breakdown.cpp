//===- fig9_load_breakdown.cpp - Figure 9 reproduction ------------------------===//
//
// Figure 9 of the paper: among the loads that speculative promotion
// removes (relative to the baseline), what fraction were indirect versus
// direct references. The paper observes indirect loads dominating for
// ammp, gzip, mcf and parser.
//
// Dynamic weights come from the train edge profile (each removed load
// site counted by its block's execution count), which is the substitute
// for the paper's hardware counters.
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"

using namespace srp;
using namespace srp::bench;
using namespace srp::core;

int main(int argc, char **argv) {
  BenchOptions Opts = parseBenchOptions(argc, argv);
  printHeader("Figure 9: direct vs indirect among reduced loads",
              "paper: indirect dominates for ammp, gzip, mcf, parser");

  ExperimentGrid G = runGridOrDie(
      workloads::standardWorkloads(),
      {configFor(pre::PromotionConfig::baselineO3()),
       configFor(pre::PromotionConfig::alat())},
      Opts);

  outs() << formatString("%-8s %12s %12s %14s\n", "bench", "direct(%)",
                         "indirect(%)", "sites (d/i)");
  for (size_t WI = 0; WI < G.Workloads.size(); ++WI) {
    const Workload &W = G.Workloads[WI];
    const PipelineResult &Base = G.at(WI, 0);
    const PipelineResult &Spec = G.at(WI, 1);
    // The speculative pass's extra removals over the baseline.
    auto Extra = [](uint64_t SpecV, uint64_t BaseV) {
      return SpecV > BaseV ? SpecV - BaseV : 0;
    };
    uint64_t Dir = Extra(Spec.Promotion.DynLoadsRemovedDirect,
                         Base.Promotion.DynLoadsRemovedDirect);
    uint64_t Ind = Extra(Spec.Promotion.DynLoadsRemovedIndirect,
                         Base.Promotion.DynLoadsRemovedIndirect);
    uint64_t Total = Dir + Ind;
    double DirPct = Total ? 100.0 * double(Dir) / double(Total) : 0.0;
    double IndPct = Total ? 100.0 * double(Ind) / double(Total) : 0.0;
    outs() << formatString("%-8s %11.1f%% %11.1f%%       %u/%u\n",
                           W.Name.c_str(), DirPct, IndPct,
                           Spec.Promotion.LoadsRemovedDirect,
                           Spec.Promotion.LoadsRemovedIndirect);
  }
  finishBench(Opts);
  return 0;
}
