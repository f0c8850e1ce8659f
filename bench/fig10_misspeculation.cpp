//===- fig10_misspeculation.cpp - Figure 10 reproduction ----------------------===//
//
// Figure 10 of the paper: the mis-speculation ratio (failed checks over
// executed checks) and the weight of checking relative to all retired
// loads. The paper observes generally tiny ratios, with gzip near 5% —
// but notes gzip's check count is negligible against its loads, so the
// failures do not hurt.
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"

using namespace srp;
using namespace srp::bench;
using namespace srp::core;

int main(int argc, char **argv) {
  BenchOptions Opts = parseBenchOptions(argc, argv);
  printHeader("Figure 10: mis-speculation in speculative promotion",
              "paper: ratios are small; gzip ~5% but with few checks");

  ExperimentGrid G =
      runGridOrDie(workloads::standardWorkloads(),
                   {configFor(pre::PromotionConfig::alat())}, Opts);

  outs() << formatString("%-8s %10s %10s %12s %16s\n", "bench", "checks",
                         "failed", "misspec(%)", "checks/loads(%)");
  for (size_t WI = 0; WI < G.Workloads.size(); ++WI) {
    const Workload &W = G.Workloads[WI];
    const auto &C = G.at(WI, 0).Sim.Counters;
    double Ratio = C.AlatChecks
                       ? 100.0 * double(C.AlatCheckFailures) /
                             double(C.AlatChecks)
                       : 0.0;
    double Weight = C.RetiredLoads
                        ? 100.0 * double(C.AlatChecks) /
                              double(C.RetiredLoads + C.AlatChecks)
                        : 0.0;
    outs() << formatString("%-8s %10llu %10llu %11.2f%% %15.1f%%\n",
                           W.Name.c_str(),
                           (unsigned long long)C.AlatChecks,
                           (unsigned long long)C.AlatCheckFailures, Ratio,
                           Weight);
  }
  finishBench(Opts);
  return 0;
}
