//===- BenchUtil.h - Shared bench harness helpers ----------------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the figure-reproduction benches. Every figure and
/// ablation runs the same job shape — a workload×config grid of
/// pipelines — so the harness parses the common command line (-jN,
/// --smoke, --stats), hands the grid to core::runExperiments, dies on
/// any failure or oracle divergence, and dumps the stats registry (per-
/// pass wall time included) on request. Counters are identical for every
/// -j value (see core/Experiment.h), so parallelism never changes a
/// figure, only its wall-clock.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_BENCH_BENCHUTIL_H
#define SRP_BENCH_BENCHUTIL_H

#include "core/Experiment.h"
#include "core/Pipeline.h"
#include "support/Error.h"
#include "support/OStream.h"
#include "support/Stats.h"
#include "support/StringUtils.h"
#include "workloads/Workloads.h"

#include <algorithm>

namespace srp::bench {

/// Command-line options every fig*/ablation_* binary accepts.
struct BenchOptions {
  unsigned Threads = 1; ///< -jN: parallel pipelines
  bool Smoke = false;   ///< --smoke: scale inputs down to a CI-fast run
  bool Stats = false;   ///< --stats: dump the process StatsRegistry
};

inline BenchOptions parseBenchOptions(int Argc, char **Argv) {
  BenchOptions Opts;
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    if (startsWith(Arg, "-j") && Arg.size() > 2) {
      if (!parseUnsigned(Arg.substr(2), Opts.Threads))
        fatalError("invalid value in '" + std::string(Arg) +
                   "' (expected a decimal integer)");
      Opts.Threads = std::max(1u, Opts.Threads); // -j0 runs serially
    } else if (Arg == "--smoke")
      Opts.Smoke = true;
    else if (Arg == "--stats")
      Opts.Stats = true;
    else
      fatalError("unknown bench option '" + std::string(Arg) +
                 "' (supported: -jN --smoke --stats)");
  }
  return Opts;
}

/// A workload×config grid with its results, indexed [workload][config].
struct ExperimentGrid {
  std::vector<core::Workload> Workloads; ///< possibly smoke-rescaled
  size_t NumConfigs = 0;
  std::vector<core::PipelineResult> Results;

  const core::PipelineResult &at(size_t WI, size_t CI) const {
    return Results[WI * NumConfigs + CI];
  }
};

/// Runs \p Exps through the parallel driver with the oracle gate on,
/// dying on the first failed experiment (a bench result is only
/// meaningful if the binary is correct).
inline std::vector<core::PipelineResult>
runExperimentsOrDie(const std::vector<core::Experiment> &Exps,
                    const BenchOptions &Opts) {
  core::ExperimentOptions EO;
  EO.Threads = Opts.Threads;
  EO.CheckOracle = true;
  std::vector<core::PipelineResult> Results = core::runExperiments(Exps, EO);
  for (size_t I = 0; I < Results.size(); ++I)
    if (!Results[I].Ok)
      fatalError(Exps[I].Label + ": " + Results[I].Error);
  return Results;
}

/// Runs every workload under every config. Workloads are taken by value:
/// --smoke rescales the copies (train == ref == 1) without touching the
/// caller's definitions.
inline ExperimentGrid runGridOrDie(std::vector<core::Workload> Ws,
                                   const std::vector<core::PipelineConfig> &Configs,
                                   const BenchOptions &Opts) {
  ExperimentGrid G;
  G.Workloads = std::move(Ws);
  G.NumConfigs = Configs.size();
  if (Opts.Smoke)
    for (core::Workload &W : G.Workloads) {
      W.TrainScale = 1;
      W.RefScale = 1;
    }
  std::vector<core::Experiment> Exps;
  Exps.reserve(G.Workloads.size() * Configs.size());
  for (const core::Workload &W : G.Workloads)
    for (const core::PipelineConfig &C : Configs)
      Exps.push_back({&W, C, W.Name});
  G.Results = runExperimentsOrDie(Exps, Opts);
  return G;
}

/// End-of-bench reporting hook: --stats output.
inline void finishBench(const BenchOptions &Opts) {
  if (Opts.Stats) {
    outs() << "\n-- stats registry --\n";
    StatsRegistry::get().report(outs());
  }
}

inline double pctReduction(uint64_t Base, uint64_t Spec) {
  if (Base == 0)
    return 0.0;
  return 100.0 * (double(Base) - double(Spec)) / double(Base);
}

inline void printHeader(const char *Title, const char *PaperNote) {
  outs() << "\n==== " << Title << " ====\n" << PaperNote << "\n\n";
}

} // namespace srp::bench

#endif // SRP_BENCH_BENCHUTIL_H
