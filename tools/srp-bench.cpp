//===- srp-bench.cpp - Pipeline performance baseline recorder -----------------===//
//
// Runs the compiler+simulator pipeline over a pinned workload grid and
// emits a machine-readable BENCH_pipeline.json. The grid is fixed — the
// ten standard workloads under the paper's three promotion strategies —
// so successive reports are comparable: tools/bench_diff.py gates the
// counter fingerprint of two reports (the bench-regress CI job diffs
// against the checked-in baseline). Wall-clock speed is judged by the
// repository benchmark (perfbench/, tools/perf_gate.py), not here.
//
//   srp-bench [options]
//     --out=FILE     write the JSON report to FILE (default stdout)
//     --smoke        train/ref scale 1 (the CI-fast grid)
//     --repeat=K     grid repetitions; wall-clock numbers are p50 over K
//                    (default 5)
//     -jN            thread count for the parallel wall-clock axis
//                    (default: hardware concurrency)
//     --label=STR    free-form label recorded in the report
//
// Report schema (srp-bench/1): see DESIGN.md §7. Every field is either a
// deterministic counter (byte-identical across runs and -j values: the
// simulated cycles fingerprint, promotion totals, cache/allocation
// counters) or a wall-clock trajectory (j1/jN p50 across --repeat grid
// runs, per-pass totals from the stats registry) that nothing gates.
//
//===----------------------------------------------------------------------===//

#include "core/Experiment.h"
#include "support/Error.h"
#include "support/JSON.h"
#include "support/OStream.h"
#include "support/Stats.h"
#include "support/StringUtils.h"
#include "support/Timer.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

using namespace srp;

namespace {

struct Options {
  std::string OutPath;
  std::string Label = "baseline";
  bool Smoke = false;
  unsigned Repeat = 5;
  unsigned Threads = 0; ///< 0: hardware concurrency
};

/// The number after the first \p Skip characters of \p Arg; 0 means 1,
/// as it always has.
bool parseCount(std::string_view Arg, size_t Skip, unsigned &Out) {
  if (!parseUnsigned(Arg.substr(Skip), Out)) {
    errs() << "invalid value in '" << Arg
           << "' (expected a decimal integer)\n";
    return false;
  }
  Out = std::max(1u, Out);
  return true;
}

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    if (startsWith(Arg, "--out="))
      Opts.OutPath = Arg.substr(6);
    else if (Arg == "--smoke")
      Opts.Smoke = true;
    else if (startsWith(Arg, "--label="))
      Opts.Label = Arg.substr(8);
    else if (startsWith(Arg, "--repeat=")) {
      if (!parseCount(Arg, 9, Opts.Repeat))
        return false;
    } else if (startsWith(Arg, "-j") && Arg.size() > 2) {
      if (!parseCount(Arg, 2, Opts.Threads))
        return false;
    } else {
      errs() << "unknown option '" << Arg
             << "' (supported: --out= --smoke --repeat= --label= -jN)\n";
      return false;
    }
  }
  if (Opts.Threads == 0) {
    Opts.Threads = std::thread::hardware_concurrency();
    if (Opts.Threads == 0)
      Opts.Threads = 1;
  }
  return true;
}

/// The pinned grid: every standard workload under the paper's three
/// strategies. Changing this invalidates baseline comparability, so
/// bench_diff.py cross-checks the recorded grid description.
std::vector<core::Experiment>
buildGrid(const std::vector<core::Workload> &Ws,
          const std::vector<std::pair<std::string, core::PipelineConfig>>
              &Configs) {
  std::vector<core::Experiment> Exps;
  Exps.reserve(Ws.size() * Configs.size());
  for (const core::Workload &W : Ws)
    for (const auto &[Name, C] : Configs)
      Exps.push_back({&W, C, W.Name + "/" + Name});
  return Exps;
}

uint64_t p50(std::vector<uint64_t> V) {
  std::sort(V.begin(), V.end());
  return V.empty() ? 0 : V[V.size() / 2];
}

struct GridMeasurement {
  std::vector<uint64_t> WallJ1, WallJN;
  // Deterministic fingerprint, from the final run.
  uint64_t Cycles = 0, Instructions = 0, RetiredLoads = 0;
  uint64_t PromotedExprs = 0, LoadsRemoved = 0, Checks = 0;
  size_t Pipelines = 0;
};

void checkOk(const std::vector<core::PipelineResult> &Results) {
  for (const core::PipelineResult &R : Results)
    if (!R.Ok)
      fatalError("pipeline failed: " + R.Error);
}

void fingerprint(const std::vector<core::PipelineResult> &Results,
                 GridMeasurement &G) {
  G.Cycles = G.Instructions = G.RetiredLoads = 0;
  G.PromotedExprs = G.LoadsRemoved = G.Checks = 0;
  for (const core::PipelineResult &R : Results) {
    G.Cycles += R.Sim.Counters.Cycles;
    G.Instructions += R.Sim.Counters.Instructions;
    G.RetiredLoads += R.Sim.Counters.RetiredLoads;
    G.PromotedExprs += R.Promotion.PromotedExprs;
    G.LoadsRemoved += R.Promotion.loadsRemoved();
    G.Checks += R.Promotion.ChecksInserted + R.Promotion.CascadeChecks;
  }
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return 2;

  std::vector<core::Workload> Ws = workloads::standardWorkloads();
  if (Opts.Smoke)
    for (core::Workload &W : Ws) {
      W.TrainScale = 1;
      W.RefScale = 1;
    }
  std::vector<std::pair<std::string, core::PipelineConfig>> Configs = {
      {"conservative",
       core::configFor(pre::PromotionConfig::conservative())},
      {"baseline", core::configFor(pre::PromotionConfig::baselineO3())},
      {"alat", core::configFor(pre::PromotionConfig::alat())},
  };
  std::vector<core::Experiment> Exps = buildGrid(Ws, Configs);

  StatsRegistry::get().clear();
  GridMeasurement G;
  G.Pipelines = Exps.size();
  std::vector<core::PipelineResult> Last;
  for (unsigned R = 0; R < Opts.Repeat; ++R) {
    core::ExperimentOptions Serial;
    Serial.Threads = 1;
    uint64_t Ns = 0;
    {
      ScopedTimer T(Ns);
      Last = core::runExperiments(Exps, Serial);
    }
    G.WallJ1.push_back(Ns / 1000);
    checkOk(Last);

    core::ExperimentOptions Parallel;
    Parallel.Threads = Opts.Threads;
    Ns = 0;
    {
      ScopedTimer T(Ns);
      Last = core::runExperiments(Exps, Parallel);
    }
    G.WallJN.push_back(Ns / 1000);
    checkOk(Last);
  }
  fingerprint(Last, G);

  std::FILE *File = stdout;
  if (!Opts.OutPath.empty()) {
    File = std::fopen(Opts.OutPath.c_str(), "wb");
    if (!File) {
      errs() << "cannot write '" << Opts.OutPath << "'\n";
      return 2;
    }
  }
  FileOStream OS(File);
  JSONWriter W(OS);
  W.beginObject();
  W.key("schema").value("srp-bench/1");
  W.key("label").value(Opts.Label);
  W.key("smoke").value(Opts.Smoke);
  W.key("repeat").value(Opts.Repeat);
  W.key("grid");
  {
    W.beginObject();
    W.key("pipelines").value(static_cast<uint64_t>(G.Pipelines));
    W.key("workloads").beginArray();
    for (const core::Workload &Wk : Ws)
      W.value(Wk.Name);
    W.endArray();
    W.key("configs").beginArray();
    for (const auto &[Name, C] : Configs)
      W.value(Name);
    W.endArray();
    W.endObject();
  }
  W.key("wall_clock_us");
  {
    W.beginObject();
    W.key("j1_p50").value(p50(G.WallJ1));
    W.key("jn_p50").value(p50(G.WallJN));
    W.key("threads").value(Opts.Threads);
    W.endObject();
  }
  StatsRegistry &SR = StatsRegistry::get();
  W.key("passes");
  {
    // Each pass's pass.<name>.us (PassManager is the only writer of
    // pass.* keys), summed over every pipeline of every repeat.
    W.beginObject();
    for (const auto &[Key, Micros] : SR.snapshot()) {
      if (!startsWith(Key, "pass."))
        continue;
      W.key(std::string_view(Key).substr(5, Key.size() - 8));
      W.beginObject();
      W.key("total_us").value(Micros);
      W.endObject();
    }
    W.endObject();
  }
  W.key("counters");
  {
    // Deterministic by construction: identical for every -j and repeat.
    W.beginObject();
    W.key("sim.cycles").value(G.Cycles);
    W.key("sim.instructions").value(G.Instructions);
    W.key("sim.retired_loads").value(G.RetiredLoads);
    W.key("promotion.exprs").value(G.PromotedExprs);
    W.key("promotion.loads_removed").value(G.LoadsRemoved);
    W.key("promotion.checks").value(G.Checks);
    W.endObject();
  }
  W.key("stats");
  {
    // Process-wide registry slice: the allocation counters (zero when
    // a build predates the counter).
    W.beginObject();
    for (const char *Key :
         {"alloc.arena.bytes", "alloc.arena.slabs", "alloc.arena.resets"})
      W.key(Key).value(SR.value(Key));
    W.endObject();
  }
  W.endObject();
  OS << "\n";
  OS.flush();
  if (File != stdout)
    std::fclose(File);
  return 0;
}
