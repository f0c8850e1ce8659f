//===- main.cpp - The repository benchmark's measuring process ----------------===//
//
// One process runs one workload:
//
//   srp-perfbench --workload paper-grid|sir-corpus|serve-mix --seed N
//                 --seconds S --trace 0|1 --report FILE [--spans FILE]
//                 [--root DIR] [--inject CHECK]
//
// It sets the workload up afresh several times (setup_s is the
// median), then runs the closed loop with tracing off and reports the
// end-to-end metrics. With --trace 1 the S seconds are split: a quarter
// untraced, half with spans on, a quarter untraced again; the traced half
// gives the per-layer metrics, the untraced quarters the overhead
// baseline, and all three must give the same deterministic pass counts. The report (JSON) goes to --report;
// run.py turns it into the benchmark's result line. --inject corrupts one
// check's expectation in set-up, for the self-test.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/JSON.h"
#include "support/OStream.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include <sys/resource.h>

using namespace perfbench;

namespace {

/// Set-ups per run: at least MinSetupRuns, and more while their total is
/// under MinSetupSeconds, so a short set-up's median rests on more
/// samples. setup_s is their median.
constexpr unsigned MinSetupRuns = 3;
constexpr double MinSetupSeconds = 1.5;

std::string quoted(std::string_view S) {
  std::string Out;
  srp::StringOStream OS(Out);
  srp::JSONWriter W(OS, /*Compact=*/true);
  W.value(S);
  return Out;
}

std::string num(double V) {
  if (!std::isfinite(V))
    return "null";
  return srp::formatString("%.17g", V);
}

/// Minimal ordered JSON object writer for the report.
class Obj {
public:
  Obj &add(const std::string &Key, const std::string &RawValue) {
    Body += (Body.empty() ? "" : ",") + quoted(Key) + ":" + RawValue;
    return *this;
  }
  Obj &num(const std::string &Key, double V) { return add(Key, ::num(V)); }
  Obj &str(const std::string &Key, std::string_view V) {
    return add(Key, quoted(V));
  }
  std::string text() const { return "{" + Body + "}"; }

private:
  std::string Body;
};

/// Nearest-rank percentile of sorted \p V.
double percentile(const std::vector<double> &V, double P) {
  if (V.empty())
    return 0;
  size_t Rank = static_cast<size_t>(
      std::ceil(P / 100.0 * static_cast<double>(V.size())));
  return V[std::min(V.size(), std::max<size_t>(Rank, 1)) - 1];
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return percentile(V, 50);
}

std::string quartilesJson(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return Obj()
      .num("q1", percentile(V, 25))
      .num("median", percentile(V, 50))
      .num("q3", percentile(V, 75))
      .num("n", static_cast<double>(V.size()))
      .text();
}

/// The highest of the usual percentiles with at least 10 of \p N samples
/// beyond it.
double tailPercentile(size_t N) {
  for (double P : {99.99, 99.9, 99.0, 90.0})
    if (static_cast<double>(N) * (100.0 - P) / 100.0 >= 10.0 - 1e-9)
      return P;
  return 50.0;
}

double latencyMs(const OpRecord &R) {
  return static_cast<double>(R.DurNs) / 1e6;
}

/// End-to-end metrics of one phase.
struct EndToEnd {
  double Throughput = 0, P50Ms = 0, TailMs = 0, TailPct = 0;
  size_t Ops = 0, BlockOps = 0;
  std::vector<double> BlockThroughput, BlockP50, BlockTail;
  double MeanMs = 0, WallSeconds = 0;
};

EndToEnd endToEnd(const Phase &P, size_t BlockOps) {
  EndToEnd E;
  std::vector<double> All;
  for (const std::vector<OpRecord> &Ops : P.Ops)
    for (const OpRecord &R : Ops)
      All.push_back(latencyMs(R));
  E.Ops = All.size();
  E.WallSeconds = P.WallSeconds;
  double Sum = 0;
  for (double L : All)
    Sum += L;
  E.MeanMs = All.empty() ? 0 : Sum / static_cast<double>(All.size());
  E.P50Ms = median(All);

  // Latency blocks of a fixed op count per client, so the tail percentile
  // and its sample count do not depend on how many ops the run completed.
  // A run too short for one block uses its ops as one partial block.
  for (const std::vector<OpRecord> &Ops : P.Ops) {
    size_t B = Ops.size() >= BlockOps ? BlockOps : Ops.size();
    if (B == 0)
      continue;
    E.BlockOps = B;
    for (size_t Begin = 0; Begin + B <= Ops.size(); Begin += B) {
      std::vector<double> L;
      for (size_t I = Begin; I < Begin + B; ++I)
        L.push_back(latencyMs(Ops[I]));
      std::sort(L.begin(), L.end());
      E.TailPct = tailPercentile(B);
      E.BlockP50.push_back(percentile(L, 50));
      E.BlockTail.push_back(percentile(L, E.TailPct));
      // A block lasts until the next one starts, so waits between blocks
      // (serve-mix's barriers) count against throughput.
      uint64_t End = Begin + B < Ops.size() ? Ops[Begin + B].StartNs
                                            : Ops[Begin + B - 1].endNs();
      double Secs = static_cast<double>(End - Ops[Begin].StartNs) / 1e9;
      E.BlockThroughput.push_back(static_cast<double>(B * P.Ops.size()) /
                                  Secs);
    }
  }
  E.Throughput = median(E.BlockThroughput);
  E.TailMs = median(E.BlockTail);
  return E;
}

/// Per-layer metrics of a traced phase (see README.md for definitions).
std::vector<std::pair<std::string, double>>
perLayer(const Phase &Traced, const EndToEnd &TracedE2E,
         double UntracedMeanMs,
         const std::map<std::string, double> &ClassP50Ms) {
  std::map<std::string, double> SelfNs;
  double OpNs = 0, OpSelfNs = 0;
  for (const Tracer &T : Traced.Tracers) {
    std::vector<uint64_t> ChildNs(T.Spans.size(), 0);
    for (const Span &S : T.Spans)
      if (S.Parent >= 0)
        ChildNs[S.Parent] += S.EndNs - S.StartNs;
    for (size_t I = 0; I < T.Spans.size(); ++I) {
      const Span &S = T.Spans[I];
      uint64_t Dur = S.EndNs - S.StartNs;
      double Self = static_cast<double>(Dur - std::min(Dur, ChildNs[I]));
      if (std::strcmp(S.Name, "op") == 0) {
        OpNs += static_cast<double>(Dur);
        OpSelfNs += Self;
      } else {
        SelfNs[S.Name] += Self;
      }
    }
  }
  double Ops = static_cast<double>(std::max<size_t>(TracedE2E.Ops, 1));
  auto MsPerOp = [&](const char *Span) {
    auto It = SelfNs.find(Span);
    return It == SelfNs.end() ? 0.0 : It->second / Ops / 1e6;
  };
  auto Layer = [&](const char *Key) {
    auto It = Traced.Layer.find(Key);
    return It == Traced.Layer.end() ? 0.0 : It->second;
  };
  auto ClassP50 = [&](const char *Class) {
    auto It = ClassP50Ms.find(Class);
    return It == ClassP50Ms.end() ? 0.0 : It->second;
  };
  double ExecuteS = MsPerOp("arch.execute") * Ops / 1e3;
  return {
      {"arch.execute_ms", MsPerOp("arch.execute")},
      {"arch.sim_minstr_per_s",
       ExecuteS > 0 ? Layer("sim.instructions") / ExecuteS / 1e6 : 0},
      {"arch.decode_ms", MsPerOp("arch.decode")},
      {"interp.profile_ms", MsPerOp("interp.profile")},
      {"ir.build_ms", MsPerOp("ir.build")},
      {"ir.parse_ms", MsPerOp("ir.parse")},
      {"ir.verify_ms", MsPerOp("ir.verify")},
      {"alias.ms", MsPerOp("alias")},
      {"pre.promote_ms", MsPerOp("pre.promote")},
      {"pre.promoted_exprs", Layer("pre.promoted_exprs")},
      {"analysis.specverify_ms", MsPerOp("analysis.specverify")},
      {"analysis.taintflow_ms", MsPerOp("analysis.taintflow")},
      {"codegen.lower_ms", MsPerOp("codegen.lower")},
      {"codegen.regalloc_ms", MsPerOp("codegen.regalloc")},
      {"core.pipeline_ms", MsPerOp("core.pipeline")},
      {"core.serve_ms", MsPerOp("core.serve")},
      {"core.serve.hit_p50_us", ClassP50("named-hit") * 1e3},
      {"core.serve.program_hit_p50_us", ClassP50("program-hit") * 1e3},
      {"core.serve.miss_p50_ms", Layer("core.serve.miss_p50_ms")},
      {"core.serve.wait_ms", Layer("core.serve.wait_ms")},
      {"core.result_cache.hit_ratio", Layer("core.result_cache.hit_ratio")},
      {"core.result_cache.evictions", Layer("core.result_cache.evictions")},
      {"core.serve.runs_per_cold_key", Layer("core.serve.runs_per_cold_key")},
      {"trace_overhead_pct",
       UntracedMeanMs > 0 ? (TracedE2E.MeanMs / UntracedMeanMs - 1.0) * 100.0
                          : 0},
      {"trace_coverage_pct", OpNs > 0 ? (1.0 - OpSelfNs / OpNs) * 100.0 : 0},
  };
}

/// Latencies (ms) of each class's ops in \p P, sorted.
std::vector<std::vector<double>> classLatencies(const Phase &P,
                                                size_t NumClasses) {
  std::vector<std::vector<double>> ByClass(NumClasses);
  for (const std::vector<OpRecord> &Ops : P.Ops)
    for (const OpRecord &R : Ops)
      ByClass[R.Class].push_back(latencyMs(R));
  for (std::vector<double> &L : ByClass)
    std::sort(L.begin(), L.end());
  return ByClass;
}

std::map<std::string, double> classP50Ms(const Phase &P,
                                         const std::vector<std::string> &Names) {
  std::vector<std::vector<double>> ByClass = classLatencies(P, Names.size());
  std::map<std::string, double> Out;
  for (size_t C = 0; C < Names.size(); ++C)
    if (!ByClass[C].empty())
      Out[Names[C]] = percentile(ByClass[C], 50);
  return Out;
}

std::string countsJson(const std::map<std::string, uint64_t> &Counts) {
  Obj O;
  for (const auto &[K, V] : Counts)
    O.num(K, static_cast<double>(V));
  return O.text();
}

std::string classesJson(const Phase &P, const std::vector<std::string> &Names) {
  std::vector<std::vector<double>> ByClass = classLatencies(P, Names.size());
  std::vector<size_t> Failed(Names.size(), 0);
  size_t Total = 0;
  for (const std::vector<OpRecord> &Ops : P.Ops)
    for (const OpRecord &R : Ops) {
      Failed[R.Class] += !R.Ok;
      ++Total;
    }
  Obj O;
  for (size_t C = 0; C < Names.size(); ++C) {
    const std::vector<double> &L = ByClass[C];
    O.add(Names[C],
          Obj()
              .num("ops", static_cast<double>(L.size()))
              .num("failed", static_cast<double>(Failed[C]))
              .num("share", Total ? static_cast<double>(L.size()) /
                                        static_cast<double>(Total)
                                  : 0)
              .num("p25_ms", percentile(L, 25))
              .num("p50_ms", percentile(L, 50))
              .num("p75_ms", percentile(L, 75))
              .num("p99_ms", percentile(L, 99))
              .text());
  }
  return O.text();
}

void writeSpans(const std::string &Path, const Phase &P, uint64_t Origin) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return;
  std::fprintf(F, "client\top\tspan\tparent\tname\tstart_ns\tend_ns\tfrom_"
                  "epoch\n");
  for (size_t C = 0; C < P.Tracers.size(); ++C) {
    const std::vector<Span> &Spans = P.Tracers[C].Spans;
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F, "%zu\t%u\t%zu\t%d\t%s\t%llu\t%llu\t%d\n", C, S.Op, I,
                   S.Parent, S.Name,
                   (unsigned long long)(S.StartNs - Origin),
                   (unsigned long long)(S.EndNs - Origin), S.FromEpoch ? 1 : 0);
    }
  }
  std::fclose(F);
}

std::string e2eJson(const EndToEnd &E, double SetupS,
                    const std::vector<double> &SetupRunsS, double PeakRssMb) {
  Obj O;
  O.add("throughput_per_s",
        Obj()
            .num("value", E.Throughput)
            .str("unit", "1/s")
            .add("blocks", quartilesJson(E.BlockThroughput))
            .num("phase_ops", static_cast<double>(E.Ops))
            .num("phase_wall_s", E.WallSeconds)
            .text());
  O.add("latency_p50_ms", Obj()
                              .num("value", E.P50Ms)
                              .str("unit", "ms")
                              .add("blocks", quartilesJson(E.BlockP50))
                              .text());
  O.add("latency_tail_ms",
        Obj()
            .num("value", E.TailMs)
            .str("unit", "ms")
            .num("percentile", E.TailPct)
            .num("block_ops", static_cast<double>(E.BlockOps))
            .num("samples", static_cast<double>(E.Ops))
            .add("blocks", quartilesJson(E.BlockTail))
            .text());
  O.add("peak_rss_mb",
        Obj().num("value", PeakRssMb).str("unit", "MB").text());
  O.add("setup_s", Obj()
                       .num("value", SetupS)
                       .str("unit", "s")
                       .add("runs", quartilesJson(SetupRunsS))
                       .text());
  return O.text();
}

bool parseArgs(int Argc, char **Argv, Options &Opts, std::string &Report,
               std::string &Spans) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Value = Argv[I + 1];
    if (Flag == "--workload")
      Opts.Workload = Value;
    else if (Flag == "--seed")
      Opts.Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      Opts.Seconds = std::strtod(Value.c_str(), nullptr);
    else if (Flag == "--trace")
      Opts.Trace = Value == "1";
    else if (Flag == "--inject")
      Opts.Inject = Value;
    else if (Flag == "--root")
      Opts.Root = Value;
    else if (Flag == "--report")
      Report = Value;
    else if (Flag == "--spans")
      Spans = Value;
    else
      return false;
  }
  return Argc % 2 == 1 && !Report.empty() && Opts.Seconds > 0;
}

std::unique_ptr<Workload> makeWorkload(const Options &Opts) {
  if (Opts.Workload == "paper-grid")
    return makePaperGrid(Opts);
  if (Opts.Workload == "sir-corpus")
    return makeSirCorpus(Opts);
  if (Opts.Workload == "serve-mix")
    return makeServeMix(Opts);
  return nullptr;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  std::string ReportPath, SpansPath;
  if (!parseArgs(Argc, Argv, Opts, ReportPath, SpansPath) ||
      !makeWorkload(Opts)) {
    std::fprintf(stderr,
                 "usage: srp-perfbench --workload paper-grid|sir-corpus|"
                 "serve-mix --seed N --seconds S --trace 0|1 --report FILE "
                 "[--spans FILE] [--root DIR] [--inject CHECK]\n");
    return 2;
  }

  // Set-up, repeated afresh; the last instance runs the phases.
  Checker Setup;
  std::vector<double> SetupS;
  std::unique_ptr<Workload> W;
  std::map<std::string, uint64_t> SetupCounts;
  double SetupTotal = 0;
  while (SetupS.size() < MinSetupRuns || SetupTotal < MinSetupSeconds) {
    W.reset();
    uint64_t T0 = nowNs();
    W = makeWorkload(Opts);
    W->setUp(Setup);
    SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
    SetupTotal += SetupS.back();
    if (SetupS.size() == 1)
      SetupCounts = W->setupCounts();
    else
      Setup.expect(W->setupCounts() == SetupCounts,
                   "set-up counts differ between set-ups");
  }

  // With --trace 1 the traced phase sits between two untraced quarters,
  // so drift of the host's speed during the run cancels out of the
  // overhead estimate.
  Phase Untraced = W->run(Opts.Trace ? Opts.Seconds / 4 : Opts.Seconds,
                          /*Traced=*/false);
  Phase Traced, After;
  uint64_t TracedOrigin = nowNs();
  if (Opts.Trace) {
    Traced = W->run(Opts.Seconds / 2, /*Traced=*/true);
    After = W->run(Opts.Seconds / 4, /*Traced=*/false);
  }

  Checker Run;
  Run.merge(Setup);
  Run.merge(Untraced.Checks);
  if (Opts.Trace) {
    Run.merge(Traced.Checks);
    Run.merge(After.Checks);
    Run.expect(Traced.PassCounts == Untraced.PassCounts &&
                   After.PassCounts == Untraced.PassCounts,
               "traced pass counts differ from untraced");
  }

  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  double PeakRssMb = static_cast<double>(RU.ru_maxrss) / 1024.0;

  std::vector<std::string> Classes = W->classNames();
  EndToEnd U = endToEnd(Untraced, W->blockOps());
  Obj Env;
  Env.num("nproc", static_cast<double>(std::thread::hardware_concurrency()))
      .num("clients", W->clients())
      // Every op, pipeline runs included, executes on its client's thread.
      .num("threads", W->clients())
      .str("compiler", SRP_COMPILER)
      .str("build_type", SRP_BUILD_TYPE)
      .num("seed", static_cast<double>(Opts.Seed))
      .num("seconds", Opts.Seconds)
      .num("setup_runs", static_cast<double>(SetupS.size()));
  Obj Shape;
  for (const auto &[K, V] : W->describe())
    Shape.str(K, V);

  Obj R;
  R.str("schema", "srp-perfbench/1")
      .str("workload", Opts.Workload)
      .add("trace", Opts.Trace ? "true" : "false")
      .str("inject", Opts.Inject)
      .add("environment", Env.text())
      .add("workload_shape", Shape.text())
      .add("correct", Run.Failed == 0 ? "true" : "false")
      .num("attempted", static_cast<double>(Run.Checks))
      .num("failed", static_cast<double>(Run.Failed));
  std::string Failures = "[";
  for (size_t I = 0; I < Run.Messages.size(); ++I)
    Failures += (I ? "," : "") + quoted(Run.Messages[I]);
  R.add("failures", Failures + "]")
      .add("end_to_end", e2eJson(U, median(SetupS), SetupS, PeakRssMb))
      .add("classes", classesJson(Untraced, Classes))
      .add("deterministic", Obj()
                                .add("setup", countsJson(SetupCounts))
                                .add("pass", countsJson(Untraced.PassCounts))
                                .text());
  if (Opts.Trace) {
    EndToEnd T = endToEnd(Traced, W->blockOps());
    EndToEnd A = endToEnd(After, W->blockOps());
    double UntracedMeanMs =
        (U.MeanMs * static_cast<double>(U.Ops) +
         A.MeanMs * static_cast<double>(A.Ops)) /
        static_cast<double>(std::max<size_t>(U.Ops + A.Ops, 1));
    Obj Layers;
    for (const auto &[K, V] :
         perLayer(Traced, T, UntracedMeanMs, classP50Ms(Traced, Classes)))
      Layers.num(K, V);
    R.add("per_layer", Layers.text())
        .add("traced_end_to_end",
             e2eJson(T, median(SetupS), SetupS, PeakRssMb))
        .add("traced_classes", classesJson(Traced, Classes));
    if (!SpansPath.empty()) {
      writeSpans(SpansPath, Traced, TracedOrigin);
      R.str("spans", SpansPath);
    }
  }

  std::FILE *F = std::fopen(ReportPath.c_str(), "wb");
  if (!F) {
    std::fprintf(stderr, "cannot write '%s'\n", ReportPath.c_str());
    return 2;
  }
  std::string Text = R.text() + "\n";
  std::fwrite(Text.data(), 1, Text.size(), F);
  std::fclose(F);
  std::fprintf(stderr,
               "%s: %zu ops, %.1f ops/s, p50 %.3f ms, p%.4g %.3f ms, "
               "setup %.3f s, %llu/%llu checks failed\n",
               Opts.Workload.c_str(), U.Ops, U.Throughput, U.P50Ms, U.TailPct,
               U.TailMs, median(SetupS), (unsigned long long)Run.Failed,
               (unsigned long long)Run.Checks);
  for (const std::string &M : Run.Messages)
    std::fprintf(stderr, "  FAILED: %s\n", M.c_str());
  return 0;
}
