//===- srp-fuzz.cpp - Differential fuzzing driver ------------------------------===//
//
// Coverage-guided differential fuzzing of the whole promotion pipeline
// (see fuzz/Fuzzer.h). Every iteration generates a random program,
// promotes it under one strategy, and runs the differential oracle
// (valid/DiffOracle.h): interpreter agreement, final-memory agreement,
// speculative non-interference, and recovery correctness under injected
// ALAT faults. Any disagreement — or any pipeline abort on generated
// input — is a finding; findings are delta-debugged to minimal .sir
// repros and written to --repro-dir with their replay triple.
//
//   srp-fuzz [options]
//     --iterations=N    oracle runs (default 1000; 0 with --seconds for
//                       a pure time budget)
//     --seconds=N       wall-clock budget (stops at whichever comes first)
//     -jN               worker threads (results independent of N)
//     --seed=N          master seed (default 1)
//     --no-faults       skip the fault-injection schedules
//     --fault-plans=N   fault schedules per program (default 2)
//     --no-minimize     keep findings at generated size
//     --repro-dir=PATH  where minimized repros go (default fuzz-repros)
//     --max-findings=N  stop collecting after N findings (default 10)
//     --taint           label a deterministic subset of each program's
//                       globals `secret`; the oracle then cross-checks
//                       the static TaintFlow verdict against the
//                       interpreter's shadow-taint run and reports any
//                       static-PASS/dynamic-LEAK disagreement as a
//                       taint-disagree finding
//     --quiet           suppress per-batch progress
//
//   srp-fuzz --replay=SHAPE:PROG:CFG:FAULT
//     Re-run one finding's triple and report the oracle verdict. The
//     triple is printed with every finding and embedded in each repro
//     file header. Combine with --taint to replay a taint-mode finding
//     (the secret labels are derived from the same seeds).
//
//   srp-fuzz --serve
//     Fuzz the srp-serve protocol stack instead (fuzz/ServeFuzzer.h):
//     seed-derived byte streams of mutated, truncated, pipelined and
//     garbage NDJSON frames, checked for chunking-independent framing,
//     one well-formed response per frame, and repeat determinism.
//     --iterations/--threads/--seed/--repro-dir/--max-findings apply;
//     findings replay with --replay-serve=SEED (decimal, or hex after
//     0x; a seed that does not fit 64 bits is a usage error).
//
// Exit status (matching srp-run lint): 0 clean sweep, 1 findings (or
// replay mismatch), 2 usage errors.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"
#include "fuzz/Minimizer.h"
#include "fuzz/ServeFuzzer.h"
#include "support/OStream.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

using namespace srp;

namespace {

struct Options {
  fuzz::FuzzOptions Fuzz;
  std::string Replay;
  std::optional<uint64_t> ReplayServe;
  bool Serve = false;
  bool Quiet = false;
};

void usage(std::FILE *To) {
  std::fputs(
      "usage: srp-fuzz [--iterations=N] [--seconds=N] [-jN] [--seed=N]\n"
      "                [--no-faults] [--fault-plans=N] [--no-minimize]\n"
      "                [--repro-dir=PATH] [--max-findings=N] [--taint] "
      "[--quiet]\n"
      "       srp-fuzz --replay=SHAPE:PROG:CFG:FAULT [--taint]\n"
      "       srp-fuzz --serve [options]\n"
      "       srp-fuzz --replay-serve=SEED  (decimal or 0x hex, < 2^64)\n",
      To);
}

/// Parses a serve finding's seed in decimal or, after "0x", in hex (as
/// ServeFinding::replayArg() prints it). Rejects any other text and any
/// value that does not fit 64 bits.
bool parseServeSeed(std::string_view Text, uint64_t &Seed) {
  if (startsWith(Text, "0x"))
    return parseUnsigned(Text.substr(2), Seed, 16);
  return parseUnsigned(Text, Seed);
}

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  bool SecondsSet = false;
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    uint64_t V = 0;
    if (startsWith(Arg, "--iterations=")) {
      if (!parseUnsigned(Arg.substr(13), Opts.Fuzz.Iterations))
        return false;
    } else if (startsWith(Arg, "--seconds=")) {
      if (!parseUnsigned(Arg.substr(10), Opts.Fuzz.Seconds))
        return false;
      SecondsSet = true;
    } else if (startsWith(Arg, "-j")) {
      if (!parseUnsigned(Arg.substr(2), V) || V == 0 || V > 1024)
        return false;
      Opts.Fuzz.Threads = static_cast<unsigned>(V);
    } else if (startsWith(Arg, "--threads=")) {
      if (!parseUnsigned(Arg.substr(10), V) || V == 0 || V > 1024)
        return false;
      Opts.Fuzz.Threads = static_cast<unsigned>(V);
    } else if (startsWith(Arg, "--seed=")) {
      if (!parseUnsigned(Arg.substr(7), Opts.Fuzz.Seed))
        return false;
    } else if (Arg == "--no-faults") {
      Opts.Fuzz.WithFaults = false;
    } else if (startsWith(Arg, "--fault-plans=")) {
      if (!parseUnsigned(Arg.substr(14), V) || V == 0 || V > 16)
        return false;
      Opts.Fuzz.FaultPlansPerProgram = static_cast<unsigned>(V);
    } else if (Arg == "--no-minimize") {
      Opts.Fuzz.Minimize = false;
    } else if (startsWith(Arg, "--repro-dir=")) {
      Opts.Fuzz.ReproDir = std::string(Arg.substr(12));
    } else if (startsWith(Arg, "--max-findings=")) {
      if (!parseUnsigned(Arg.substr(15), V))
        return false;
      Opts.Fuzz.MaxFindings = static_cast<size_t>(V);
    } else if (Arg == "--taint") {
      Opts.Fuzz.Taint = true;
    } else if (Arg == "--quiet") {
      Opts.Quiet = true;
    } else if (startsWith(Arg, "--replay=")) {
      Opts.Replay = std::string(Arg.substr(9));
    } else if (Arg == "--serve") {
      Opts.Serve = true;
    } else if (startsWith(Arg, "--replay-serve=")) {
      uint64_t Seed = 0;
      if (!parseServeSeed(Arg.substr(15), Seed)) {
        errs() << "malformed --replay-serve seed '" << Arg.substr(15)
               << "'\n";
        return false;
      }
      Opts.ReplayServe = Seed;
      Opts.Serve = true;
    } else {
      errs() << "unknown option '" << Arg << "'\n";
      return false;
    }
  }
  // A pure time budget: --seconds without --iterations means unbounded
  // iterations under the clock.
  if (SecondsSet && Opts.Fuzz.Iterations == 1000)
    Opts.Fuzz.Iterations = 0;
  if (Opts.Replay.empty() && !Opts.ReplayServe &&
      Opts.Fuzz.Iterations == 0 && Opts.Fuzz.Seconds == 0) {
    errs() << "nothing to do: give --iterations and/or --seconds\n";
    return false;
  }
  return true;
}

int runReplay(const std::string &Arg, const Options &Opts) {
  uint64_t Shape = 0, Prog = 0, Fault = 0;
  unsigned Cfg = 0;
  if (!fuzz::parseReplayArg(Arg, Shape, Prog, Cfg, Fault)) {
    errs() << "malformed --replay triple '" << Arg
           << "' (expected SHAPE:PROG:CFG:FAULT with CFG < "
           << fuzz::fuzzConfigs().size() << ")\n";
    return 2;
  }
  const fuzz::FuzzConfig &FC = fuzz::fuzzConfigs()[Cfg];
  outs() << "replaying " << Arg << " (config " << FC.Name << ")\n";
  valid::OracleReport R = fuzz::replayTriple(
      Shape, Prog, Cfg, Fault, Opts.Fuzz.FaultPlansPerProgram,
      Opts.Fuzz.Taint);
  outs() << formatString(
      "speculative accesses %llu, fault plans run %u, advanced loads %u\n",
      (unsigned long long)R.SpeculativeAccesses, R.FaultPlansRun,
      R.Promotion.AdvancedLoads);
  if (R.Ok) {
    outs() << "oracle: all checks agree\n";
    return 0;
  }
  outs() << "oracle: " << valid::mismatchKindName(R.Kind) << ": " << R.Detail
         << '\n';
  if (!R.FaultContext.empty())
    outs() << "fault schedule: " << R.FaultContext << '\n';
  return 1;
}

/// --serve --replay-serve=SEED: re-derive one input and re-check it.
int runServeReplay(uint64_t Seed) {
  std::string Input = fuzz::serveInputFromSeed(Seed);
  outs() << formatString("replaying serve input 0x%llx (%zu bytes)\n",
                         (unsigned long long)Seed, Input.size());
  std::string Detail;
  if (fuzz::checkServeInput(Input, Detail)) {
    outs() << "serving contract holds\n";
    return 0;
  }
  outs() << "violation: " << Detail << '\n';
  return 1;
}

/// --serve: the protocol-decoder campaign (ServeFuzzer.h).
int runServeCampaign(const Options &Opts) {
  fuzz::ServeFuzzOptions SO;
  SO.Iterations = Opts.Fuzz.Iterations ? Opts.Fuzz.Iterations : 1000;
  SO.Threads = Opts.Fuzz.Threads;
  SO.Seed = Opts.Fuzz.Seed;
  SO.Minimize = Opts.Fuzz.Minimize;
  SO.ReproDir = Opts.Fuzz.ReproDir;
  SO.MaxFindings = Opts.Fuzz.MaxFindings;
  if (!Opts.Quiet)
    SO.Log = [](const std::string &Line) { errs() << Line << '\n'; };

  fuzz::ServeFuzzResult R = fuzz::runServeFuzz(SO);
  outs() << formatString("ran %llu serve inputs\n",
                         (unsigned long long)R.Iterations);
  if (R.Findings.empty()) {
    outs() << "no findings\n";
    return 0;
  }
  outs() << formatString("%zu finding(s):\n", R.Findings.size());
  for (const fuzz::ServeFinding &F : R.Findings) {
    outs() << "  " << F.Detail << '\n';
    outs() << formatString(
        "    replay: srp-fuzz --serve --replay-serve=%s (%zu bytes)\n",
        F.replayArg().c_str(), F.Input.size());
    if (!F.ReproPath.empty())
      outs() << "    repro: " << F.ReproPath << '\n';
  }
  return 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  Opts.Fuzz.ReproDir = "fuzz-repros";
  if (!parseArgs(Argc, Argv, Opts)) {
    usage(stderr);
    return 2;
  }

  if (Opts.ReplayServe)
    return runServeReplay(*Opts.ReplayServe);
  if (Opts.Serve)
    return runServeCampaign(Opts);
  if (!Opts.Replay.empty())
    return runReplay(Opts.Replay, Opts);

  if (!Opts.Quiet)
    Opts.Fuzz.Log = [](const std::string &Line) {
      errs() << Line << '\n';
    };

  fuzz::FuzzResult R = fuzz::runFuzzer(Opts.Fuzz);

  outs() << formatString(
      "ran %llu programs (%llu fault-schedule simulations), "
      "%zu coverage features, %llu coverage events\n",
      (unsigned long long)R.ProgramsRun, (unsigned long long)R.FaultRuns,
      R.CoverageFeatures, (unsigned long long)R.NewCoverageEvents);

  if (R.Findings.empty()) {
    outs() << "no findings\n";
    return 0;
  }
  outs() << formatString("%zu finding(s):\n", R.Findings.size());
  for (const fuzz::Finding &F : R.Findings) {
    outs() << formatString(
        "  %s under %s: %s\n", valid::mismatchKindName(F.Kind),
        F.ConfigName.c_str(), F.Detail.c_str());
    if (!F.FaultContext.empty())
      outs() << "    fault schedule: " << F.FaultContext << '\n';
    outs() << formatString(
        "    replay: srp-fuzz --replay=%s (%u statement(s))\n",
        F.replayArg().c_str(), F.Statements);
    if (!F.ReproPath.empty())
      outs() << "    repro: " << F.ReproPath << '\n';
  }
  return 1;
}
