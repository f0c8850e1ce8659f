//===- srp-run.cpp - Command-line driver ---------------------------------------===//
//
// Compiles a textual IR program (see ir/Parser.h for the grammar) under a
// chosen promotion strategy and runs it on the ITA simulator, reporting
// the pfmon-style counters. The run is the standard pass pipeline
// (core/Pass.h) in module mode: the parsed program is profiled and
// transformed in place, and the train run doubles as the correctness
// oracle; srp-run exits non-zero if the simulated output diverges.
//
//   srp-run [options] program.sir
//     --strategy=conservative|baseline|alat   (default alat)
//     --cascade          enable chk.a address speculation
//     --sta              enable the st.a extension (§2.5)
//     --no-profile       collect but don't feed back the alias profile
//     --disable-pass=N   skip the pass named N (repeatable; see passes)
//     --stats            dump the run's statistics registry (stderr),
//                        pass.<name>.us wall times included
//     --print-ir         print the promoted IR
//     --print-asm        print the ITA assembly
//     --alat-entries=N   ALAT geometry overrides
//     --alat-tag-bits=N
//
//   srp-run passes
//     List the registered passes in run order with descriptions.
//
//   srp-run lint [options] program.sir
//     Static speculation-safety checking (analysis/SpecVerifier.h): by
//     default the program is promoted first (the build, profile and
//     promote passes of a normal run, train fuel included, honouring
//     --strategy/--cascade/--sta/--no-profile and --alat-entries) and the
//     *promoted* IR is verified; with
//     --no-promote the input is linted as written, which is the mode for
//     hand-authored speculative .sir files. --Werror promotes warnings
//     (the ALAT capacity lint) to a failing exit.
//
//     --taint additionally runs the speculative secret-taint dataflow
//     (analysis/TaintFlow.h) over the linted IR; any `secret`-labelled
//     value reaching an address, branch, or output inside a speculative
//     window is a finding. --witness=<dir> emits one proof-witness JSON
//     per input (analysis/Witness.h): every promoted web's anchoring
//     invariant, alias facts, and static/dynamic taint verdict
//     (CONFIRMED/REFUTED); a REFUTED witness is a finding. Diagnostics
//     are deterministic: sorted by line, check, and context, with exact
//     duplicates dropped.
//
//     Exit status (matching srp-fuzz): 0 clean, 1 findings, 2
//     usage/parse/train errors.
//
//===----------------------------------------------------------------------===//

#include "analysis/SpecVerifier.h"
#include "analysis/TaintFlow.h"
#include "analysis/Witness.h"
#include "codegen/Lowering.h"
#include "core/Pass.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "support/OStream.h"
#include "support/Stats.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <tuple>

#include <sys/stat.h>

using namespace srp;

namespace {

struct Options {
  std::string InputPath;
  /// The pipeline's config (lint replaces its DisabledPasses).
  core::PipelineConfig Config = core::configFor(pre::PromotionConfig::alat());
  bool PrintIR = false;
  bool PrintAsm = false;
  bool Stats = false;
  // Lint-mode (srp-run lint ...) options.
  bool Lint = false;
  bool Promote = true;     ///< lint the promoted IR (default) or as-is
  bool WarnAsError = false;
  bool Taint = false;      ///< run the secret-taint dataflow too
  std::string WitnessDir;  ///< emit proof-witness JSON here (implies taint)
};

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  int First = 1;
  if (Argc > 1 && std::strcmp(Argv[1], "lint") == 0) {
    Opts.Lint = true;
    First = 2;
  }
  for (int I = First; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    if (Opts.Lint && Arg == "--no-promote")
      Opts.Promote = false;
    else if (Opts.Lint && Arg == "--Werror")
      Opts.WarnAsError = true;
    else if (Opts.Lint && Arg == "--taint")
      Opts.Taint = true;
    else if (Opts.Lint && startsWith(Arg, "--witness=")) {
      Opts.WitnessDir = Arg.substr(10);
      Opts.Taint = true;
      if (Opts.WitnessDir.empty()) {
        errs() << "empty directory in '--witness='\n";
        return false;
      }
    }
    else if (Arg == "--strategy=conservative")
      Opts.Config.Promotion = pre::PromotionConfig::conservative();
    else if (Arg == "--strategy=baseline")
      Opts.Config.Promotion = pre::PromotionConfig::baselineO3();
    else if (Arg == "--strategy=alat")
      Opts.Config.Promotion = pre::PromotionConfig::alat();
    else if (Arg == "--cascade")
      Opts.Config.Promotion.EnableCascade = true;
    else if (Arg == "--sta")
      Opts.Config.Promotion.UseStA = true;
    else if (Arg == "--no-profile")
      Opts.Config.UseAliasProfile = false;
    else if (Arg == "--print-ir")
      Opts.PrintIR = true;
    else if (Arg == "--print-asm")
      Opts.PrintAsm = true;
    else if (Arg == "--stats")
      Opts.Stats = true;
    else if (startsWith(Arg, "--disable-pass="))
      Opts.Config.DisabledPasses.emplace_back(Arg.substr(15));
    else if (startsWith(Arg, "--alat-entries=")) {
      if (!parseUnsigned(Arg.substr(15), Opts.Config.Sim.Alat.Entries)) {
        errs() << "invalid value in '" << Arg
               << "' (expected a decimal integer)\n";
        return false;
      }
    } else if (startsWith(Arg, "--alat-tag-bits=")) {
      if (!parseUnsigned(Arg.substr(16),
                         Opts.Config.Sim.Alat.PartialTagBits)) {
        errs() << "invalid value in '" << Arg
               << "' (expected a decimal integer)\n";
        return false;
      }
    } else if (!startsWith(Arg, "--") && Opts.InputPath.empty())
      Opts.InputPath = Arg;
    else {
      errs() << "unknown option '" << Arg << "'\n";
      return false;
    }
  }
  if (Opts.InputPath.empty()) {
    errs() << "usage: srp-run [options] program.sir (see file header)\n";
    return false;
  }
  // Unknown --disable-pass names would silently do nothing; reject them.
  std::vector<std::string> Known = core::standardPassNames();
  for (const std::string &Name : Opts.Config.DisabledPasses)
    if (std::find(Known.begin(), Known.end(), Name) == Known.end()) {
      errs() << "unknown pass '" << Name
             << "' in --disable-pass (run 'srp-run passes')\n";
      return false;
    }
  // A geometry the simulator cannot model is a usage error, not a
  // finding: reject it before any pass runs.
  std::string Bad = core::validatePipelineConfig(Opts.Config);
  if (!Bad.empty()) {
    errs() << "invalid pipeline config: " << Bad << '\n';
    return false;
  }
  return true;
}

/// srp-run passes: list the registered pipeline in run order.
int listPasses() {
  core::PassManager PM;
  core::addStandardPasses(PM);
  outs() << "registered passes, in run order:\n";
  for (const std::string &Name : PM.passNames()) {
    const core::Pass *P = PM.find(Name);
    outs() << formatString("  %-12s %s\n", Name.c_str(),
                           std::string(P->description()).c_str());
  }
  outs() << "\ndisable any of them with --disable-pass=<name> "
            "(passes depending on a disabled one fail with a "
            "diagnostic)\n";
  return 0;
}

/// Deterministic diagnostic order: \p Key ties line first (the file:line
/// users read), then check tag, then context. A stable sort keeps the
/// checker's function/block order for ties; exact duplicates (every
/// field equal) are dropped afterwards.
template <typename Diag, typename KeyFn>
void sortAndDedupe(std::vector<Diag> &Diags, KeyFn Key) {
  std::stable_sort(Diags.begin(), Diags.end(),
                   [&Key](const Diag &A, const Diag &B) {
                     return Key(A) < Key(B);
                   });
  Diags.erase(std::unique(Diags.begin(), Diags.end(),
                          [&Key](const Diag &A, const Diag &B) {
                            return Key(A) == Key(B);
                          }),
              Diags.end());
}

/// "dir/taint_leak.sir" -> "taint_leak" (for witness file naming).
std::string inputStem(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  std::string Base = Slash == std::string::npos ? Path
                                                : Path.substr(Slash + 1);
  size_t Dot = Base.find_last_of('.');
  if (Dot != std::string::npos && Dot > 0)
    Base = Base.substr(0, Dot);
  return Base.empty() ? std::string("module") : Base;
}

/// srp-run lint: static speculation-safety checking. Returns the process
/// exit code. \p M is already parsed and verified.
int runLint(ir::Module &M, const Options &Opts) {
  // The standard pipeline in module mode up to specverify: the same
  // train run (and fuel) and promotion as a plain srp-run, then the
  // verifier over the promoted IR. --no-promote lints M as written. The
  // promoter's Steensgaard result serves the verifier and the taint
  // dataflow (promotion introduces no new memory objects, so the
  // pre-promotion points-to solution stays valid for the promoted IR).
  core::PipelineState S;
  S.External = &M;
  S.Config = Opts.Config;
  // taintflow too: --taint runs TaintFlow below, whose solver the
  // witnesses need.
  S.Config.DisabledPasses = {"taintflow", "lower", "regalloc", "simulate"};
  if (!Opts.Promote)
    S.Config.DisabledPasses.insert(S.Config.DisabledPasses.end(),
                                   {"profile", "promote"});
  core::PassManager PM;
  core::addStandardPasses(PM);
  if (!PM.run(S)) {
    errs() << S.Result.Error << '\n';
    return 2;
  }
  if (Opts.PrintIR) {
    outs() << "--- linted IR ---\n";
    ir::printModule(M, outs());
  }

  std::vector<analysis::SpecDiag> Diags = std::move(S.Result.SpecDiags);
  sortAndDedupe(Diags, [](const analysis::SpecDiag &D) {
    return std::tie(D.Line, D.Kind, D.Severity, D.FunctionName, D.BlockName,
                    D.StmtText, D.Message);
  });

  unsigned NumErrors = 0, NumWarnings = 0;
  for (const analysis::SpecDiag &D : Diags) {
    if (D.Severity == analysis::SpecDiagSeverity::Error)
      ++NumErrors;
    else
      ++NumWarnings;
    errs() << analysis::formatSpecDiag(D, Opts.InputPath) << '\n';
  }

  // --taint / --witness: the secret-taint dataflow over the linted IR,
  // cross-validated against the interpreter's shadow run for witnesses.
  unsigned NumRefuted = 0;
  if (Opts.Taint) {
    analysis::TaintFlowConfig TFC;
    TFC.AA = S.AA.get();
    analysis::TaintFlow TF(M, TFC);
    std::vector<analysis::TaintDiag> TDiags = TF.diags();
    sortAndDedupe(TDiags, [](const analysis::TaintDiag &D) {
      return std::tie(D.Line, D.Kind, D.FunctionName, D.BlockName,
                      D.StmtText, D.SpecMask, D.Message);
    });
    NumErrors += static_cast<unsigned>(TDiags.size());
    for (const analysis::TaintDiag &D : TDiags)
      errs() << analysis::formatTaintDiag(D, Opts.InputPath) << '\n';

    if (!Opts.WitnessDir.empty()) {
      // Dynamic side of the cross-check: shadow-taint interpretation of
      // the same IR. A trapping or main-less program simply contributes
      // no dynamic observations.
      interp::TaintTrace Dyn;
      bool HaveDyn = false;
      if (TF.hasSecrets() && M.findFunction("main")) {
        interp::Interpreter I(M);
        I.setTaintTrace(&Dyn);
        HaveDyn = I.run(S.Config.InterpFuel).Ok;
      }
      std::vector<analysis::Witness> Ws = analysis::buildWitnesses(
          M, TF, Diags, HaveDyn ? &Dyn : nullptr);
      for (const analysis::Witness &W : Ws)
        if (W.St == analysis::Witness::Status::Refuted)
          ++NumRefuted;
      ::mkdir(Opts.WitnessDir.c_str(), 0755); // existing dir is fine
      std::string Path =
          Opts.WitnessDir + "/" + inputStem(Opts.InputPath) + ".witness.json";
      std::FILE *File = std::fopen(Path.c_str(), "wb");
      if (!File) {
        errs() << "cannot write '" << Path << "'\n";
        return 2;
      }
      FileOStream OS(File);
      analysis::writeWitnesses(Ws, M, TF, OS);
      OS.flush();
      std::fclose(File);
      errs() << formatString("%s: wrote %zu witness(es), %u refuted\n",
                             Path.c_str(), Ws.size(), NumRefuted);
      NumErrors += NumRefuted;
    }
  }

  errs() << formatString("%s: %u error(s), %u warning(s)\n",
                         Opts.InputPath.c_str(), NumErrors, NumWarnings);
  if (NumErrors > 0 || (Opts.WarnAsError && NumWarnings > 0))
    return 1;
  return 0;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return false;
  char Buffer[4096];
  size_t N;
  while ((N = std::fread(Buffer, 1, sizeof(Buffer), File)) > 0)
    Out.append(Buffer, N);
  std::fclose(File);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc > 1 && std::strcmp(Argv[1], "passes") == 0)
    return listPasses();

  Options Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return 2;

  std::string Text;
  if (!readFile(Opts.InputPath, Text)) {
    errs() << "cannot read '" << Opts.InputPath << "'\n";
    return 2;
  }
  ir::Module M;
  std::string Error;
  if (!ir::parseModule(Text, M, Error)) {
    errs() << Opts.InputPath << ": " << Error << '\n';
    return 2;
  }
  std::vector<std::string> Errors = ir::verifyModule(M);
  if (!Errors.empty()) {
    for (const std::string &E : Errors)
      errs() << Opts.InputPath << ": " << E << '\n';
    return 2;
  }

  if (Opts.Lint)
    return runLint(M, Opts);

  // The standard pipeline in module mode: M is profiled (the train run,
  // which doubles as the oracle) and promoted in place.
  core::PipelineState S;
  S.External = &M;
  S.Config = Opts.Config;

  core::PassManager PM;
  core::addStandardPasses(PM);
  auto AfterPass = [&Opts, &M](const core::Pass &P,
                               core::PipelineState &St) {
    if (Opts.PrintIR && P.name() == "promote") {
      outs() << "--- promoted IR ---\n";
      ir::printModule(M, outs());
    }
    // After regalloc rather than lower, so physical registers show.
    if (Opts.PrintAsm && P.name() == "regalloc") {
      outs() << "--- ITA assembly ---\n";
      codegen::printMModule(*St.MM, outs());
    }
  };
  // The run's stats epoch: --stats describes this pipeline, not
  // everything the process recorded since startup (the registry is
  // cumulative and a long-lived embedder may have run many pipelines
  // before this one). The capture merges into the global registry when
  // it dies, so process totals still add up.
  ScopedStatsCapture Capture;
  bool Ok = PM.run(S, AfterPass);

  auto ReportObservability = [&Opts, &S, &M, &Capture] {
    if (!Opts.Stats)
      return;
    // Live arenas haven't published yet (stats normally post at arena
    // teardown); flush so the report sees real totals.
    M.arena().flushStats();
    if (S.MM)
      S.MM->arena().flushStats();
    errs() << "--- stats ---\n";
    Capture.captured().report(errs());
  };

  if (!Ok) {
    errs() << S.Result.Error << '\n';
    ReportObservability();
    return 1;
  }

  for (const std::string &Line : S.Result.Output)
    outs() << Line << '\n';
  if (S.HasProfile && S.Result.Output != S.OracleOutput) {
    errs() << "MISCOMPILE: simulated output diverges from the "
              "interpreter\n";
    return 1;
  }

  const arch::PerfCounters &C = S.Result.Sim.Counters;
  errs() << "---\n";
  errs() << formatString(
      "cycles %llu, instructions %llu, loads %llu, stores %llu\n",
      (unsigned long long)C.Cycles, (unsigned long long)C.Instructions,
      (unsigned long long)C.RetiredLoads,
      (unsigned long long)C.RetiredStores);
  errs() << formatString(
      "data-access stall cycles %llu, taken branches %llu, RSE cycles "
      "%llu\n",
      (unsigned long long)C.DataAccessCycles,
      (unsigned long long)C.TakenBranches,
      (unsigned long long)C.RseCycles);
  errs() << formatString(
      "ALAT checks %llu (failed %llu), chk.a recoveries %llu\n",
      (unsigned long long)C.AlatChecks,
      (unsigned long long)C.AlatCheckFailures,
      (unsigned long long)C.ChkARecoveries);
  const pre::PromotionStats &Stats = S.Result.Promotion;
  errs() << formatString(
      "promotion: %u exprs, %u loads removed (%u direct / %u indirect), "
      "%u checks, %u software pairs\n",
      Stats.PromotedExprs, Stats.loadsRemoved(), Stats.LoadsRemovedDirect,
      Stats.LoadsRemovedIndirect,
      Stats.ChecksInserted + Stats.CascadeChecks, Stats.SoftwareChecks);
  ReportObservability();
  return 0;
}
