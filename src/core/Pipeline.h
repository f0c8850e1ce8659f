//===- Pipeline.h - The speculative register promotion pipeline -*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end flow of the paper's evaluation (§4): run a module on
/// its *train* input collecting alias and edge profiles, apply PRE-based
/// register promotion under a chosen strategy, lower to ITA machine code,
/// and simulate the *ref* input, reporting the pfmon-style counters.
///
/// The usual experiment runs the same workload under two or more
/// strategies and compares counters — core::runExperiments
/// (core/Experiment.h) runs such a grid.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_CORE_PIPELINE_H
#define SRP_CORE_PIPELINE_H

#include "analysis/SpecVerifier.h"
#include "analysis/TaintFlow.h"
#include "arch/Simulator.h"
#include "codegen/RegAlloc.h"
#include "pre/Promotion.h"

#include <functional>
#include <string>
#include <vector>

namespace srp::ir {
class Module;
} // namespace srp::ir

namespace srp::core {

/// A workload is a builder producing a fresh module for a given input
/// scale (the pipeline compiles the train build and the ref build
/// separately, exactly like a profile-feedback compiler would).
struct Workload {
  std::string Name;
  /// Builds the program; \p Scale selects the input size.
  std::function<void(ir::Module &, uint64_t Scale)> Build;
  uint64_t TrainScale = 1;
  uint64_t RefScale = 4;
  bool FloatingPoint = false; ///< FP-dominated (ammp/art/equake class).
};

/// How the pipeline treats analysis::SpecVerifier findings on the
/// promoted IR. Warn collects them in PipelineResult::SpecDiags; Fatal
/// additionally fails the pipeline on any error-severity finding (tests
/// run Fatal; benches keep Warn so geometry ablations that provoke the
/// capacity lint still measure).
enum class SpecVerifyMode : uint8_t { Warn, Fatal };

/// Everything the pipeline can be configured with.
struct PipelineConfig {
  pre::PromotionConfig Promotion;
  arch::SimConfig Sim;
  codegen::RegAllocOptions RegAlloc;
  SpecVerifyMode SpecVerify = SpecVerifyMode::Warn;
  /// How the taintflow pass treats analysis::TaintFlow findings on the
  /// promoted IR of a secret-labeled module (same scale as SpecVerify;
  /// the pass is a cheap no-op when the module declares no secrets).
  SpecVerifyMode TaintCheck = SpecVerifyMode::Warn;
  bool UseAliasProfile = true; ///< Feed the train alias profile back.
  bool UseEdgeProfile = true;
  /// Use the inclusion-based Andersen analysis instead of Steensgaard
  /// (the precision ablation: how much would a better static analysis
  /// already buy without speculation?).
  bool UseAndersen = false;
  uint64_t InterpFuel = 400'000'000;
  /// Pass names the manager skips (srp-run --disable-pass plumbing; see
  /// core/Pass.h for the standard names). Disabling a pass a later pass
  /// depends on fails that later pass with a diagnostic, not a crash.
  std::vector<std::string> DisabledPasses;
};

/// One compiled-and-simulated run.
struct PipelineResult {
  bool Ok = false;
  std::string Error;
  std::vector<std::string> Output;   ///< Simulated program output.
  arch::SimResult Sim;               ///< Counters etc.
  pre::PromotionStats Promotion;     ///< What the compiler did.
  codegen::RegAllocStats RegAlloc;
  unsigned MaxStackedRegs = 0;       ///< Largest register-stack frame.
  /// SpecVerifier findings on the promoted IR (empty when the discipline
  /// holds).
  std::vector<analysis::SpecDiag> SpecDiags;
  /// TaintFlow findings on the promoted IR (empty when no speculative
  /// secret reaches a sink).
  std::vector<analysis::TaintDiag> TaintDiags;
};

class ProfileCache; // ProfileCache.h

/// Compiles \p W with \p Config and simulates the ref input. The module
/// is rebuilt from scratch for both the train and ref phases. \p PC, if
/// given, memoizes the train-run profile across pipelines of the same
/// workload (ProfileCache.h).
PipelineResult runPipeline(const Workload &W, const PipelineConfig &Config,
                           ProfileCache *PC = nullptr);

/// Runs the interpreter directly on the ref build (the oracle).
std::vector<std::string> oracleOutput(const Workload &W, uint64_t Fuel =
                                                             400'000'000);

/// Convenience: builds a PipelineConfig for one of the paper's three
/// strategies with everything else at defaults.
PipelineConfig configFor(const pre::PromotionConfig &Promotion);

/// Checks \p Config for values the pipeline cannot run with (zero-entry
/// ALAT, more ways than entries, degenerate tag widths, zero fuel, ...).
/// Returns an empty string when valid, else a diagnostic. BuildPass runs
/// this first, so a bad config fails the pipeline with
/// PipelineResult::Error instead of tripping an assert deep in the
/// simulator — user-facing tools (srp-run, srp-fuzz) rely on that.
std::string validatePipelineConfig(const PipelineConfig &Config);

} // namespace srp::core

#endif // SRP_CORE_PIPELINE_H
