//===- Pass.h - Pass interface and pass manager -----------------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pipeline as an explicit pass composition. A Pass is one named,
/// individually timed and disableable step of the paper's flow
/// (profile → promote → verify → lower → allocate → simulate); the
/// PassManager runs a sequence of them over a PipelineState, recording
/// each pass's wall time in the StatsRegistry as pass.<name>.us, and
/// honouring PipelineConfig::DisabledPasses.
///
/// PipelineState carries everything the passes hand to each other:
/// the modules, the profiles, the alias analysis and the machine module.
/// The state is per-pipeline: the parallel experiment driver
/// (core::runExperiments) runs one PipelineState per worker with no
/// shared mutable data, which is what makes its results independent of
/// the thread count.
///
/// Two input modes, selected by which field of PipelineState is set:
///  * workload mode (W): the evaluation flow — build the train and ref
///    modules, profile the train module, promote the ref module with
///    those profiles (both builds share the ids they are keyed by),
///    simulate (used by runPipeline and the benches);
///  * module mode (External): an existing module is profiled and
///    transformed in place, and the train run doubles as the oracle
///    (used by srp-run on .sir files).
///
//===----------------------------------------------------------------------===//

#ifndef SRP_CORE_PASS_H
#define SRP_CORE_PASS_H

#include "core/Pipeline.h"
#include "core/ProfileCache.h"

#include "alias/AliasAnalysis.h"
#include "arch/Decoded.h"
#include "codegen/MIR.h"
#include "interp/Profile.h"
#include "ir/CFG.h"
#include "pre/Promoter.h"

#include <functional>
#include <memory>
#include <string_view>

namespace srp::core {

/// The state a pipeline run threads through its passes. Self-contained:
/// holds its own modules, profiles and analyses, so concurrent
/// pipelines never share mutable data.
struct PipelineState {
  // Inputs — exactly one of W (workload mode) / External (module mode).
  const Workload *W = nullptr;
  ir::Module *External = nullptr;
  PipelineConfig Config;
  /// Optional, workload mode: memoized train-run profiles shared across
  /// the pipelines of one experiment grid (see ProfileCache.h). Null
  /// runs the train interpretation unconditionally.
  ProfileCache *ProfCache = nullptr;

  // Intermediate products, owned here. In workload mode RefModule is the
  // module being compiled; module mode transforms *External in place.
  ir::Module TrainModule;
  ir::Module RefModule;
  /// The train run's profiles. Their keys are ids (interp/Profile.h),
  /// which module() shares with the train module in workload mode.
  interp::AliasProfile AliasProf;
  interp::EdgeProfile EdgeProf;
  bool HasProfile = false; ///< profile pass ran (it may be disabled)
  std::unique_ptr<alias::AliasAnalysis> AA;
  std::unique_ptr<codegen::MModule> MM;
  /// Decode-once micro-op stream for MM (Decoded.h). Built by the
  /// simulate pass and kept on the state so later consumers of the same
  /// binary — valid::DiffOracle's fault-plan re-simulations, drivers
  /// re-running configs — reuse the stream instead of re-decoding. MM
  /// is immutable once regalloc has run, so the stream never goes
  /// stale; anything that *did* rebuild MM must drop this with it.
  std::unique_ptr<arch::DecodedModule> Decoded;
  /// Module mode only: the train run's output (the correctness oracle).
  std::vector<std::string> OracleOutput;

  PipelineResult Result;

  /// The module the compiling passes operate on.
  ir::Module &module() { return External ? *External : RefModule; }

  /// Ignored by promoteModule; kept only for
  /// perfbench/PipelineSupport.cpp:152 (see ssa::AnalysisCache).
  ssa::AnalysisCache &analyses() {
    static ssa::AnalysisCache None;
    return None;
  }
};

/// One named step of the pipeline.
class Pass {
public:
  virtual ~Pass() = default;

  /// Stable identifier, used by --disable-pass, the pass.<name>.us
  /// stats key and the `srp-run passes` listing.
  virtual std::string_view name() const = 0;

  /// One-line description for the `srp-run passes` listing.
  virtual std::string_view description() const = 0;

  /// Runs the pass. On failure returns false with
  /// \p S.Result.Error set to a diagnostic.
  virtual bool run(PipelineState &S) = 0;
};

/// Runs an ordered pass sequence over one PipelineState.
class PassManager {
public:
  /// Called after each pass that ran (not after disabled ones); lets
  /// drivers attach reporting such as srp-run's --print-ir.
  using PassCallback = std::function<void(const Pass &, PipelineState &)>;

  void add(std::unique_ptr<Pass> P) { Passes.push_back(std::move(P)); }

  /// Registered pass names, in run order.
  std::vector<std::string> passNames() const;

  /// The pass named \p Name, or null.
  const Pass *find(std::string_view Name) const;

  /// Runs every pass not listed in S.Config.DisabledPasses, in order.
  /// Each pass's wall time is added to StatsRegistry::current() under
  /// "pass.<name>.us", a failed pass's included. Stops at the first
  /// failing pass (S.Result.Error names it); on success sets
  /// S.Result.Ok.
  bool run(PipelineState &S, const PassCallback &AfterPass = nullptr);

private:
  std::vector<std::unique_ptr<Pass>> Passes;
};

/// Registers the standard pipeline (see DESIGN.md §3a):
/// build, profile, promote, specverify, lower, regalloc, simulate.
void addStandardPasses(PassManager &PM);

/// Names of the standard passes, in run order.
std::vector<std::string> standardPassNames();

} // namespace srp::core

#endif // SRP_CORE_PASS_H
