//===- Experiment.h - Parallel workload×strategy driver ---------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The experiment driver behind the bench fleet. Every figure and
/// ablation runs the same shape of job — a list of workload×config
/// pipelines — so the driver takes that list and runs each entry as an
/// independent pipeline on a std::thread pool.
///
/// Determinism: a pipeline run is a pure function of (workload, config) —
/// each worker owns its PipelineState (modules, profiles, analyses; see
/// core/Pass.h), and results are deposited by input index.
/// The returned results are therefore byte-identical for any thread
/// count, including 1 (asserted by tests/ExperimentTest.cpp). Pass wall
/// times go to the stats registry, not into the results.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_CORE_EXPERIMENT_H
#define SRP_CORE_EXPERIMENT_H

#include "core/Pipeline.h"

#include <functional>

namespace srp::core {

/// Runs Fn(0..N-1) on up to \p Threads workers (1 or 0 runs serially in
/// the calling thread). Same work-stealing pool as runExperiments: the
/// schedule is nondeterministic, so Fn must own all its state apart from
/// depositing into an index-addressed slot. Blocks until every index has
/// run. The fuzzing driver (fuzz::runFuzzer) and the differential oracle
/// batches are built on this.
void parallelFor(unsigned Threads, size_t N,
                 const std::function<void(size_t)> &Fn);

/// One workload×config pipeline to run.
struct Experiment {
  const Workload *W = nullptr;
  PipelineConfig Config;
  /// Free-form tag for reporting (strategy name, ablation point, ...).
  std::string Label;
};

struct ExperimentOptions {
  /// Worker threads; 1 (or 0) runs serially in the calling thread. More
  /// workers than experiments are not spawned.
  unsigned Threads = 1;
  /// Additionally interpret the ref build and mark results whose
  /// simulated output diverges as failed (the bench-fleet correctness
  /// gate; costs one interpreter run per experiment).
  bool CheckOracle = false;
};

/// Runs every experiment and returns the results in input order,
/// independent of Threads.
std::vector<PipelineResult> runExperiments(const std::vector<Experiment> &Exps,
                                           const ExperimentOptions &Opts = {});

} // namespace srp::core

#endif // SRP_CORE_EXPERIMENT_H
