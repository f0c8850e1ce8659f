//===- PipelineSupport.h - What the workloads share about pipelines -*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counter fingerprints for the correctness checks, the random program
/// generator of the .sir inputs, and the traced run of the standard
/// passes.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_PERFBENCH_PIPELINESUPPORT_H
#define SRP_PERFBENCH_PIPELINESUPPORT_H

#include "Bench.h"

#include "core/Pass.h"

namespace perfbench {

/// The deterministic counters of one pipeline result, in the
/// cycles/instructions/loads | exprs-loads_removed-checks form of the
/// repository's counter fingerprint, plus the verifier finding counts.
struct Fingerprint {
  uint64_t Cycles = 0, Instructions = 0, Loads = 0;
  uint64_t Exprs = 0, LoadsRemoved = 0, Checks = 0;
  uint64_t SpecDiags = 0, TaintDiags = 0;

  static Fingerprint of(const srp::core::PipelineResult &R);
  Fingerprint &operator+=(const Fingerprint &O);
  bool operator==(const Fingerprint &O) const = default;
  std::string str() const;
  /// The counters as named pass counts (Phase::PassCounts).
  std::map<std::string, uint64_t> counts() const;
};

/// One pass over the paper's 30-pipeline grid, as BENCH_pipeline.json
/// records it: 3701473 cycles / 5465971 instructions / 1277609 retired
/// loads, 122 promoted exprs / 275 loads removed / 23 checks.
Fingerprint recordedGridFingerprint();

/// Equality on the six recorded counters only (the grid declares no
/// secrets, and verifier findings are not part of the recorded form).
bool sameRecorded(const Fingerprint &A, const Fingerprint &B);

/// A default-shape fuzz::buildRandomProgram module with about a quarter
/// of its globals labelled `secret`, printed as .sir text. The default
/// shape keeps programs alike in size, so a corpus's cost barely depends
/// on the seed that drew it.
std::string randomProgramText(uint64_t Seed);

/// The standard pipeline's pass name -> the layer span it is recorded as.
const char *layerSpanForPass(const std::string &PassName);

/// Runs \p S through the standard passes, recording one span per pass
/// (as a child of the span open on \p T) and separate spans for the
/// alias, promotion, decode and execute entry points (see
/// PipelineSupport.cpp). Returns the PassManager's verdict; S.Result is
/// what an untraced run of the same state produces.
bool runTracedPasses(srp::core::PipelineState &S, Tracer &T);

} // namespace perfbench

#endif // SRP_PERFBENCH_PIPELINESUPPORT_H
