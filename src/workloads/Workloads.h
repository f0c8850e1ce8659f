//===- Workloads.h - Synthetic SPEC CPU2000-like programs -------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ten synthetic pointer-intensive workloads standing in for the SPEC
/// CPU2000 benchmarks of the paper's evaluation (§4). What speculative
/// register promotion exploits is dynamic alias behaviour, so each
/// workload is engineered to exhibit its namesake's reported character:
///
///   ammp / art / equake — floating-point dominated (9-cycle FP loads);
///   ammp / gzip / mcf / parser — reductions dominated by indirect loads
///   (Figure 9); gzip — a small but visible mis-speculation ratio
///   (Figure 10, ~5%); the rest — integer codes with mostly-direct
///   promotable references.
///
/// Workload contract: Build(M, Scale) must produce the same code shape
/// for every scale (only data constants change), so the train and ref
/// builds share function, block and statement ids and the pipeline
/// applies train profiles, keyed by those ids, to the ref build as they
/// are.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_WORKLOADS_WORKLOADS_H
#define SRP_WORKLOADS_WORKLOADS_H

#include "core/Pipeline.h"

#include <vector>

namespace srp::workloads {

core::Workload ammpWorkload();   ///< FP molecular dynamics, indirect FP.
core::Workload artWorkload();    ///< FP neural net, array weights.
core::Workload equakeWorkload(); ///< FP sparse matvec, indexed indirection.
core::Workload bzip2Workload();  ///< Block sort, direct arrays.
core::Workload gzipWorkload();   ///< Compression, hash chains, ~5% misspec.
core::Workload mcfWorkload();    ///< Network simplex, pointer chasing.
core::Workload parserWorkload(); ///< Dictionary linked lists.
core::Workload twolfWorkload();  ///< Annealing over cell records.
core::Workload vortexWorkload(); ///< OO database records + helper calls.
core::Workload vprWorkload();    ///< Placement grid, direct accumulation.

/// All ten, in the order the paper's figures list them.
std::vector<core::Workload> standardWorkloads();

} // namespace srp::workloads

#endif // SRP_WORKLOADS_WORKLOADS_H
