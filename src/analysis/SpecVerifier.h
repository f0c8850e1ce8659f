//===- SpecVerifier.h - Speculation-safety static checks --------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static verification of the ALAT-speculation invariants the promoted IR
/// must uphold (the compiler obligations §2.3–§2.5 of the paper assume and
/// Alat.h's model documents). ir::Verifier checks structure and types;
/// SpecVerifier checks the *speculation discipline*:
///
///   E1 UnanchoredCheck    — every checking load (ld.c / chk.a) must be
///       preceded on every CFG path by a matching anchor for the same
///       promoted register: an advanced load (ld.a / ld.sa), an st.a that
///       arms its entry, or an invala.e that guarantees a clean miss. On
///       real IA-64 hardware an unanchored check can hit a stale entry
///       left by an unrelated use of the register.
///   E2 ClobberedRegister  — between arming and checking, the promoted
///       register must not be redefined by an unflagged statement: a
///       subsequent check could hit and keep the clobbered value.
///   E3 MalformedRecovery  — chk.a needs a depth-1 reference and a saved
///       chain pointer so lowering can materialise the recovery block that
///       re-executes the advanced load and its cascaded loads (§2.4);
///       indirect ld.c needs a saved address, and every saved address must
///       be defined on all paths; all speculative statements for one
///       register must agree on the promoted lexical expression.
///   E4 StaleCheckAddress  — a checking load that reuses a saved address
///       (Stmt::AddrSrc) is only sound while the address part of the
///       reference is unchanged; a may-aliasing store to the pointer cell
///       between the advanced load and the check invalidates that.
///       Requires an alias analysis (SpecVerifyConfig::AA).
///   W1 OverCapacity       — a region keeping more may-live ALAT entries
///       than the table holds makes capacity evictions (and hence check
///       misses) certain; reported as a warning since it is a performance
///       bug, not a correctness bug.
///
/// The pass runs on post-promotion IR (core/Pipeline runs it after the
/// Promoter) and requires up-to-date CFG edges (Function::recomputeCFG).
///
//===----------------------------------------------------------------------===//

#ifndef SRP_ANALYSIS_SPECVERIFIER_H
#define SRP_ANALYSIS_SPECVERIFIER_H

#include "arch/Alat.h"

#include <string>
#include <string_view>
#include <vector>

namespace srp::ir {
class Module;
} // namespace srp::ir

namespace srp::alias {
class AliasAnalysis;
} // namespace srp::alias

namespace srp::analysis {

/// Which invariant a diagnostic reports.
enum class SpecDiagKind : uint8_t {
  UnanchoredCheck,   ///< E1: check not dominated by an anchor.
  ClobberedRegister, ///< E2: unflagged redefinition before a check.
  MalformedRecovery, ///< E3: chk.a / saved-address plumbing broken.
  StaleCheckAddress, ///< E4: saved check address may be stale.
  OverCapacity,      ///< W1: live entries exceed the ALAT size.
};

/// Returns a short lint-tag name, e.g. "unanchored-check".
const char *specDiagKindName(SpecDiagKind Kind);

/// Errors are correctness violations; warnings predict misspeculation.
enum class SpecDiagSeverity : uint8_t { Error, Warning };

/// One finding, with enough location material for file:line output.
struct SpecDiag {
  SpecDiagKind Kind = SpecDiagKind::UnanchoredCheck;
  SpecDiagSeverity Severity = SpecDiagSeverity::Error;
  std::string FunctionName;
  std::string BlockName;
  std::string StmtText; ///< Offending statement (empty for region diags).
  unsigned Line = 0;    ///< Source line in the .sir file; 0 if synthesised.
  std::string Message;
};

/// Knobs for one verification run.
struct SpecVerifyConfig {
  /// Capacity threshold for W1; defaults to the modelled ALAT geometry.
  unsigned AlatEntries = arch::AlatConfig().Entries;
  /// Enables E4 (stale saved addresses). Pass the same analysis the
  /// promoter used so the verdicts agree on what may alias.
  const alias::AliasAnalysis *AA = nullptr;
};

/// Verifies every function of \p M; returns all findings (empty when the
/// module upholds the speculation discipline).
std::vector<SpecDiag> verifySpeculation(const ir::Module &M,
                                        const SpecVerifyConfig &Config = {});

/// True if any finding is an error.
bool hasSpecErrors(const std::vector<SpecDiag> &Diags);

/// Renders \p D as "file:line: severity: message [tag]" with a trailing
/// context line. \p File may be empty (tests, pipeline-internal IR).
std::string formatSpecDiag(const SpecDiag &D, std::string_view File = {});

} // namespace srp::analysis

#endif // SRP_ANALYSIS_SPECVERIFIER_H
