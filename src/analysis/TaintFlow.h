//===- TaintFlow.h - Speculative secret-taint dataflow ----------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static, interprocedural secret-taint analysis over the HSSA object
/// table.
///
/// `secret`-annotated symbols (globals, formals, locals — see ir::Symbol::
/// Secret) are taint sources. The analysis propagates a two-part shadow
/// lattice per value:
///
///   Secret : bool      — derived from a secret symbol;
///   Spec   : uint64_t  — bitmask of the advanced-load sites (ld.a /
///                        ld.sa; interp::specSiteIndex assigns the bits)
///                        whose *unchecked* values the value depends on.
///
/// A value that is Secret with Spec != 0 is a secret observed inside a
/// speculative window: an advanced load produced it (or its address) and
/// no check has committed it yet. Such a value reaching an address
/// computation, a conditional branch, or a print statement is the leak
/// the paper's promotion discipline must not introduce — the ALAT check
/// is the commit point, and before it the value may be one the
/// architectural program never uses.
///
/// Propagation is flow-sensitive on temps (the checking loads ld.c /
/// chk.a re-define the promoted register, so the same temp is clean after
/// the check and speculative inside the window; a forward CFG dataflow
/// with OR-join captures exactly that) and flow-insensitive on memory
/// (one monotone shadow per symbol, weak updates only). Memory edges go
/// through the HSSA objects (ssa::ObjectTable, the table the HSSA form
/// builds on, without its χ/μ, φs and versions): each access level of a
/// load/store maps to its SSAObject, and virtual objects widen to their
/// points-to sets (Andersen by default). An access level whose points-to
/// set is empty falls back to a module-wide "wild" shadow so no store's
/// taint is ever dropped. Loads and stores in blocks unreachable from
/// the entry touch no memory.
///
/// The shadow rules mirror interp::Interpreter's dynamic taint mode
/// statement by statement, with the static side always over-approximating
/// (symbol-granular memory, all paths joined, calls context-insensitive).
/// Every leak the dynamic oracle can observe is therefore also derivable
/// statically; valid::DiffOracle cross-checks the two and reports a
/// static PASS with a dynamic leak as a disagreement.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_ANALYSIS_TAINTFLOW_H
#define SRP_ANALYSIS_TAINTFLOW_H

#include "interp/Interpreter.h"
#include "ir/CFG.h"

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace srp::alias {
class AliasAnalysis;
} // namespace srp::alias

namespace srp::analysis {

/// Which sink a speculative secret reached.
enum class TaintDiagKind : uint8_t {
  SpecSecretAddress, ///< Tainted speculative value formed an access address.
  SpecSecretBranch,  ///< ... decided a conditional branch.
  SpecSecretOutput,  ///< ... was printed.
};

/// Short lint-tag name, e.g. "spec-secret-address".
const char *taintDiagKindName(TaintDiagKind Kind);

/// One finding: a speculative secret reaching a sink.
struct TaintDiag {
  TaintDiagKind Kind = TaintDiagKind::SpecSecretAddress;
  std::string FunctionName;
  std::string BlockName;
  std::string StmtText;  ///< Offending statement (empty for bare branches).
  unsigned Line = 0;     ///< Source line in the .sir file; 0 if synthesised.
  uint64_t SpecMask = 0; ///< Advanced-load sites the value depended on.
  std::string Message;
};

/// Renders \p D as "file:line: error: message [tag]" plus a context line,
/// in the same shape as analysis::formatSpecDiag.
std::string formatTaintDiag(const TaintDiag &D, std::string_view File = {});

/// Knobs for one analysis run.
struct TaintFlowConfig {
  /// Points-to backing for the memory objects. When null the analysis
  /// builds its own alias::AndersenAnalysis.
  const alias::AliasAnalysis *AA = nullptr;
};

/// The analysis result. Construction runs the module fixpoint; the object
/// then answers shadow queries (the witness builder consumes these) and
/// owns the diagnostics.
class TaintFlow {
public:
  TaintFlow(ir::Module &M, const TaintFlowConfig &Config = {});
  ~TaintFlow();

  /// True if the module declares any secret symbol. When false the whole
  /// analysis is a no-op and diags() is empty.
  bool hasSecrets() const { return AnySecret; }

  /// All findings, in deterministic (function, block, statement) order.
  const std::vector<TaintDiag> &diags() const { return Diags; }

  /// Fixpoint shadow of a temp (the join over every program point, i.e.
  /// the temp's OUT state at its defining statements; monotone, so this
  /// is the weakest claim that holds somewhere).
  interp::Shadow tempShadow(const ir::Function *F, unsigned Temp) const;

  /// Site bit of an advanced-load statement (0 for anything else).
  uint64_t siteBitOf(const ir::Stmt *S) const;

  /// Name of the alias analysis backing the memory objects.
  const char *aliasName() const;

  /// The alias analysis the solve used (the witness builder reuses it so
  /// alias facts in witnesses match the verdicts).
  const alias::AliasAnalysis &aliasAnalysis() const { return *AA; }

  TaintFlow(const TaintFlow &) = delete;
  TaintFlow &operator=(const TaintFlow &) = delete;

private:
  friend class TaintSolver;

  bool AnySecret = false;
  std::vector<TaintDiag> Diags;
  /// Memory shadow per symbol id, plus the wild fallback.
  std::vector<interp::Shadow> SymShadow;
  interp::Shadow WildShadow;
  /// Final per-temp shadows per function (join of all OUT states).
  std::map<const ir::Function *, std::vector<interp::Shadow>> TempShadows;
  std::map<const ir::Stmt *, uint64_t> SiteBits;
  const alias::AliasAnalysis *AA = nullptr;
  std::unique_ptr<const alias::AliasAnalysis> OwnedAA;
};

} // namespace srp::analysis

#endif // SRP_ANALYSIS_TAINTFLOW_H
