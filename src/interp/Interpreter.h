//===- Interpreter.h - IR execution and profiling ---------------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a Module: each run decodes it into a flat op array and runs
/// that (Interpreter.cpp, DESIGN.md §9a). The interpreter is (a) the
/// correctness oracle the differential tests compare every compiled
/// configuration against, and (b) the profiling vehicle: with profiles
/// attached it records per-site alias targets (train run) and edge
/// counts.
///
/// The memory layout (globals / stack / heap bases) matches the simulator
/// so that address-dependent behaviour cannot diverge between the oracle
/// and compiled code.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_INTERP_INTERPRETER_H
#define SRP_INTERP_INTERPRETER_H

#include "interp/Profile.h"
#include "ir/CFG.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace srp::interp {

/// Shared address-space constants (also used by the simulator's loader).
namespace layout {
inline constexpr uint64_t GlobalBase = 0x0000000000010000ULL;
inline constexpr uint64_t StackBase = 0x0000000040000000ULL; ///< grows down
inline constexpr uint64_t HeapBase = 0x0000000080000000ULL;  ///< grows up
/// Address-space bytes an object of \p Bytes takes: every global and
/// heap object starts on a 64-byte boundary.
constexpr uint64_t objectSpan(uint64_t Bytes) {
  return (Bytes + 63) & ~63ULL;
}
} // namespace layout

/// Outcome of one interpreted run.
struct RunResult {
  bool Ok = false;
  std::string Error;                ///< Set when !Ok (trap, fuel, ...).
  std::vector<std::string> Output;  ///< One entry per executed print.
  /// Counts up to the end of the run or the trap; a trapping statement
  /// counts, with every load of its reference chain.
  uint64_t StmtsExecuted = 0;
  uint64_t LoadsExecuted = 0;
  uint64_t StoresExecuted = 0;
  int64_t ExitValue = 0;            ///< main's return value (0 if void).
};

class AlatObserver;

/// Observable memory behaviour of one run, filled when a trace sink is
/// attached (Interpreter::setMemTrace). The differential oracle
/// (valid::DiffOracle) compares promoted against unpromoted runs on this:
/// final memory state, and — for the SNIP-style non-interference check —
/// which objects speculative (advanced-flagged) loads observed.
struct MemTrace {
  struct Access {
    uint64_t Addr = 0;
    /// Symbol whose storage the access landed in, or
    /// AliasProfile::UnknownTarget for an address outside every object.
    unsigned Symbol = 0;
    bool IsLoad = false;
    /// True for loads executed under an advanced flag (ld.a / ld.sa),
    /// including the pointer-chain dereferences such a load performs:
    /// these may execute with a value the architectural program would
    /// not have used, so their addresses are the speculative
    /// observations promotion introduces.
    bool Speculative = false;
  };
  std::vector<Access> Accesses;
  /// Final value of every global cell after the run, in declaration
  /// order (each global contributes NumElems consecutive cells).
  std::vector<uint64_t> FinalGlobals;
};

/// Shadow taint of one runtime value (a temp or an 8-byte memory cell).
/// Secret marks data derived from a `secret`-annotated symbol; Spec is a
/// bitmask of the advanced-load sites (see specSiteIndex) whose unchecked
/// values the data depends on — nonzero means "speculative". A value that
/// is both secret and speculative reaching an address computation, branch
/// condition, or program output is a speculative leak.
struct Shadow {
  bool Secret = false;
  uint64_t Spec = 0;

  void merge(const Shadow &O) {
    Secret |= O.Secret;
    Spec |= O.Spec;
  }
  bool leaks() const { return Secret && Spec != 0; }
};

/// Dynamic taint observations of one run, filled when attached with
/// Interpreter::setTaintTrace. The shadow propagation intentionally
/// *under*-approximates information flow (no implicit flows through
/// branches, fresh frames reset slot taint) so that every recorded leak
/// is also derivable by the static analysis::TaintFlow over-approximation
/// — the two sides audit each other (valid::DiffOracle reports a static
/// PASS with a dynamic leak as a disagreement finding).
struct TaintTrace {
  enum class Sink : uint8_t {
    Address, ///< Tainted speculative value formed a memory-access address.
    Branch,  ///< ... decided a conditional branch.
    Output,  ///< ... was printed.
  };

  struct Leak {
    Sink S = Sink::Address;
    std::string Function;
    unsigned Line = 0;    ///< Stmt::Line (0 for synthesised IR / branches).
    uint64_t SpecMask = 0; ///< Advanced-load sites the value depended on.
  };
  /// Deduplicated by (function, line, sink); masks of repeats are merged.
  std::vector<Leak> Leaks;
};

const char *taintSinkName(TaintTrace::Sink S);

/// Deterministic indexing of the module's advanced-load sites (ld.a /
/// ld.sa statements, in function/block/statement order): the bit each
/// site owns in Shadow::Spec masks. Sites past 63 share bit 63. Both the
/// interpreter's shadow propagation and analysis::TaintFlow use this, so
/// their masks are comparable.
std::vector<std::pair<const ir::Stmt *, unsigned>>
specSiteIndex(const ir::Module &M);

/// The IR executor. Attaching nothing runs the plain oracle; the hooks
/// it checks are fixed at the start of each run.
class Interpreter {
public:
  explicit Interpreter(const ir::Module &M) : M(M) {}

  /// Attaches an alias profile to fill during subsequent runs.
  void setAliasProfile(AliasProfile *Profile) { AP = Profile; }

  /// Attaches an edge profile to fill during subsequent runs.
  void setEdgeProfile(EdgeProfile *Profile) { EP = Profile; }

  /// Attaches an ALAT observer (see AlatObserver.h) that replays the
  /// run's speculation against an adversarial hardware model.
  void setAlatObserver(AlatObserver *Observer) { AO = Observer; }

  /// Attaches a memory-trace sink recording every access and the final
  /// global state (cleared at the start of each run).
  void setMemTrace(MemTrace *Trace) { MT = Trace; }

  /// Attaches a taint-trace sink: the run shadow-propagates secret/
  /// speculative bits through temps and memory cells and records every
  /// speculative-leak sink it executes (cleared at the start of each
  /// run). Costs nothing when unset.
  void setTaintTrace(TaintTrace *Trace) { TT = Trace; }

  /// Runs main() on fresh memory with \p Fuel units: one per block entry
  /// and one per statement, charged before each.
  RunResult run(uint64_t Fuel = 100'000'000);

private:
  const ir::Module &M;
  AliasProfile *AP = nullptr;
  EdgeProfile *EP = nullptr;
  AlatObserver *AO = nullptr;
  MemTrace *MT = nullptr;
  TaintTrace *TT = nullptr;
};

} // namespace srp::interp

#endif // SRP_INTERP_INTERPRETER_H
