//===- Pipeline.cpp - The speculative register promotion pipeline ------------===//
//
// runPipeline is a pass composition now: the phases of the old monolithic
// implementation live as named passes in Passes.cpp, sequenced by the
// PassManager (core/Pass.h) with per-pass timing and disable plumbing.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"

#include "core/Pass.h"
#include "interp/Interpreter.h"
#include "support/StringUtils.h"

using namespace srp;
using namespace srp::core;

std::string srp::core::validatePipelineConfig(const PipelineConfig &Config) {
  const arch::AlatConfig &A = Config.Sim.Alat;
  if (A.Entries == 0)
    return "ALAT must have at least one entry (--alat-entries)";
  if (A.Ways == 0)
    return "ALAT associativity must be at least 1 (--alat-ways)";
  if (A.Ways > A.Entries)
    return formatString("ALAT associativity (%u) exceeds entry count (%u)",
                        A.Ways, A.Entries);
  if (A.Entries % A.Ways != 0)
    return formatString("ALAT entry count (%u) is not a multiple of the "
                        "associativity (%u)",
                        A.Entries, A.Ways);
  if (A.PartialTagBits == 0 || A.PartialTagBits > 63)
    return formatString("ALAT partial tag width (%u) must be in [1, 63]",
                        A.PartialTagBits);
  if (Config.Sim.IssueWidth == 0)
    return "issue width must be at least 1";
  if (Config.Sim.MaxInstructions == 0)
    return "simulator instruction budget must be positive";
  if (Config.InterpFuel == 0)
    return "interpreter fuel must be positive";
  return "";
}

PipelineConfig srp::core::configFor(const pre::PromotionConfig &Promotion) {
  PipelineConfig C;
  C.Promotion = Promotion;
  return C;
}

std::vector<std::string> srp::core::oracleOutput(const Workload &W,
                                                 uint64_t Fuel) {
  ir::Module M;
  W.Build(M, W.RefScale);
  for (unsigned I = 0; I < M.numFunctions(); ++I)
    M.function(I)->recomputeCFG();
  interp::Interpreter Interp(M);
  interp::RunResult R = Interp.run(Fuel);
  return R.Output;
}

PipelineResult srp::core::runPipeline(const Workload &W,
                                      const PipelineConfig &Config,
                                      ProfileCache *PC) {
  PipelineState S;
  S.W = &W;
  S.Config = Config;
  S.ProfCache = PC;
  PassManager PM;
  addStandardPasses(PM);
  PM.run(S);
  return std::move(S.Result);
}
