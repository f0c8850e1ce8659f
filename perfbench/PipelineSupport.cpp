//===- PipelineSupport.cpp - What the workloads share about pipelines ----------===//
//
// runTracedPasses is the traced counterpart of core::runPipeline and of
// srp-run's PassManager run.
// Pass boundaries come from core::PassManager's after-pass callback. Two
// passes wrap two layers each, so their layer entry points are called
// from the callbacks instead, each under its own span:
//
//   promote  = alias::*Analysis (alias)  + pre::promoteModule (pre.promote)
//              + ir::verifyModule (ir.verify)
//   simulate = arch::DecodedModule (arch.decode) + arch::simulate
//              (arch.execute; the simulate pass skips decoding when the
//              state already holds the stream)
//
// The standard promote pass is disabled for the traced run and its body
// is reproduced verbatim after the profile pass. The benchmark checks
// that traced ops give the same counters as untraced ones, so a drift
// between this copy and core/Passes.cpp shows up as failed ops.
//
//===----------------------------------------------------------------------===//

#include "PipelineSupport.h"

#include "alias/AliasAnalysis.h"
#include "alias/Andersen.h"
#include "fuzz/Fuzzer.h"
#include "fuzz/RandomProgram.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "pre/Promoter.h"
#include "support/StringUtils.h"

using namespace srp;

const char *perfbench::layerSpanForPass(const std::string &PassName) {
  static const std::pair<const char *, const char *> Map[] = {
      {"build", "ir.build"},
      {"profile", "interp.profile"},
      {"promote", "pre.promote"},
      {"specverify", "analysis.specverify"},
      {"taintflow", "analysis.taintflow"},
      {"lower", "codegen.lower"},
      {"regalloc", "codegen.regalloc"},
      {"simulate", "arch.execute"},
  };
  for (const auto &[Pass, SpanName] : Map)
    if (PassName == Pass)
      return SpanName;
  return "core.unknown_pass";
}

perfbench::Fingerprint
perfbench::Fingerprint::of(const core::PipelineResult &R) {
  Fingerprint F;
  F.Cycles = R.Sim.Counters.Cycles;
  F.Instructions = R.Sim.Counters.Instructions;
  F.Loads = R.Sim.Counters.RetiredLoads;
  F.Exprs = R.Promotion.PromotedExprs;
  F.LoadsRemoved = R.Promotion.loadsRemoved();
  F.Checks = R.Promotion.ChecksInserted + R.Promotion.CascadeChecks;
  F.SpecDiags = R.SpecDiags.size();
  F.TaintDiags = R.TaintDiags.size();
  return F;
}

perfbench::Fingerprint &
perfbench::Fingerprint::operator+=(const Fingerprint &O) {
  Cycles += O.Cycles;
  Instructions += O.Instructions;
  Loads += O.Loads;
  Exprs += O.Exprs;
  LoadsRemoved += O.LoadsRemoved;
  Checks += O.Checks;
  SpecDiags += O.SpecDiags;
  TaintDiags += O.TaintDiags;
  return *this;
}

std::string perfbench::Fingerprint::str() const {
  return formatString("%llu/%llu/%llu|%llu-%llu-%llu",
                      (unsigned long long)Cycles,
                      (unsigned long long)Instructions,
                      (unsigned long long)Loads, (unsigned long long)Exprs,
                      (unsigned long long)LoadsRemoved,
                      (unsigned long long)Checks);
}

std::map<std::string, uint64_t> perfbench::Fingerprint::counts() const {
  return {{"sim.cycles", Cycles},
          {"sim.instructions", Instructions},
          {"sim.retired_loads", Loads},
          {"promotion.exprs", Exprs},
          {"promotion.loads_removed", LoadsRemoved},
          {"promotion.checks", Checks},
          {"spec_diags", SpecDiags},
          {"taint_diags", TaintDiags}};
}

perfbench::Fingerprint perfbench::recordedGridFingerprint() {
  Fingerprint F;
  F.Cycles = 3701473;
  F.Instructions = 5465971;
  F.Loads = 1277609;
  F.Exprs = 122;
  F.LoadsRemoved = 275;
  F.Checks = 23;
  return F;
}

bool perfbench::sameRecorded(const Fingerprint &A, const Fingerprint &B) {
  return A.Cycles == B.Cycles && A.Instructions == B.Instructions &&
         A.Loads == B.Loads && A.Exprs == B.Exprs &&
         A.LoadsRemoved == B.LoadsRemoved && A.Checks == B.Checks;
}

std::string perfbench::randomProgramText(uint64_t Seed) {
  ir::Module M;
  fuzz::buildRandomProgram(M, Seed);
  fuzz::labelRandomSecrets(M, Seed ^ 0x5ec4e7);
  return ir::moduleToString(M);
}

bool perfbench::runTracedPasses(core::PipelineState &S, Tracer &T) {
  S.Config.DisabledPasses.push_back("promote");
  core::PassManager PM;
  core::addStandardPasses(PM);

  std::string PromoteError;
  uint64_t Mark = nowNs();
  auto AfterPass = [&T, &Mark, &PromoteError](const core::Pass &P,
                                              core::PipelineState &St) {
    uint64_t End = nowNs();
    std::string Name(P.name());
    T.record(layerSpanForPass(Name), Mark, End);
    if (Name == "profile") {
      ir::Module &M = St.module();
      {
        SpanScope A(T, "alias");
        if (St.Config.UseAndersen)
          St.AA = std::make_unique<alias::AndersenAnalysis>(M);
        else
          St.AA = std::make_unique<alias::SteensgaardAnalysis>(M);
      }
      const interp::AliasProfile *AP =
          (St.HasProfile && St.Config.UseAliasProfile) ? &St.AliasProf
                                                       : nullptr;
      const interp::EdgeProfile *EP =
          (St.HasProfile && St.Config.UseEdgeProfile) ? &St.EdgeProf : nullptr;
      {
        SpanScope Promote(T, "pre.promote");
        St.Result.Promotion = pre::promoteModule(
            M, *St.AA, AP, EP, St.Config.Promotion, &St.analyses());
      }
      SpanScope V(T, "ir.verify");
      std::vector<std::string> Errors = ir::verifyModule(M);
      if (!Errors.empty())
        PromoteError = "post-promotion verification failed: " + Errors[0];
    } else if (Name == "regalloc") {
      SpanScope D(T, "arch.decode");
      St.Decoded = std::make_unique<arch::DecodedModule>(*St.MM);
    }
    Mark = nowNs();
  };
  bool Ok = PM.run(S, AfterPass);
  S.Config.DisabledPasses.pop_back();
  if (Ok && !PromoteError.empty()) {
    S.Result.Ok = false;
    S.Result.Error = PromoteError;
    return false;
  }
  return Ok;
}
