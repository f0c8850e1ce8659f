//===- Passes.cpp - The standard pipeline passes -------------------------------===//
//
// The paper's evaluation flow (§4) as individual passes. Each pass is the
// verbatim successor of one phase of the old monolithic runPipeline; the
// behavioural contract (verification points, error messages, profile
// remapping) is unchanged.
//
//===----------------------------------------------------------------------===//

#include "core/Pass.h"

#include "alias/AliasAnalysis.h"
#include "alias/Andersen.h"
#include "codegen/Lowering.h"
#include "interp/Interpreter.h"
#include "ir/Verifier.h"
#include "pre/Promoter.h"

#include <algorithm>

using namespace srp;
using namespace srp::core;

namespace {

/// Builds (workload mode) or adopts (module mode) the modules and
/// verifies them. Workload mode also checks the documented contract that
/// the train and ref builds have the same code shape.
class BuildPass final : public Pass {
public:
  std::string_view name() const override { return "build"; }
  std::string_view description() const override {
    return "construct and verify the train and ref modules";
  }
  bool run(PipelineState &S) override {
    std::string ConfigError = validatePipelineConfig(S.Config);
    if (!ConfigError.empty()) {
      S.Result.Error = "invalid pipeline config: " + ConfigError;
      return false;
    }
    if (S.External) {
      for (unsigned I = 0; I < S.External->numFunctions(); ++I)
        S.External->function(I)->recomputeCFG();
      std::vector<std::string> Errors = ir::verifyModule(*S.External);
      if (!Errors.empty()) {
        S.Result.Error = "module verification failed: " + Errors[0];
        return false;
      }
      return true;
    }
    const Workload &W = *S.W;
    W.Build(S.TrainModule, W.TrainScale);
    for (unsigned I = 0; I < S.TrainModule.numFunctions(); ++I)
      S.TrainModule.function(I)->recomputeCFG();
    {
      std::vector<std::string> Errors = ir::verifyModule(S.TrainModule);
      if (!Errors.empty()) {
        S.Result.Error = "train module verification failed: " + Errors[0];
        return false;
      }
    }
    // The paper compiles one binary with train feedback and measures the
    // ref input. Build(M, Scale) bakes the input scale into the program
    // as data, so the ref module is a fresh build whose *code shape* is
    // identical (a documented Workload contract, checked here and per
    // function by the profile pass).
    W.Build(S.RefModule, W.RefScale);
    for (unsigned I = 0; I < S.RefModule.numFunctions(); ++I)
      S.RefModule.function(I)->recomputeCFG();
    std::vector<std::string> Errors = ir::verifyModule(S.RefModule);
    if (!Errors.empty()) {
      S.Result.Error = "ref module verification failed: " + Errors[0];
      return false;
    }
    if (S.RefModule.numFunctions() != S.TrainModule.numFunctions()) {
      S.Result.Error = "workload changes shape across scales";
      return false;
    }
    return true;
  }
};

/// Runs the interpreter on the train input collecting alias and edge
/// profiles. Workload mode remaps the profile keys onto the ref module
/// (same function index, same statement ids); module mode profiles the
/// module in place and keeps the run's output as the correctness oracle.
class ProfilePass final : public Pass {
public:
  std::string_view name() const override { return "profile"; }
  std::string_view description() const override {
    return "interpret the train input, collect alias and edge profiles";
  }
  bool run(PipelineState &S) override {
    if (S.External) {
      interp::Interpreter Interp(*S.External);
      Interp.setAliasProfile(&S.AliasProf);
      Interp.setEdgeProfile(&S.EdgeProf);
      interp::RunResult R = Interp.run(S.Config.InterpFuel);
      if (!R.Ok) {
        S.Result.Error = "train run failed: " + R.Error;
        return false;
      }
      S.OracleOutput = std::move(R.Output);
      S.HasProfile = true;
      return true;
    }
    // The train run depends only on (workload, train scale, fuel) — the
    // promotion config has not entered the pipeline yet — so the grid's
    // configs of one workload share a memoized id-space snapshot of it
    // (ProfileCache.h) when the driver provides a cache.
    std::shared_ptr<const ProfileSnapshot> Snap;
    std::string Key;
    if (S.ProfCache) {
      Key = std::string(S.W->Name) + "#" + std::to_string(S.W->TrainScale) +
            "#" + std::to_string(S.Config.InterpFuel);
      Snap = S.ProfCache->lookup(Key);
    }
    if (!Snap) {
      interp::AliasProfile TrainAP;
      interp::EdgeProfile TrainEP;
      {
        interp::Interpreter Interp(S.TrainModule);
        Interp.setAliasProfile(&TrainAP);
        Interp.setEdgeProfile(&TrainEP);
        interp::RunResult R = Interp.run(S.Config.InterpFuel);
        if (!R.Ok) {
          S.Result.Error = "train run failed: " + R.Error;
          return false;
        }
      }
      auto NewSnap = std::make_shared<ProfileSnapshot>();
      for (unsigned FI = 0; FI < S.TrainModule.numFunctions(); ++FI) {
        const ir::Function *TrainF = S.TrainModule.function(FI);
        NewSnap->FuncNumBlocks.push_back(TrainF->numBlocks());
        for (unsigned BI = 0; BI < TrainF->numBlocks(); ++BI) {
          const ir::BasicBlock *TB = TrainF->block(BI);
          ProfileSnapshot::BlockEntry BE{FI, BI, TrainEP.blockCount(TB), {}};
          for (size_t SI = 0; SI < TB->succs().size(); ++SI)
            BE.SuccCounts.push_back(TrainEP.edgeCount(TB, TB->succs()[SI]));
          NewSnap->Blocks.push_back(std::move(BE));
          for (size_t SI = 0; SI < TB->size(); ++SI) {
            const ir::Stmt *TS = TB->stmt(SI);
            for (unsigned Level = 1; Level <= TS->Ref.Depth; ++Level) {
              const std::set<unsigned> *Targets =
                  TrainAP.targets(TrainF, TS->Id, Level);
              if (!Targets)
                continue;
              NewSnap->Alias.push_back(
                  {FI, BI, static_cast<unsigned>(SI), Level,
                   std::vector<unsigned>(Targets->begin(), Targets->end())});
            }
          }
        }
      }
      if (S.ProfCache)
        Snap = S.ProfCache->insert(Key, std::move(NewSnap));
      else
        Snap = std::move(NewSnap);
    }
    // Rebind the snapshot onto the ref module (same function index, same
    // block index, same statement position — exactly what the previous
    // pointer-space remap transferred).
    for (unsigned FI = 0; FI < S.RefModule.numFunctions(); ++FI)
      if (FI >= Snap->FuncNumBlocks.size() ||
          Snap->FuncNumBlocks[FI] != S.RefModule.function(FI)->numBlocks()) {
        S.Result.Error = "workload changes CFG shape across scales";
        return false;
      }
    for (const ProfileSnapshot::BlockEntry &BE : Snap->Blocks) {
      const ir::Function *RefF = S.RefModule.function(BE.FuncIdx);
      const ir::BasicBlock *RB = RefF->block(BE.BlockIdx);
      S.EdgeProf.addBlockCount(RB, BE.Count);
      for (size_t SI = 0;
           SI < BE.SuccCounts.size() && SI < RB->succs().size(); ++SI)
        S.EdgeProf.addEdgeCount(RB, RB->succs()[SI], BE.SuccCounts[SI]);
    }
    for (const ProfileSnapshot::AliasEntry &AE : Snap->Alias) {
      const ir::Function *RefF = S.RefModule.function(AE.FuncIdx);
      const ir::BasicBlock *RB = RefF->block(AE.BlockIdx);
      if (AE.StmtPos >= RB->size())
        continue;
      unsigned StmtId = RB->stmt(AE.StmtPos)->Id;
      for (unsigned Sym : AE.Symbols)
        S.AliasProf.recordTarget(RefF, StmtId, AE.Level, Sym);
    }
    S.HasProfile = true;
    return true;
  }
};

/// Constructs the alias analysis and runs SSAPRE-based promotion under
/// the configured strategy, drawing dominators and loops from the
/// pipeline's analysis cache.
class PromotePass final : public Pass {
public:
  std::string_view name() const override { return "promote"; }
  std::string_view description() const override {
    return "speculative register promotion (SSAPRE over HSSA)";
  }
  bool run(PipelineState &S) override {
    ir::Module &M = S.module();
    if (S.Config.UseAndersen)
      S.AA = std::make_unique<alias::AndersenAnalysis>(M);
    else
      S.AA = std::make_unique<alias::SteensgaardAnalysis>(M);
    const interp::AliasProfile *AP =
        (S.HasProfile && S.Config.UseAliasProfile) ? &S.AliasProf : nullptr;
    const interp::EdgeProfile *EP =
        (S.HasProfile && S.Config.UseEdgeProfile) ? &S.EdgeProf : nullptr;
    S.Result.Promotion = pre::promoteModule(M, *S.AA, AP, EP,
                                            S.Config.Promotion, &S.analyses());
    std::vector<std::string> Errors = ir::verifyModule(M);
    if (!Errors.empty()) {
      S.Result.Error = "post-promotion verification failed: " + Errors[0];
      return false;
    }
    return true;
  }
};

/// Statically checks the speculation discipline of the (promoted) IR.
class SpecVerifyPass final : public Pass {
public:
  std::string_view name() const override { return "specverify"; }
  std::string_view description() const override {
    return "static speculation-safety verification";
  }
  bool run(PipelineState &S) override {
    if (S.Config.SpecVerify == SpecVerifyMode::Off)
      return true;
    ir::Module &M = S.module();
    // The promoter's analysis is reused when available (promotion adds no
    // memory objects, so the verdicts agree); with the promote pass
    // disabled a fresh Steensgaard result serves.
    if (!S.AA)
      S.AA = std::make_unique<alias::SteensgaardAnalysis>(M);
    analysis::SpecVerifyConfig SVC;
    SVC.AlatEntries = S.Config.Sim.Alat.Entries;
    SVC.AA = S.AA.get();
    S.Result.SpecDiags = analysis::verifySpeculation(M, SVC);
    if (S.Config.SpecVerify == SpecVerifyMode::Fatal &&
        analysis::hasSpecErrors(S.Result.SpecDiags)) {
      for (const analysis::SpecDiag &D : S.Result.SpecDiags)
        if (D.Severity == analysis::SpecDiagSeverity::Error) {
          S.Result.Error = "speculation verification failed: " +
                           analysis::formatSpecDiag(D);
          return false;
        }
    }
    return true;
  }
};

/// Secret-taint dataflow over the (promoted) IR: flags speculative paths
/// where a secret-derived value reaches an address computation, branch
/// condition or output before its check commits. Free when the module
/// declares no secret symbols.
class TaintFlowPass final : public Pass {
public:
  std::string_view name() const override { return "taintflow"; }
  std::string_view description() const override {
    return "speculative secret-taint dataflow";
  }
  bool run(PipelineState &S) override {
    if (S.Config.TaintCheck == SpecVerifyMode::Off)
      return true;
    ir::Module &M = S.module();
    bool AnySecret = false;
    for (unsigned I = 0, E = M.numSymbols(); I != E; ++I)
      AnySecret |= M.symbol(I)->Secret;
    if (!AnySecret)
      return true;
    if (!S.AA)
      S.AA = std::make_unique<alias::SteensgaardAnalysis>(M);
    analysis::TaintFlowConfig TFC;
    TFC.AA = S.AA.get();
    analysis::TaintFlow TF(M, TFC);
    S.Result.TaintDiags = TF.diags();
    if (S.Config.TaintCheck == SpecVerifyMode::Fatal &&
        !S.Result.TaintDiags.empty()) {
      S.Result.Error = "taint verification failed: " +
                       analysis::formatTaintDiag(S.Result.TaintDiags[0]);
      return false;
    }
    return true;
  }
};

/// Lowers the promoted IR to ITA machine code (virtual registers).
class LowerPass final : public Pass {
public:
  std::string_view name() const override { return "lower"; }
  std::string_view description() const override {
    return "lower IR to ITA machine code";
  }
  bool run(PipelineState &S) override {
    S.MM = codegen::lowerModule(S.module());
    return true;
  }
};

/// Register allocation over the machine module.
class RegAllocPass final : public Pass {
public:
  std::string_view name() const override { return "regalloc"; }
  std::string_view description() const override {
    return "allocate stacked registers, record frame sizes";
  }
  bool run(PipelineState &S) override {
    if (!S.MM) {
      S.Result.Error = "regalloc: no machine module (lower disabled?)";
      return false;
    }
    S.Result.RegAlloc = codegen::allocateRegisters(*S.MM, S.Config.RegAlloc);
    for (unsigned FI = 0; FI < S.MM->numFunctions(); ++FI)
      S.Result.MaxStackedRegs = std::max(
          S.Result.MaxStackedRegs, S.MM->function(FI)->StackedRegsUsed);
    return true;
  }
};

/// Runs the ITA simulator on the ref input and records the counters.
class SimulatePass final : public Pass {
public:
  std::string_view name() const override { return "simulate"; }
  std::string_view description() const override {
    return "simulate the ref input on the ITA model";
  }
  bool run(PipelineState &S) override {
    if (!S.MM) {
      S.Result.Error = "simulate: no machine module (lower disabled?)";
      return false;
    }
    // Decode once onto the state; fault-plan re-simulations and repeat
    // runs of the same binary share the stream (see PipelineState).
    if (!S.Decoded)
      S.Decoded = std::make_unique<arch::DecodedModule>(*S.MM);
    S.Result.Sim = arch::simulate(*S.Decoded, S.Config.Sim);
    if (!S.Result.Sim.Ok) {
      S.Result.Error = "simulation failed: " + S.Result.Sim.Error;
      return false;
    }
    S.Result.Output = S.Result.Sim.Output;
    return true;
  }
};

} // namespace

void srp::core::addStandardPasses(PassManager &PM) {
  PM.add(std::make_unique<BuildPass>());
  PM.add(std::make_unique<ProfilePass>());
  PM.add(std::make_unique<PromotePass>());
  PM.add(std::make_unique<SpecVerifyPass>());
  PM.add(std::make_unique<TaintFlowPass>());
  PM.add(std::make_unique<LowerPass>());
  PM.add(std::make_unique<RegAllocPass>());
  PM.add(std::make_unique<SimulatePass>());
}

std::vector<std::string> srp::core::standardPassNames() {
  PassManager PM;
  addStandardPasses(PM);
  return PM.passNames();
}
