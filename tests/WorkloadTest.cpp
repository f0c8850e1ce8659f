//===- WorkloadTest.cpp - Workload-contract tests ----------------*- C++ -*-===//
//
// The Workload contract (Workloads.h): builders are deterministic,
// verifier-clean, terminate within the fuel budget, keep the same code
// shape across scales (only data constants may change — the pipeline
// applies train profiles, keyed by function, block and statement ids, to
// the ref build as they are), and exhibit the static ambiguity
// speculation needs.
//
//===----------------------------------------------------------------------===//

#include "workloads/Workloads.h"

#include "alias/AliasAnalysis.h"
#include "interp/Interpreter.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace srp;
using namespace srp::ir;
using namespace srp::core;
using namespace srp::workloads;

namespace {

class WorkloadContract : public ::testing::TestWithParam<int> {
protected:
  Workload workload() const {
    return standardWorkloads()[static_cast<size_t>(GetParam())];
  }
};

TEST_P(WorkloadContract, VerifiesAtBothScales) {
  Workload W = workload();
  for (uint64_t Scale : {W.TrainScale, W.RefScale}) {
    Module M;
    W.Build(M, Scale);
    auto Errors = verifyModule(M);
    EXPECT_TRUE(Errors.empty())
        << W.Name << " scale " << Scale << ": " << Errors[0];
  }
}

TEST_P(WorkloadContract, DeterministicBuild) {
  Workload W = workload();
  Module M1, M2;
  W.Build(M1, W.TrainScale);
  W.Build(M2, W.TrainScale);
  EXPECT_EQ(moduleToString(M1), moduleToString(M2));
}

TEST_P(WorkloadContract, ShapeStableAcrossScales) {
  Workload W = workload();
  Module Train, Ref;
  W.Build(Train, W.TrainScale);
  W.Build(Ref, W.RefScale);
  ASSERT_EQ(Train.numFunctions(), Ref.numFunctions());
  for (unsigned FI = 0; FI < Train.numFunctions(); ++FI) {
    const Function *TF = Train.function(FI);
    const Function *RF = Ref.function(FI);
    ASSERT_EQ(TF->numBlocks(), RF->numBlocks()) << W.Name;
    for (unsigned BI = 0; BI < TF->numBlocks(); ++BI) {
      ASSERT_EQ(TF->block(BI)->size(), RF->block(BI)->size())
          << W.Name << " block " << TF->block(BI)->getName();
      for (size_t SI = 0; SI < TF->block(BI)->size(); ++SI) {
        const Stmt *TS = TF->block(BI)->stmt(SI);
        const Stmt *RS = RF->block(BI)->stmt(SI);
        EXPECT_EQ(TS->Kind, RS->Kind);
        EXPECT_EQ(TS->Id, RS->Id) << "statement ids must line up";
      }
    }
  }
}

TEST_P(WorkloadContract, TerminatesAndPrints) {
  Workload W = workload();
  Module M;
  W.Build(M, W.RefScale);
  for (unsigned I = 0; I < M.numFunctions(); ++I)
    M.function(I)->recomputeCFG();
  interp::Interpreter I(M);
  interp::RunResult R = I.run(400'000'000);
  ASSERT_TRUE(R.Ok) << W.Name << ": " << R.Error;
  EXPECT_FALSE(R.Output.empty()) << "workloads must print a checksum";
}

TEST_P(WorkloadContract, RefDoesMoreWorkThanTrain) {
  Workload W = workload();
  auto Stmts = [&](uint64_t Scale) {
    Module M;
    W.Build(M, Scale);
    for (unsigned I = 0; I < M.numFunctions(); ++I)
      M.function(I)->recomputeCFG();
    interp::Interpreter I(M);
    return I.run(400'000'000).StmtsExecuted;
  };
  EXPECT_GT(Stmts(W.RefScale), 2 * Stmts(W.TrainScale));
}

TEST_P(WorkloadContract, HasStaticAmbiguity) {
  // Some indirect store must may-alias some other reference per the
  // compiler — otherwise there is nothing to speculate about.
  Workload W = workload();
  Module M;
  W.Build(M, W.TrainScale);
  for (unsigned I = 0; I < M.numFunctions(); ++I)
    M.function(I)->recomputeCFG();
  alias::SteensgaardAnalysis AA(M);
  bool FoundAmbiguousStore = false;
  for (unsigned FI = 0; FI < M.numFunctions() && !FoundAmbiguousStore;
       ++FI) {
    const Function *F = M.function(FI);
    for (unsigned BI = 0; BI < F->numBlocks(); ++BI) {
      const BasicBlock *BB = F->block(BI);
      for (size_t SI = 0; SI < BB->size(); ++SI) {
        const Stmt *S = BB->stmt(SI);
        if (!S->isStore() || S->Ref.isDirect())
          continue;
        if (AA.mayPointees(S->Ref, F).size() >= 2)
          FoundAmbiguousStore = true;
      }
    }
  }
  EXPECT_TRUE(FoundAmbiguousStore)
      << W.Name << " has no ambiguous store to speculate across";
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadContract, ::testing::Range(0, 10),
    [](const ::testing::TestParamInfo<int> &Info) {
      return standardWorkloads()[static_cast<size_t>(Info.param)].Name;
    });

TEST(WorkloadTest, TenWorkloadsWithPaperNames) {
  auto All = standardWorkloads();
  ASSERT_EQ(All.size(), 10u);
  const char *Expected[] = {"ammp",  "art",    "equake", "bzip2",
                            "gzip",  "mcf",    "parser", "twolf",
                            "vortex", "vpr"};
  for (size_t I = 0; I < 10; ++I)
    EXPECT_EQ(All[I].Name, Expected[I]);
  // The FP three are marked as such (drives the Figure 8 grouping).
  EXPECT_TRUE(All[0].FloatingPoint);
  EXPECT_TRUE(All[1].FloatingPoint);
  EXPECT_TRUE(All[2].FloatingPoint);
  EXPECT_FALSE(All[4].FloatingPoint);
}

} // namespace
