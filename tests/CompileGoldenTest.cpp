//===- CompileGoldenTest.cpp - Pinned promotion output over a .sir corpus -===//
//
// Runs srp-run's module-mode flow (parse, standard pipeline under
// alat + cascade with SpecVerify and TaintCheck at Warn) over every
// checked-in .sir program and 200 generated secret-labelled programs, and
// compares what the compiler produced against tests/golden/compile.golden:
//
//   * the FNV-1a 64 hash of the promoted module's printed text;
//   * every PromotionStats counter;
//   * the FNV-1a 64 hash of the formatted spec and taint diagnostics;
//   * simulated cycles, instructions and retired loads.
//
// The golden file pins promotion decisions byte for byte, so a change
// meant to be behaviour-preserving (a faster table, a reordered loop)
// must leave it untouched. GoldenFile.h says how a change that is meant
// to alter promotion output regenerates it.
//
//===----------------------------------------------------------------------===//

#include "GoldenFile.h"

#include "core/Pass.h"
#include "fuzz/Fuzzer.h"
#include "fuzz/RandomProgram.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "support/Hash.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

using namespace srp;

namespace {

namespace fs = std::filesystem;

constexpr unsigned NumRandomPrograms = 200;

/// The golden inputs as (name, .sir text), in a fixed order.
std::vector<std::pair<std::string, std::string>> goldenInputs() {
  fs::path Root(SRP_SOURCE_DIR);
  std::vector<fs::path> Files;
  for (const char *Dir : {"fuzz-repros", "examples/sir"})
    for (const fs::directory_entry &E : fs::directory_iterator(Root / Dir))
      if (E.path().extension() == ".sir")
        Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  Files.push_back(Root / "tools/example.sir");

  std::vector<std::pair<std::string, std::string>> Inputs;
  for (const fs::path &F : Files)
    Inputs.emplace_back(fs::relative(F, Root).string(), test::readFile(F));
  for (uint64_t Seed = 1; Seed <= NumRandomPrograms; ++Seed) {
    ir::Module M;
    fuzz::buildRandomProgram(M, Seed);
    fuzz::labelRandomSecrets(M, Seed ^ 0x5ec4e7);
    Inputs.emplace_back(formatString("random:%llu", (unsigned long long)Seed),
                        ir::moduleToString(M));
  }
  return Inputs;
}

/// One golden line: what the compiler made of \p Text.
std::string goldenLine(const std::string &Name, const std::string &Text) {
  ir::Module M;
  std::string Error;
  if (!ir::parseModule(Text, M, Error) || !ir::verifyModule(M).empty())
    return Name + " rejected";

  core::PipelineState S;
  S.External = &M;
  S.Config.Promotion = pre::PromotionConfig::alat();
  S.Config.Promotion.EnableCascade = true;
  S.Config.SpecVerify = core::SpecVerifyMode::Warn;
  S.Config.TaintCheck = core::SpecVerifyMode::Warn;
  core::PassManager PM;
  core::addStandardPasses(PM);
  if (!PM.run(S))
    return formatString("%s error=%016llx", Name.c_str(),
                        (unsigned long long)fnv1a64(S.Result.Error));

  uint64_t Diags = Fnv1a64Offset;
  for (const analysis::SpecDiag &D : S.Result.SpecDiags)
    Diags = fnv1a64(analysis::formatSpecDiag(D) + "\n", Diags);
  for (const analysis::TaintDiag &D : S.Result.TaintDiags)
    Diags = fnv1a64(analysis::formatTaintDiag(D) + "\n", Diags);

  const pre::PromotionStats &P = S.Result.Promotion;
  const arch::PerfCounters &C = S.Result.Sim.Counters;
  return formatString(
      "%s ir=%016llx promo=%u/%u/%u/%u/%u/%u/%u/%u/%u/%u/%u/%u/%llu/%llu "
      "diags=%zu/%zu/%016llx sim=%llu/%llu/%llu",
      Name.c_str(), (unsigned long long)fnv1a64(ir::moduleToString(M)),
      P.PromotedExprs, P.LoadsRemovedDirect, P.LoadsRemovedIndirect,
      P.AdvancedLoads, P.InsertedLoads, P.ChecksInserted, P.CascadeChecks,
      P.InvalaInserted, P.InvalaModeLoads, P.SoftwareChecks, P.StAStores,
      P.ChecksRemovedByCleanup, (unsigned long long)P.DynLoadsRemovedDirect,
      (unsigned long long)P.DynLoadsRemovedIndirect,
      S.Result.SpecDiags.size(), S.Result.TaintDiags.size(),
      (unsigned long long)Diags, (unsigned long long)C.Cycles,
      (unsigned long long)C.Instructions,
      (unsigned long long)C.RetiredLoads);
}

TEST(CompileGoldenTest, PromotionOutputMatchesGolden) {
  std::vector<std::string> Actual;
  for (const auto &[Name, Text] : goldenInputs())
    Actual.push_back(goldenLine(Name, Text));
  test::expectMatchesGolden(
      "compile.golden",
      "Promotion output per input; see tests/CompileGoldenTest.cpp.", Actual);
}

} // namespace
