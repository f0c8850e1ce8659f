//===- SirCorpus.cpp - srp-run's flow over a .sir corpus -----------------------===//
//
// sir-corpus: a seeded corpus of default-shape fuzz::buildRandomProgram
// modules with about a quarter of the globals labelled `secret`, printed
// as .sir text (randomProgramText), plus every checked-in .sir the parser
// accepts (examples/sir, fuzz-repros, tools/example.sir). One client, closed
// loop. One op is srp-run's flow on one text: parse and verify, run the
// module-mode standard pipeline under alat + cascade with SpecVerify and
// TaintCheck at Warn, then the MISCOMPILE check (simulated output against
// the train run, which is the interpreter oracle in module mode).
//
// Why: the mirror image of paper-grid. Small programs make the compiler
// passes (promote, taintflow, regalloc) the cost and simulation cheap.
//
//===----------------------------------------------------------------------===//

#include "PipelineSupport.h"

#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "support/RNG.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace srp;
using namespace perfbench;

namespace {

/// Random programs per corpus. The tail percentile of a block is about
/// the corpus's 99th-percentile program, so the corpus must be large
/// enough for that to hold ~10 programs whatever the seed draws. One pass
/// takes about two seconds on a 4-vCPU x86 VM.
constexpr unsigned NumRandomPrograms = 1000;

enum SirClass : uint16_t { Random, CheckedIn };

struct Program {
  std::string Name;
  std::string Text;
  SirClass Class = Random;
  Fingerprint Expect;
};

/// The outcome of one op.
struct RunOutcome {
  std::string Error; ///< empty when the pipeline ran
  Fingerprint F;
  bool OutputMatchesOracle = false;
};

class SirCorpus final : public Workload {
public:
  explicit SirCorpus(const Options &Opts) : Opts(Opts) {
    Config.Promotion = pre::PromotionConfig::alat();
    Config.Promotion.EnableCascade = true;
    Config.SpecVerify = core::SpecVerifyMode::Warn;
    Config.TaintCheck = core::SpecVerifyMode::Warn;
  }

  void setUp(Checker &C) override {
    RNG R(Opts.Seed * 0x9e3779b97f4a7c15ULL + 0x51c0);
    for (unsigned I = 0; I < NumRandomPrograms; ++I) {
      uint64_t ProgSeed = R.next();
      Progs.push_back({formatString("random:%llu", (unsigned long long)ProgSeed),
                       randomProgramText(ProgSeed), Random, {}});
    }
    addCheckedIn(C);

    Tracer Off(false);
    for (size_t I = 0; I < Progs.size(); ++I) {
      RunOutcome O = runOne(I, Off);
      C.expect(O.Error.empty() && O.OutputMatchesOracle,
               "warm-up " + Progs[I].Name + ": " +
                   (O.Error.empty() ? "MISCOMPILE" : O.Error));
      Progs[I].Expect = O.F;
      WarmSum += O.F;
    }
    if (Opts.Inject == "sir-warm")
      Progs[0].Expect.Cycles += 1;
  }

  Phase run(double Seconds, bool Traced) override {
    Phase P;
    P.addClients(1, Traced);
    Tracer &T = P.Tracers[0];
    std::vector<OpRecord> &Ops = P.Ops[0];
    double SimInstructions = 0;
    uint64_t Start = nowNs();
    uint64_t Deadline = Start + static_cast<uint64_t>(Seconds * 1e9);
    do {
      Fingerprint Sum;
      for (size_t I = 0; I < Progs.size(); ++I) {
        OpRecord Rec;
        Rec.Class = Progs[I].Class;
        T.setOp(static_cast<uint32_t>(Ops.size()));
        Rec.StartNs = nowNs();
        RunOutcome O;
        {
          SpanScope Op(T, "op");
          O = runOne(I, T);
        }
        Rec.finish(nowNs());
        std::string Bad = !O.Error.empty()         ? O.Error
                          : !O.OutputMatchesOracle ? "MISCOMPILE"
                          : !(O.F == Progs[I].Expect)
                              ? "counters " + O.F.str() + " != warm-up " +
                                    Progs[I].Expect.str()
                              : "";
        Rec.Ok = P.Checks.expect(Bad.empty(), Progs[I].Name + ": " + Bad);
        Sum += O.F;
        SimInstructions += static_cast<double>(O.F.Instructions);
        Ops.push_back(Rec);
      }
      std::map<std::string, uint64_t> Counts = Sum.counts();
      if (P.PassCounts.empty())
        P.PassCounts = Counts;
      else
        P.Checks.expect(Counts == P.PassCounts,
                        "pass counters differ between passes");
    } while (nowNs() < Deadline);
    P.WallSeconds = static_cast<double>(nowNs() - Start) / 1e9;
    P.Layer["sim.instructions"] = SimInstructions;
    P.Layer["pre.promoted_exprs"] = static_cast<double>(WarmSum.Exprs);
    return P;
  }

  std::vector<std::string> classNames() const override {
    return {"random", "checked-in"};
  }

  /// One pass over the corpus: over 1000 ops, so p99 of a block has at
  /// least 10 samples beyond it.
  size_t blockOps() const override { return Progs.size(); }

  std::map<std::string, uint64_t> setupCounts() const override {
    std::map<std::string, uint64_t> Counts;
    for (const auto &[Name, V] : WarmSum.counts())
      Counts["warmup." + Name] = V;
    Counts["programs"] = Progs.size();
    Counts["programs.checked_in"] = static_cast<uint64_t>(
        std::count_if(Progs.begin(), Progs.end(),
                      [](const Program &P) { return P.Class == CheckedIn; }));
    return Counts;
  }

  std::map<std::string, std::string> describe() const override {
    std::string Files;
    for (const Program &P : Progs)
      if (P.Class == CheckedIn)
        Files += (Files.empty() ? "" : " ") + P.Name;
    return {{"loop", "closed"},
            {"clients", "1"},
            {"op", "parse + module-mode standard pipeline (alat+cascade, "
                   "SpecVerify/TaintCheck Warn) + MISCOMPILE check"},
            {"random_programs", std::to_string(NumRandomPrograms)},
            {"checked_in", Files}};
  }

private:
  /// Adds every checked-in .sir the parser and verifier accept (what
  /// srp-run accepts as input; files it rejects with exit 2 are not
  /// programs). A file that parses but then fails is a failed op.
  void addCheckedIn(Checker &C) {
    namespace fs = std::filesystem;
    std::vector<fs::path> Files;
    for (const char *Dir : {"examples/sir", "fuzz-repros"}) {
      fs::path D = fs::path(Opts.Root) / Dir;
      std::error_code EC;
      for (const fs::directory_entry &E : fs::directory_iterator(D, EC))
        if (E.path().extension() == ".sir")
          Files.push_back(E.path());
    }
    std::sort(Files.begin(), Files.end());
    Files.push_back(fs::path(Opts.Root) / "tools/example.sir");
    for (const fs::path &F : Files) {
      std::ifstream In(F, std::ios::binary);
      std::stringstream SS;
      SS << In.rdbuf();
      std::string Text = SS.str();
      ir::Module M;
      std::string Error;
      if (!In || !ir::parseModule(Text, M, Error) ||
          !ir::verifyModule(M).empty())
        continue;
      Progs.push_back({fs::relative(F, Opts.Root).string(), std::move(Text),
                       CheckedIn, {}});
    }
    C.expect(std::count_if(Progs.begin(), Progs.end(),
                           [](const Program &P) {
                             return P.Class == CheckedIn;
                           }) > 0,
             "no checked-in .sir found under " + Opts.Root);
  }

  RunOutcome runOne(size_t Index, Tracer &T) {
    RunOutcome O;
    ir::Module M;
    {
      SpanScope Parse(T, "ir.parse");
      std::string Error;
      if (!ir::parseModule(Progs[Index].Text, M, Error)) {
        O.Error = "parse: " + Error;
        return O;
      }
      std::vector<std::string> Errors = ir::verifyModule(M);
      if (!Errors.empty()) {
        O.Error = "verify: " + Errors[0];
        return O;
      }
    }
    SpanScope Core(T, "core.pipeline");
    core::PipelineState S;
    S.External = &M;
    S.Config = Config;
    bool Ok;
    if (T.on()) {
      Ok = runTracedPasses(S, T);
    } else {
      core::PassManager PM;
      core::addStandardPasses(PM);
      Ok = PM.run(S);
    }
    if (!Ok) {
      O.Error = S.Result.Error;
      return O;
    }
    std::vector<std::string> &Oracle = S.OracleOutput;
    if (Opts.Inject == "sir-oracle" && Index == 0)
      Oracle.push_back("<injected wrong line>");
    O.OutputMatchesOracle = S.HasProfile && S.Result.Output == Oracle;
    O.F = Fingerprint::of(S.Result);
    return O;
  }

  Options Opts;
  core::PipelineConfig Config;
  std::vector<Program> Progs;
  Fingerprint WarmSum;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeSirCorpus(const Options &Opts) {
  return std::make_unique<SirCorpus>(Opts);
}
