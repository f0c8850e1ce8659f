//===- PaperGrid.cpp - The paper's evaluation grid as a workload ---------------===//
//
// paper-grid: the 30 pipelines of the paper's evaluation (the ten standard
// workloads x conservative / baseline / alat, at the scales
// BENCH_pipeline.json records), one client, closed loop. One op is one
// core::runPipeline; each pass over the 30 shares one core::ProfileCache,
// as core::runExperiments does at one worker, so the first config of each
// workload pays the train run and the other two rebind its snapshot. The
// seed fixes the order of the ten workloads within a pass.
//
// Why: this is what reproducing the paper costs. Simulation (arch) and
// the train runs (interp) dominate; the serving layer is absent.
//
//===----------------------------------------------------------------------===//

#include "PipelineSupport.h"

#include "core/Pipeline.h"
#include "core/ProfileCache.h"
#include "support/RNG.h"
#include "workloads/Workloads.h"

using namespace srp;
using namespace perfbench;

namespace {

enum GridClass : uint16_t { TrainPaying, ProfileCached };

class PaperGrid final : public Workload {
public:
  explicit PaperGrid(const Options &Opts) : Opts(Opts) {}

  void setUp(Checker &C) override {
    Ws = workloads::standardWorkloads();
    const std::pair<const char *, pre::PromotionConfig> Strategies[] = {
        {"conservative", pre::PromotionConfig::conservative()},
        {"baseline", pre::PromotionConfig::baselineO3()},
        {"alat", pre::PromotionConfig::alat()}};
    // The seed orders the workloads within a pass. Each workload's three
    // configs stay together in srp-bench's order, so conservative always
    // pays the train run and the pass's cost does not depend on the seed.
    std::vector<size_t> Order(Ws.size());
    for (size_t W = 0; W < Ws.size(); ++W)
      Order[W] = W;
    RNG R(Opts.Seed * 0x9e3779b97f4a7c15ULL + 0x9a1d);
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[R.nextBelow(I)]);
    for (size_t W : Order)
      for (const auto &[Name, Promotion] : Strategies)
        Grid.push_back({W, core::configFor(Promotion),
                        Ws[W].Name + "/" + Name,
                        Name == Strategies[0].first ? TrainPaying
                                                    : ProfileCached});

    for (const core::Workload &W : Ws)
      Oracle.push_back(core::oracleOutput(W));
    if (Opts.Inject == "grid-oracle")
      Oracle[0].push_back("<injected wrong line>");
    ExpectPass = recordedGridFingerprint();
    if (Opts.Inject == "grid-sum")
      ExpectPass.Cycles += 1;

    core::ProfileCache PC;
    Fingerprint Sum;
    for (const Entry &E : Grid) {
      core::PipelineResult R = core::runPipeline(Ws[E.W], E.Config, &PC);
      C.expect(R.Ok && R.Output == Oracle[E.W],
               "warm-up " + E.Label + ": " +
                   (R.Ok ? "output differs from oracleOutput" : R.Error));
      Expect.push_back(Fingerprint::of(R));
      Sum += Expect.back();
    }
    C.expect(sameRecorded(Sum, ExpectPass),
             "warm-up pass counters " + Sum.str() + " != recorded " +
                 ExpectPass.str());
    if (Opts.Inject == "grid-warm")
      Expect[0].Cycles += 1;
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
      core::ProfileCache PC;
      Fingerprint Sum;
      for (size_t I = 0; I < Grid.size(); ++I) {
        const Entry &E = Grid[I];
        OpRecord Rec;
        Rec.Class = E.Class;
        T.setOp(static_cast<uint32_t>(Ops.size()));
        Rec.StartNs = nowNs();
        core::PipelineResult R;
        if (!Traced) {
          R = core::runPipeline(Ws[E.W], E.Config, &PC);
        } else {
          SpanScope Op(T, "op");
          SpanScope Core(T, "core.pipeline");
          core::PipelineState S;
          S.W = &Ws[E.W];
          S.Config = E.Config;
          S.ProfCache = &PC;
          runTracedPasses(S, T);
          R = std::move(S.Result);
        }
        Rec.finish(nowNs());
        Fingerprint F = Fingerprint::of(R);
        std::string Bad = !R.Ok                     ? R.Error
                          : R.Output != Oracle[E.W] ? "output != oracle"
                          : !(F == Expect[I])       ? "counters " + F.str() +
                                                    " != warm-up " +
                                                    Expect[I].str()
                                                    : "";
        Rec.Ok = P.Checks.expect(Bad.empty(), E.Label + ": " + Bad);
        Sum += F;
        SimInstructions += static_cast<double>(F.Instructions);
        Ops.push_back(Rec);
      }
      P.Checks.expect(sameRecorded(Sum, ExpectPass),
                      "pass counters " + Sum.str() + " != recorded " +
                          ExpectPass.str());
      std::map<std::string, uint64_t> Counts = Sum.counts();
      if (P.PassCounts.empty())
        P.PassCounts = Counts;
      else
        P.Checks.expect(Counts == P.PassCounts,
                        "pass counters differ between passes");
    } while (nowNs() < Deadline);
    P.WallSeconds = static_cast<double>(nowNs() - Start) / 1e9;
    P.Layer["sim.instructions"] = SimInstructions;
    P.Layer["pre.promoted_exprs"] = static_cast<double>(ExpectPass.Exprs);
    return P;
  }

  std::vector<std::string> classNames() const override {
    return {"train-paying", "profile-cached"};
  }

  /// 34 passes of 30: p99 of a block has 10.2 samples beyond it.
  size_t blockOps() const override { return 34 * Grid.size(); }

  std::map<std::string, uint64_t> setupCounts() const override {
    Fingerprint Sum;
    for (const Fingerprint &F : Expect)
      Sum += F;
    std::map<std::string, uint64_t> Counts;
    for (const auto &[Name, V] : Sum.counts())
      Counts["warmup." + Name] = V;
    Counts["pipelines"] = Grid.size();
    return Counts;
  }

  std::map<std::string, std::string> describe() const override {
    return {{"loop", "closed"},
            {"clients", "1"},
            {"op", "core::runPipeline"},
            {"pass", "30 pipelines (10 workloads x conservative/baseline/"
                     "alat), one ProfileCache per pass"}};
  }

private:
  struct Entry {
    size_t W;
    core::PipelineConfig Config;
    std::string Label;
    GridClass Class;
  };

  Options Opts;
  std::vector<core::Workload> Ws;
  std::vector<Entry> Grid;
  std::vector<std::vector<std::string>> Oracle;
  std::vector<Fingerprint> Expect;
  Fingerprint ExpectPass;
};

} // namespace

std::unique_ptr<Workload> perfbench::makePaperGrid(const Options &Opts) {
  return std::make_unique<PaperGrid>(Opts);
}
