//===- ServeMix.cpp - In-process srp-serve traffic mix --------------------------===//
//
// serve-mix: an in-process core::ServerCore (Threads = 2, no socket, so the
// numbers measure the server and not kernel socket scheduling) driven by
// two client threads calling handle() in a closed loop, like srp-serve's
// clients, which each wait for their reply. One op is one request.
//
// Each client walks blocks of BlockSlots requests. A block is a seeded
// shuffle of exactly ClassSlots[c] requests of each class, the same
// shuffle for both clients, so class shares are fixed by construction:
//
//   named-hit     a grid pipeline warmed in set-up: ResultCache hit
//   program-hit   an inline program warmed in set-up: parsed and
//                 canonicalised, then a hit
//   cold-named    a named workload under a config no request used before
//                 (ALAT geometry, strategy, cascade/sta, andersen):
//                 ResultCache miss, ProfileCache hit
//   cold-program  a warmed program plus a fresh unused global: miss
//   cold-shared   an unseen named key that both clients send at once
//                 (they meet at a barrier first): concurrent identical
//                 misses, where single-flight would show
//   malformed     frames the server must refuse with status 2
//
// Hit keys are warmed in set-up and every cold key is sent once, so which
// requests hit is fixed by the schedule, not by timing; the result cache
// budget is small enough that cold inserts evict each other while the
// constantly used hit keys stay resident.
//
// Why: the only workload with core::Serve, ResultCache and the
// canonicaliser on the critical path, with cache reads beside cold
// inserts and concurrent identical misses.
//
//===----------------------------------------------------------------------===//

#include "PipelineSupport.h"

#include "core/Serve.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "support/Hash.h"
#include "support/JSON.h"
#include "support/JSONReader.h"
#include "support/OStream.h"
#include "support/RNG.h"
#include "support/StringUtils.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <thread>

using namespace srp;
using namespace perfbench;

namespace {

enum ServeClass : uint16_t {
  NamedHit,
  ProgramHit,
  ColdNamed,
  ColdProgram,
  ColdShared,
  Malformed,
  NumServeClasses
};

const char *const ServeClassNames[NumServeClasses] = {
    "named-hit",    "program-hit", "cold-named",
    "cold-program", "cold-shared", "malformed"};

/// Requests per class in one client's block. The shares put the median in
/// the named-hit band (malformed + named-hit cover the lowest 80%, so the
/// median sits 60% of the way into named-hit) and the block's p99 (the
/// slowest 10 of 1000) inside the cold band (5%, so p99 is about the
/// cold ops' 80th percentile rather than their extreme).
constexpr unsigned BlockSlots = 1000;
constexpr unsigned ClassSlots[NumServeClasses] = {750, 150, 30, 10, 10, 50};
static_assert(ClassSlots[ColdNamed] <= 100 && ClassSlots[ColdShared] <= 10,
              "cold keys of one block must be distinct (see client())");

constexpr unsigned NumClients = 2;
constexpr unsigned ServerThreads = 2;
constexpr size_t CacheBytes = 8u << 20;
constexpr unsigned NumPrograms = 64;

/// Promotion flags of cold named keys; each run of ten cold-named slots
/// (one per workload) takes the next set, rotating across blocks. Cold-shared keys use SharedFlags, which no
/// cold-named key uses, so the two key spaces never meet.
struct ColdFlags {
  const char *Strategy;
  bool Cascade, StA, Andersen;
};
const ColdFlags ColdNamedFlags[10] = {
    {"alat", false, false, false},     {"alat", true, false, false},
    {"alat", false, true, false},      {"alat", false, false, true},
    {"baseline", false, false, false}, {"baseline", false, false, true},
    {"conservative", false, false, false}, {"alat", true, true, false},
    {"alat", true, false, true},       {"conservative", false, false, true}};
const ColdFlags SharedFlags = {"alat", true, true, true};

/// An ALAT geometry per index G < GeometryCount, all distinct and none
/// the default (32 entries, 2 ways, 20 tag bits) the hit keys use.
constexpr unsigned GeometryCount = 43 * 8 * 4;
struct Geometry {
  unsigned Entries, Ways, TagBits;
};
Geometry geometry(uint64_t G) {
  return {16u << ((G / 43) % 8), 1u << ((G / 344) % 4),
          21u + static_cast<unsigned>(G % 43)};
}

std::string jsonQuoted(std::string_view S) {
  std::string Out;
  StringOStream OS(Out);
  JSONWriter W(OS, /*Compact=*/true);
  W.value(S);
  return Out;
}

std::string namedRequest(const std::string &Workload, const ColdFlags &F,
                         const Geometry *G, bool Stats) {
  std::string Line = "{\"op\":\"run\",";
  if (Stats)
    Line += "\"stats\":true,";
  Line += "\"workload\":\"" + Workload + "\",\"config\":{\"strategy\":\"" +
          F.Strategy + "\"";
  if (F.Cascade)
    Line += ",\"cascade\":true";
  if (F.StA)
    Line += ",\"sta\":true";
  if (F.Andersen)
    Line += ",\"andersen\":true";
  if (G)
    Line += formatString(",\"alat_entries\":%u,\"alat_ways\":%u,"
                         "\"alat_tag_bits\":%u",
                         G->Entries, G->Ways, G->TagBits);
  return Line + "}}";
}

std::string programRequest(const std::string &QuotedText, bool Stats) {
  return std::string("{\"op\":\"run\",") + (Stats ? "\"stats\":true," : "") +
         "\"program\":" + QuotedText +
         ",\"config\":{\"strategy\":\"alat\",\"cascade\":true}}";
}

/// The parts of a run response the checks read.
struct Response {
  bool Valid = false;
  bool Cached = false;
  uint64_t Status = ~0ull;
  std::vector<std::string> Output;
  std::string Fingerprint;
  uint64_t Instructions = 0;
  uint64_t Exprs = 0;
  /// pass.<name>.us of the request's stats epoch ("stats": true).
  std::vector<std::pair<std::string, uint64_t>> PassUs;
};

Response parseResponse(const std::string &Text) {
  Response R;
  JSONValue Doc;
  std::string Error;
  if (!parseJSON(Text, Doc, Error) || !Doc.isObject())
    return R;
  const JSONValue *Cached = Doc.find("cached");
  const JSONValue *Result = Doc.find("result");
  if (!Cached || !Cached->isBool() || !Result || !Result->isObject())
    return R;
  R.Cached = Cached->asBool();
  if (const JSONValue *S = Result->find("status"); S && S->isUint())
    R.Status = S->asUint();
  if (const JSONValue *O = Result->find("output"); O && O->isArray())
    for (size_t I = 0; I < O->size(); ++I)
      if (O->at(I).isString())
        R.Output.push_back(O->at(I).asString());
  if (const JSONValue *F = Result->find("fingerprint"); F && F->isString())
    R.Fingerprint = F->asString();
  if (const JSONValue *C = Result->find("counters"))
    if (const JSONValue *I = C->find("instructions"); I && I->isUint())
      R.Instructions = I->asUint();
  if (const JSONValue *P = Result->find("promotion"))
    if (const JSONValue *E = P->find("exprs"); E && E->isUint())
      R.Exprs = E->asUint();
  if (const JSONValue *St = Doc.find("stats"); St && St->isObject())
    for (const auto &[Name, V] : St->members())
      if (startsWith(Name, "pass.") && Name.size() > 8 &&
          Name.compare(Name.size() - 3, 3, ".us") == 0 && V.isUint())
        R.PassUs.push_back({Name.substr(5, Name.size() - 8), V.asUint()});
  R.Valid = true;
  return R;
}

/// The result body of a response frame (the last member).
std::string_view resultBody(const std::string &Frame) {
  size_t Pos = Frame.find(",\"result\":");
  if (Pos == std::string::npos || Frame.empty())
    return {};
  return std::string_view(Frame).substr(Pos + 10, Frame.size() - Pos - 11);
}

/// N clients meet here. At block ends the last to arrive decides, for
/// everyone, whether the phase is over.
class Rendezvous {
public:
  bool arrive(uint64_t Deadline = 0) {
    std::unique_lock<std::mutex> L(M);
    uint64_t Gen = Generation;
    if (++Arrived == NumClients) {
      Arrived = 0;
      if (Deadline)
        Stop = nowNs() >= Deadline;
      ++Generation;
      Cv.notify_all();
      return Stop;
    }
    Cv.wait(L, [this, Gen] { return Generation != Gen; });
    return Stop;
  }

private:
  std::mutex M;
  std::condition_variable Cv;
  unsigned Arrived = 0;
  uint64_t Generation = 0;
  bool Stop = false;
};

class ServeMix final : public Workload {
public:
  explicit ServeMix(const Options &Opts) : Opts(Opts) {}

  void setUp(Checker &C) override {
    Ws = workloads::standardWorkloads();
    core::ServeOptions SO;
    SO.Threads = ServerThreads;
    SO.Workloads = Ws;
    SO.Cache.ByteBudget = CacheBytes;
    Server = std::make_unique<core::ServerCore>(SO);

    // References computed without the server: the grid through
    // core::runPipeline (paper-grid's per-pipeline counters), the
    // workloads' interpreter oracles, and the programs' interpreter runs.
    const char *const Strategies[] = {"conservative", "baseline", "alat"};
    const pre::PromotionConfig Promotions[] = {
        pre::PromotionConfig::conservative(),
        pre::PromotionConfig::baselineO3(), pre::PromotionConfig::alat()};
    core::ProfileCache PC;
    Fingerprint GridSum;
    for (size_t W = 0; W < Ws.size(); ++W) {
      Oracle.push_back(core::oracleOutput(Ws[W]));
      for (unsigned S = 0; S < 3; ++S) {
        core::PipelineResult R =
            core::runPipeline(Ws[W], core::configFor(Promotions[S]), &PC);
        Fingerprint F = Fingerprint::of(R);
        GridSum += F;
        Named.push_back({W, F.str(),
                         namedRequest(Ws[W].Name, {Strategies[S], false,
                                                   false, false},
                                      nullptr, false),
                         {}});
      }
    }
    C.expect(sameRecorded(GridSum, recordedGridFingerprint()),
             "reference grid counters " + GridSum.str() + " != recorded");
    if (Opts.Inject == "serve-named-fp")
      Named[0].Fingerprint += "0";
    if (Opts.Inject == "serve-cold-oracle")
      Oracle[0].push_back("<injected wrong line>");

    RNG R(Opts.Seed * 0x9e3779b97f4a7c15ULL + 0x5e7e);
    for (unsigned P = 0; P < NumPrograms; ++P) {
      Program Prog;
      Prog.Text = randomProgramText(R.next());
      Prog.Oracle = interpret(Prog.Text);
      Prog.Line = programRequest(jsonQuoted(Prog.Text), false);
      Programs.push_back(std::move(Prog));
    }
    if (Opts.Inject == "serve-program-oracle")
      Programs[0].Oracle.push_back("<injected wrong line>");

    MalformedLines = {"{\"op\":\"run\",\"workload\":\"mcf\"",
                 "{\"op\":\"run\",\"workload\":\"mcf\",\"bogus\":1}",
                 "{\"op\":\"run\",\"workload\":\"no-such-workload\"}",
                 "{\"op\":\"run\",\"program\":\"func main( {\"}",
                 "[1,2,3]", "not json at all"};
    ExpectedStatus[Malformed] = 2;
    if (Opts.Inject == "serve-status")
      ExpectedStatus[Malformed] = 0;

    // Warm-up: every distinct hit input once (all misses), then once more
    // (all hits, byte-identical to the cold response). The cache's hit and
    // miss counts of each step are deterministic.
    auto Step = [this, Last = Server->cache().stats()](
                    const std::string &Name) mutable {
      core::ResultCache::Stats Now = Server->cache().stats();
      Counts[Name + ".hits"] = Now.Hits - Last.Hits;
      Counts[Name + ".misses"] = Now.Misses - Last.Misses;
      Last = Now;
    };
    for (NamedKey &K : Named) {
      std::string Resp = Server->handle(K.Line);
      Response P = parseResponse(Resp);
      C.expect(P.Valid && !P.Cached && P.Status == 0 &&
                   P.Fingerprint == K.Fingerprint &&
                   P.Output == Oracle[K.W],
               "warm-up named " + K.Line + ": fingerprint " + P.Fingerprint +
                   " vs runPipeline " + K.Fingerprint + ", output " +
                   (P.Output == Oracle[K.W] ? "matches" : "differs from") +
                   " oracleOutput");
      K.Hit = hitFrame(Resp);
      WarmExprs += P.Exprs;
    }
    Step("warmup.named-hit");
    for (Program &Prog : Programs) {
      std::string Resp = Server->handle(Prog.Line);
      Response P = parseResponse(Resp);
      C.expect(P.Valid && !P.Cached && P.Status == 0 &&
                   P.Output == Prog.Oracle,
               "warm-up program: output differs from the interpreter");
      Prog.Hit = hitFrame(Resp);
      WarmExprs += P.Exprs;
    }
    Step("warmup.program-hit");
    for (const std::string &Line : MalformedLines) {
      std::string Resp = Server->handle(Line);
      C.expect(hasStatus(Resp, ExpectedStatus[Malformed]),
               "warm-up malformed frame answered " + Resp);
      MalformedResp.push_back(Resp);
    }
    Step("warmup.malformed");
    for (const NamedKey &K : Named)
      C.expect(Server->handle(K.Line) == K.Hit, "verify named hit " + K.Line);
    Step("verify.named-hit");
    for (const Program &Prog : Programs)
      C.expect(Server->handle(Prog.Line) == Prog.Hit, "verify program hit");
    Step("verify.program-hit");
    Counts["warmup.promotion.exprs"] = WarmExprs;
    for (const auto &[Name, V] : GridSum.counts())
      Counts["reference." + Name] = V;
    if (Opts.Inject == "serve-hit-body")
      Named[0].Hit += " ";

    for (unsigned Class = 0; Class < NumServeClasses; ++Class)
      Pattern.insert(Pattern.end(), ClassSlots[Class],
                     static_cast<uint16_t>(Class));
    RNG Shuffle(Opts.Seed * 0x9e3779b97f4a7c15ULL + 0x5c4e);
    for (size_t I = Pattern.size(); I > 1; --I)
      std::swap(Pattern[I - 1], Pattern[Shuffle.nextBelow(I)]);
  }

  Phase run(double Seconds, bool Traced) override {
    Phase P;
    P.addClients(NumClients, Traced);
    std::vector<ClientState> States(NumClients);
    Rendezvous Meet;
    core::ResultCache::Stats Before = Server->cache().stats();
    uint64_t Start = nowNs();
    uint64_t Deadline = Start + static_cast<uint64_t>(Seconds * 1e9);
    {
      std::vector<std::thread> Clients;
      for (unsigned C = 0; C < NumClients; ++C)
        Clients.emplace_back([this, C, &P, &States, &Meet, Deadline, Traced] {
          client(C, P.Ops[C], P.Tracers[C], States[C], Meet, Deadline,
                 Traced);
        });
      for (std::thread &T : Clients)
        T.join();
    }
    P.WallSeconds = static_cast<double>(nowNs() - Start) / 1e9;
    // Later phases continue the cold key sequence instead of repeating it.
    BlockBase += P.Ops[0].size() / BlockSlots;
    core::ResultCache::Stats After = Server->cache().stats();

    // Both clients' answers to each shared key must be byte-identical.
    uint64_t ColdRuns = 0, ColdKeys = 0;
    std::vector<uint64_t> MissUs, WaitUs;
    double SimInstructions = 0;
    for (unsigned C = 0; C < NumClients; ++C) {
      ClientState &S = States[C];
      P.Checks.merge(S.Checks);
      ColdRuns += S.ColdRuns;
      ColdKeys += S.ColdKeys;
      SimInstructions += S.SimInstructions;
      MissUs.insert(MissUs.end(), S.MissUs.begin(), S.MissUs.end());
      WaitUs.insert(WaitUs.end(), S.WaitUs.begin(), S.WaitUs.end());
    }
    size_t Shared = std::min(States[0].SharedBodies.size(),
                             States[1].SharedBodies.size());
    for (size_t I = 0; I < Shared; ++I)
      P.Checks.expect(States[0].SharedBodies[I] == States[1].SharedBodies[I],
                      "cold-shared key answered differently per client");
    ColdKeys += Shared;

    uint64_t Lookups = (After.Hits - Before.Hits) + (After.Misses - Before.Misses);
    P.Layer["core.result_cache.hit_ratio"] =
        Lookups ? static_cast<double>(After.Hits - Before.Hits) /
                      static_cast<double>(Lookups)
                : 0;
    P.Layer["core.result_cache.evictions"] =
        static_cast<double>(After.Evictions - Before.Evictions);
    P.Layer["core.serve.runs_per_cold_key"] =
        ColdKeys ? static_cast<double>(ColdRuns) / static_cast<double>(ColdKeys)
                 : 0;
    P.Layer["core.serve.miss_p50_ms"] = median(MissUs) / 1e3;
    P.Layer["core.serve.wait_ms"] = mean(WaitUs) / 1e3;
    P.Layer["sim.instructions"] = SimInstructions;
    P.Layer["pre.promoted_exprs"] = static_cast<double>(WarmExprs);

    P.PassCounts = States[0].FirstBlock;
    return P;
  }

  std::vector<std::string> classNames() const override {
    return {ServeClassNames, ServeClassNames + NumServeClasses};
  }

  size_t blockOps() const override { return BlockSlots; }

  unsigned clients() const override { return NumClients; }

  std::map<std::string, uint64_t> setupCounts() const override {
    return Counts;
  }

  std::map<std::string, std::string> describe() const override {
    std::string Shares;
    for (unsigned C = 0; C < NumServeClasses; ++C)
      Shares += formatString("%s%s=%.1f%%", C ? " " : "", ServeClassNames[C],
                             100.0 * ClassSlots[C] / BlockSlots);
    return {{"loop", "closed"},
            {"clients", std::to_string(NumClients)},
            {"server_threads", std::to_string(ServerThreads)},
            {"cache_bytes", std::to_string(CacheBytes)},
            {"op", "core::ServerCore::handle (in process)"},
            {"class_shares", Shares}};
  }

private:
  struct NamedKey {
    size_t W;
    std::string Fingerprint; ///< from core::runPipeline
    std::string Line;
    std::string Hit; ///< expected hit frame
  };
  struct Program {
    std::string Text;
    std::vector<std::string> Oracle;
    std::string Line;
    std::string Hit;
  };
  struct ClientState {
    Checker Checks;
    uint64_t ColdRuns = 0, ColdKeys = 0;
    double SimInstructions = 0;
    std::vector<uint64_t> MissUs, WaitUs;
    /// FNV-1a 64 of each cold-shared result body, in schedule order.
    std::vector<uint64_t> SharedBodies;
    /// Ops and result cache misses per class in the client's first
    /// block, which every block must repeat (cold-shared misses race, so
    /// they are not counted).
    std::map<std::string, uint64_t> FirstBlock;
  };

  static double median(std::vector<uint64_t> V) {
    if (V.empty())
      return 0;
    std::nth_element(V.begin(), V.begin() + V.size() / 2, V.end());
    return static_cast<double>(V[V.size() / 2]);
  }
  static double mean(const std::vector<uint64_t> &V) {
    double Sum = 0;
    for (uint64_t X : V)
      Sum += static_cast<double>(X);
    return V.empty() ? 0 : Sum / static_cast<double>(V.size());
  }

  static std::string hitFrame(const std::string &ColdFrame) {
    std::string Hit = ColdFrame;
    size_t Pos = Hit.find("\"cached\":false");
    if (Pos != std::string::npos)
      Hit.replace(Pos, 14, "\"cached\":true");
    return Hit;
  }

  static bool hasStatus(const std::string &Frame, unsigned Status) {
    return Frame.find(",\"result\":{\"status\":" + std::to_string(Status)) !=
           std::string::npos;
  }

  std::vector<std::string> interpret(const std::string &Text) {
    ir::Module M;
    std::string Error;
    if (!ir::parseModule(Text, M, Error) || !ir::verifyModule(M).empty())
      return {"<program does not parse>"};
    for (unsigned I = 0; I < M.numFunctions(); ++I)
      M.function(I)->recomputeCFG();
    interp::Interpreter Interp(M);
    return Interp.run().Output;
  }

  void client(unsigned Client, std::vector<OpRecord> &Ops, Tracer &T,
              ClientState &S, Rendezvous &Meet, uint64_t Deadline,
              bool Traced) {
    RNG R(Opts.Seed * 0x9e3779b97f4a7c15ULL + 0xc11e + Client);
    for (uint64_t Block = BlockBase;; ++Block) {
      unsigned Seen[NumServeClasses] = {};
      uint64_t Misses[NumServeClasses] = {};
      for (uint16_t Class : Pattern) {
        unsigned Idx = Seen[Class]++;
        std::string Owned;
        const std::string *Line = &Owned;
        size_t Key = 0;
        switch (Class) {
        case NamedHit:
          Key = R.nextBelow(Named.size());
          Line = &Named[Key].Line;
          break;
        case ProgramHit:
          Key = R.nextBelow(Programs.size());
          Line = &Programs[Key].Line;
          break;
        case ColdNamed: {
          uint64_t G = Block * NumClients + Client;
          S.Checks.expect(G < GeometryCount, "cold-named keys exhausted");
          Geometry Geo = geometry(G);
          Key = Idx % Ws.size();
          Owned = namedRequest(Ws[Key].Name,
                               ColdNamedFlags[(Block + Idx / 10) % 10], &Geo,
                               Traced);
          break;
        }
        case ColdProgram: {
          Key = (Block * ClassSlots[ColdProgram] + Idx) % Programs.size();
          uint64_t U = (Block * NumClients + Client) * BlockSlots + Idx;
          Owned = programRequest(
              jsonQuoted(formatString("global pb_cold_%llu : int\n",
                                      (unsigned long long)U) +
                         Programs[Key].Text),
              Traced);
          break;
        }
        case ColdShared: {
          Geometry Geo = geometry(Block % GeometryCount);
          Key = Idx % Ws.size();
          Owned = namedRequest(Ws[Key].Name, SharedFlags, &Geo, Traced);
          Meet.arrive();
          break;
        }
        default:
          Key = R.nextBelow(MalformedLines.size());
          Line = &MalformedLines[Key];
          break;
        }

        OpRecord Rec;
        Rec.Class = Class;
        T.setOp(static_cast<uint32_t>(Ops.size()));
        int32_t ServeSpan;
        std::string Resp;
        Rec.StartNs = nowNs();
        {
          SpanScope Op(T, "op");
          SpanScope Serve(T, "core.serve");
          ServeSpan = Serve.index();
          Resp = Server->handle(*Line);
        }
        Rec.finish(nowNs());
        Rec.Ok = check(static_cast<ServeClass>(Class), Key, Resp, Rec, T,
                       ServeSpan, S);
        Ops.push_back(Rec);
        Misses[Class] += !startsWith(Resp, "{\"id\":null,\"cached\":true,");
      }
      std::map<std::string, uint64_t> Counts;
      for (unsigned C = 0; C < NumServeClasses; ++C) {
        Counts[std::string("ops.") + ServeClassNames[C]] = Seen[C];
        if (C != ColdShared && C != Malformed)
          Counts[std::string("misses.") + ServeClassNames[C]] = Misses[C];
      }
      if (S.FirstBlock.empty())
        S.FirstBlock = Counts;
      else
        S.Checks.expect(Counts == S.FirstBlock,
                        "a block's class or miss counts differ from the "
                        "first block's");
      if (Meet.arrive(Deadline))
        return;
    }
  }

  bool check(ServeClass Class, size_t Key, const std::string &Resp,
             const OpRecord &Rec, Tracer &T, int32_t ServeSpan,
             ClientState &S) {
    // Messages are built only for failures: hits take microseconds, and
    // the benchmark's own work between ops counts against throughput.
    bool Ok;
    switch (Class) {
    case NamedHit:
      Ok = Resp == Named[Key].Hit;
      return S.Checks.expect(Ok, Ok ? std::string()
                                    : "named hit not byte-identical to its "
                                      "cold response: " + Resp);
    case ProgramHit:
      Ok = Resp == Programs[Key].Hit;
      return S.Checks.expect(Ok, Ok ? std::string()
                                    : "program hit not byte-identical to its "
                                      "cold response: " + Resp);
    case Malformed:
      Ok = Resp == MalformedResp[Key] &&
           hasStatus(Resp, ExpectedStatus[Malformed]);
      return S.Checks.expect(Ok, Ok ? std::string()
                                    : "malformed frame answered " + Resp);
    default:
      break;
    }
    Response P = parseResponse(Resp);
    const std::vector<std::string> &Want =
        Class == ColdProgram ? Programs[Key].Oracle : Oracle[Key];
    Ok = P.Valid && P.Status == ExpectedStatus[Class] && P.Output == Want &&
         (Class == ColdShared || !P.Cached);
    S.Checks.expect(Ok, Ok ? std::string()
                           : std::string(ServeClassNames[Class]) +
                                 " answered " + Resp);
    if (Class == ColdShared)
      S.SharedBodies.push_back(fnv1a64(resultBody(Resp)));
    else
      ++S.ColdKeys;
    if (P.Cached)
      return Ok;
    ++S.ColdRuns;
    uint64_t LatencyUs = Rec.DurNs / 1000;
    uint64_t PassUs = 0;
    for (const auto &[Pass, Us] : P.PassUs) {
      T.recordEpoch(layerSpanForPass(Pass), ServeSpan, Us * 1000);
      PassUs += Us;
    }
    S.MissUs.push_back(LatencyUs);
    if (T.on())
      S.WaitUs.push_back(LatencyUs > PassUs ? LatencyUs - PassUs : 0);
    S.SimInstructions += static_cast<double>(P.Instructions);
    return Ok;
  }

  Options Opts;
  std::vector<core::Workload> Ws;
  std::unique_ptr<core::ServerCore> Server;
  std::vector<std::vector<std::string>> Oracle;
  std::vector<NamedKey> Named;
  std::vector<Program> Programs;
  std::vector<std::string> MalformedLines, MalformedResp;
  unsigned ExpectedStatus[NumServeClasses] = {};
  std::vector<uint16_t> Pattern;
  std::map<std::string, uint64_t> Counts;
  uint64_t WarmExprs = 0;
  /// Blocks completed by earlier phases; cold keys are numbered by block.
  uint64_t BlockBase = 0;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeServeMix(const Options &Opts) {
  return std::make_unique<ServeMix>(Opts);
}
