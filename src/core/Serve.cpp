//===- Serve.cpp - Promotion-as-a-service server core --------------------------===//

#include "core/Serve.h"

#include "core/Experiment.h"
#include "core/Pass.h"
#include "ir/Fingerprint.h"
#include "support/Hash.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "support/JSON.h"
#include "support/JSONReader.h"
#include "support/OStream.h"
#include "support/Stats.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iterator>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace srp;
using namespace srp::core;

//===----------------------------------------------------------------------===//
// LineSplitter
//===----------------------------------------------------------------------===//

size_t LineSplitter::feed(std::string_view Chunk,
                          std::vector<std::string> &Out) {
  size_t Dropped = 0;
  while (!Chunk.empty()) {
    size_t Newline = Chunk.find('\n');
    if (Newline == std::string_view::npos) {
      if (Discarding)
        return Dropped; // still inside the oversized frame
      Buffer.append(Chunk);
      if (Buffer.size() > MaxLineBytes) {
        Buffer.clear();
        Discarding = true;
        ++Dropped;
      }
      return Dropped;
    }
    std::string_view Rest = Chunk.substr(Newline + 1);
    if (Discarding) {
      // The newline ends the frame being discarded; already counted.
      Discarding = false;
    } else if (Buffer.size() + Newline > MaxLineBytes) {
      Buffer.clear();
      ++Dropped;
    } else {
      Buffer.append(Chunk.substr(0, Newline));
      Out.push_back(std::move(Buffer));
      Buffer.clear();
    }
    Chunk = Rest;
  }
  return Dropped;
}

bool LineSplitter::finish(std::string &Partial) {
  Partial.clear();
  if (Discarding) {
    Discarding = false;
    return true;
  }
  if (Buffer.empty())
    return false;
  Partial = std::move(Buffer);
  Buffer.clear();
  return true;
}

//===----------------------------------------------------------------------===//
// Response construction
//===----------------------------------------------------------------------===//

namespace {

/// \p S as a JSON string literal (quoted, escaped).
std::string jsonQuoted(std::string_view S) {
  std::string Out;
  StringOStream OS(Out);
  JSONWriter W(OS, /*Compact=*/true);
  W.value(S);
  return Out;
}

/// A result body object: {"status":N,"ok":false,"error":MSG}.
std::string errorBody(int Status, std::string_view Message) {
  std::string Out;
  StringOStream OS(Out);
  JSONWriter W(OS, /*Compact=*/true);
  W.beginObject();
  W.key("status").value(static_cast<int64_t>(Status));
  W.key("ok").value(false);
  W.key("error").value(Message);
  W.endObject();
  return Out;
}

/// Assembles the response frame around a prebuilt result body. Key
/// order is fixed (id, cached, [stats,] result) so identical requests
/// get byte-identical frames up to the non-result fields.
std::string makeResponse(const std::string &IdJson, bool Cached,
                         const std::string *StatsJson,
                         const std::string &Body) {
  std::string Out = "{\"id\":" + IdJson;
  Out += Cached ? ",\"cached\":true" : ",\"cached\":false";
  if (StatsJson)
    Out += ",\"stats\":" + *StatsJson;
  Out += ",\"result\":" + Body + "}";
  return Out;
}

/// The deterministic counter fingerprint of one result, in the
/// cycles/instructions/loads | promotion triple form the bench reports
/// use. Byte-identical between a served response and a standalone run
/// of the same (workload, config) — the acceptance invariant.
std::string fingerprintOf(const PipelineResult &R) {
  return formatString(
      "%llu/%llu/%llu|%u-%u-%u",
      (unsigned long long)R.Sim.Counters.Cycles,
      (unsigned long long)R.Sim.Counters.Instructions,
      (unsigned long long)R.Sim.Counters.RetiredLoads, R.Promotion.PromotedExprs,
      R.Promotion.loadsRemoved(),
      R.Promotion.ChecksInserted + R.Promotion.CascadeChecks);
}

/// Serializes a successful run into the cacheable result body. Every
/// field is deterministic for the request's canonical key: wall-clock
/// pass timings deliberately do not appear (PipelineResult::Timings is
/// documented nondeterministic), so a cache hit is byte-identical to
/// the cold run that produced it.
std::string runBody(const PipelineResult &R) {
  std::string Out;
  StringOStream OS(Out);
  JSONWriter W(OS, /*Compact=*/true);
  W.beginObject();
  W.key("status").value(0);
  W.key("ok").value(true);
  W.key("fingerprint").value(fingerprintOf(R));
  const arch::PerfCounters &C = R.Sim.Counters;
  W.key("counters");
  W.beginObject();
  W.key("cycles").value(C.Cycles);
  W.key("instructions").value(C.Instructions);
  W.key("retired_loads").value(C.RetiredLoads);
  W.key("retired_stores").value(C.RetiredStores);
  W.key("data_access_cycles").value(C.DataAccessCycles);
  W.key("alat_checks").value(C.AlatChecks);
  W.key("alat_check_failures").value(C.AlatCheckFailures);
  W.key("chk_a_recoveries").value(C.ChkARecoveries);
  W.key("rse_cycles").value(C.RseCycles);
  W.key("taken_branches").value(C.TakenBranches);
  W.endObject();
  const pre::PromotionStats &P = R.Promotion;
  W.key("promotion");
  W.beginObject();
  W.key("exprs").value(P.PromotedExprs);
  W.key("loads_removed_direct").value(P.LoadsRemovedDirect);
  W.key("loads_removed_indirect").value(P.LoadsRemovedIndirect);
  W.key("advanced_loads").value(P.AdvancedLoads);
  W.key("checks_inserted").value(P.ChecksInserted);
  W.key("cascade_checks").value(P.CascadeChecks);
  W.key("software_checks").value(P.SoftwareChecks);
  W.key("sta_stores").value(P.StAStores);
  W.endObject();
  W.key("regalloc");
  W.beginObject();
  W.key("spilled_regs").value(R.RegAlloc.SpilledRegs);
  W.key("max_int_pressure").value(R.RegAlloc.MaxIntPressure);
  W.key("max_fp_pressure").value(R.RegAlloc.MaxFpPressure);
  W.endObject();
  W.key("max_stacked_regs").value(R.MaxStackedRegs);
  W.key("spec_diags").value(static_cast<uint64_t>(R.SpecDiags.size()));
  W.key("taint_diags").value(static_cast<uint64_t>(R.TaintDiags.size()));
  W.key("exit_value").value(static_cast<int64_t>(R.Sim.ExitValue));
  W.key("output");
  W.beginArray();
  for (const std::string &Line : R.Output)
    W.value(Line);
  W.endArray();
  W.endObject();
  return Out;
}

/// Sorted name=value serialization of a stats registry snapshot.
std::string statsJson(const StatsRegistry &SR) {
  std::string Out;
  StringOStream OS(Out);
  JSONWriter W(OS, /*Compact=*/true);
  W.beginObject();
  for (const auto &[Name, Value] : SR.snapshot())
    W.key(Name).value(Value);
  W.endObject();
  return Out;
}

bool promotionForStrategy(std::string_view Name, pre::PromotionConfig &Out) {
  if (Name == "conservative")
    Out = pre::PromotionConfig::conservative();
  else if (Name == "baseline")
    Out = pre::PromotionConfig::baselineO3();
  else if (Name == "alat")
    Out = pre::PromotionConfig::alat();
  else
    return false;
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Request parsing and canonicalization
//===----------------------------------------------------------------------===//

/// A fully validated run request. CanonicalKey is the cache identity:
/// a fixed-order rendering of everything the pipeline result depends
/// on. For inline programs that includes the complete canonical module
/// text — the fingerprint only routes to a shard, so two distinct
/// canonicalized programs can never share a cache entry (DESIGN.md §8).
struct ServerCore::RunRequest {
  std::string IdJson = "null"; ///< Echoed request id, already JSON.
  bool IsProgram = false;
  std::string WorkloadName;
  uint64_t TrainScale = 0, RefScale = 0;
  std::string CanonicalProgram; ///< ir::canonicalModuleText of the input.
  PipelineConfig Config;
  std::string ConfigKey;
  std::string CanonicalKey;
};

namespace {

/// Fails with a status-2 body unless \p V (when present) is a boolean;
/// writes it through \p Out.
bool takeBool(const JSONValue &V, bool &Out) {
  if (!V.isBool())
    return false;
  Out = V.asBool();
  return true;
}

bool takeUint(const JSONValue &V, uint64_t &Out) {
  if (!V.isUint())
    return false;
  Out = V.asUint();
  return true;
}

} // namespace

ServerCore::ServerCore(ServeOptions O) : Opts(std::move(O)), Cache(Opts.Cache) {
  if (Opts.Threads == 0) {
    Opts.Threads = std::thread::hardware_concurrency();
    if (Opts.Threads == 0)
      Opts.Threads = 1;
  }
  FreeSlots = Opts.Threads;
}

std::string ServerCore::protocolErrorResponse(std::string_view Message) {
  StatsRegistry::current().add("serve.errors", 1);
  return makeResponse("null", false, nullptr, errorBody(2, Message));
}

std::vector<std::string>
ServerCore::handleBatch(const std::vector<std::string> &Lines) {
  std::vector<std::string> Responses(Lines.size());
  parallelFor(Opts.Threads, Lines.size(), [this, &Lines, &Responses](size_t I) {
    Responses[I] = handle(Lines[I]);
  });
  return Responses;
}

std::string ServerCore::handle(const std::string &Line) {
  StatsRegistry::current().add("serve.requests", 1);
  std::string Response = handleParsed(Line);
  return Response;
}

std::string ServerCore::handleParsed(const std::string &Line) {
  if (Line.size() > Opts.MaxLineBytes)
    return protocolErrorResponse(
        formatString("frame exceeds %zu bytes", Opts.MaxLineBytes));

  JSONValue Doc;
  std::string ParseError;
  if (!parseJSON(Line, Doc, ParseError))
    return protocolErrorResponse("malformed JSON: " + ParseError);
  if (!Doc.isObject())
    return protocolErrorResponse("request must be a JSON object");

  // The id is echoed even on errors found later, so extract it first.
  std::string IdJson = "null";
  if (const JSONValue *Id = Doc.find("id")) {
    if (!Id->isString() || Id->asString().size() > 256)
      return protocolErrorResponse("'id' must be a string of at most "
                                   "256 bytes");
    IdJson = jsonQuoted(Id->asString());
  }
  auto Fail = [&IdJson](int Status, const std::string &Message) {
    StatsRegistry::current().add("serve.errors", 1);
    return makeResponse(IdJson, false, nullptr, errorBody(Status, Message));
  };

  const JSONValue *Op = Doc.find("op");
  if (!Op)
    return Fail(2, "missing 'op'");
  if (!Op->isString())
    return Fail(2, "'op' must be a string");
  const std::string &OpName = Op->asString();

  // Field discipline: every member must be known for the op. Unknown
  // fields are errors, not ignored — a typoed "stratgy" silently
  // falling back to defaults would cache the wrong result under the
  // user's intended meaning.
  static constexpr std::string_view RunFields[] = {
      "id", "op", "workload", "program", "train_scale",
      "ref_scale", "config", "stats"};
  static constexpr std::string_view BareFields[] = {"id", "op"};
  bool IsRun = OpName == "run";
  for (const auto &[Name, Value] : Doc.members()) {
    const auto *Begin = IsRun ? std::begin(RunFields) : std::begin(BareFields);
    const auto *End = IsRun ? std::end(RunFields) : std::end(BareFields);
    if (std::find(Begin, End, std::string_view(Name)) == End)
      return Fail(2, "unknown field '" + Name + "' for op '" + OpName + "'");
  }

  if (OpName == "ping")
    return makeResponse(IdJson, false, nullptr,
                        "{\"status\":0,\"ok\":true,\"pong\":true}");

  if (OpName == "shutdown") {
    requestShutdown();
    return makeResponse(IdJson, false, nullptr,
                        "{\"status\":0,\"ok\":true,\"shutting_down\":true}");
  }

  if (OpName == "stats") {
    // Process-wide totals plus the cache's resident footprint.
    StatsRegistry Combined;
    Combined.merge(StatsRegistry::get());
    ResultCache::Stats CS = Cache.stats();
    Combined.add("serve.cache.resident_bytes", CS.Bytes);
    Combined.add("serve.cache.resident_entries", CS.Entries);
    std::string Body = "{\"status\":0,\"ok\":true,\"stats\":" +
                       statsJson(Combined) + "}";
    return makeResponse(IdJson, false, nullptr, Body);
  }

  if (OpName != "run")
    return Fail(2, "unknown op '" + OpName + "'");

  bool WantStats = false;
  if (const JSONValue *S = Doc.find("stats"))
    if (!takeBool(*S, WantStats))
      return Fail(2, "'stats' must be a boolean");

  RunRequest Req;
  const JSONValue *WorkloadV = Doc.find("workload");
  const JSONValue *ProgramV = Doc.find("program");
  if ((WorkloadV == nullptr) == (ProgramV == nullptr))
    return Fail(2, "exactly one of 'workload' and 'program' is required");

  // -- Configuration ------------------------------------------------------
  std::string Strategy = "alat";
  bool Cascade = false, StA = false, UseProfile = true, Andersen = false;
  uint64_t AlatEntries = 32, AlatWays = 2, AlatTagBits = 20;
  std::vector<std::string> Disabled;
  if (const JSONValue *Cfg = Doc.find("config")) {
    if (!Cfg->isObject())
      return Fail(2, "'config' must be an object");
    for (const auto &[Name, Value] : Cfg->members()) {
      if (Name == "strategy") {
        if (!Value.isString())
          return Fail(2, "'config.strategy' must be a string");
        Strategy = Value.asString();
      } else if (Name == "cascade") {
        if (!takeBool(Value, Cascade))
          return Fail(2, "'config.cascade' must be a boolean");
      } else if (Name == "sta") {
        if (!takeBool(Value, StA))
          return Fail(2, "'config.sta' must be a boolean");
      } else if (Name == "use_profile") {
        if (!takeBool(Value, UseProfile))
          return Fail(2, "'config.use_profile' must be a boolean");
      } else if (Name == "andersen") {
        if (!takeBool(Value, Andersen))
          return Fail(2, "'config.andersen' must be a boolean");
      } else if (Name == "alat_entries") {
        if (!takeUint(Value, AlatEntries) || AlatEntries > 4096)
          return Fail(2, "'config.alat_entries' must be an integer in "
                         "[0, 4096]");
      } else if (Name == "alat_ways") {
        if (!takeUint(Value, AlatWays) || AlatWays > 4096)
          return Fail(2, "'config.alat_ways' must be an integer in "
                         "[0, 4096]");
      } else if (Name == "alat_tag_bits") {
        if (!takeUint(Value, AlatTagBits) || AlatTagBits > 64)
          return Fail(2, "'config.alat_tag_bits' must be an integer in "
                         "[0, 64]");
      } else if (Name == "disable_passes") {
        if (!Value.isArray())
          return Fail(2, "'config.disable_passes' must be an array");
        for (size_t I = 0; I < Value.size(); ++I) {
          if (!Value.at(I).isString())
            return Fail(2, "'config.disable_passes' entries must be strings");
          Disabled.push_back(Value.at(I).asString());
        }
      } else {
        return Fail(2, "unknown field 'config." + Name + "'");
      }
    }
  }

  pre::PromotionConfig Promotion;
  if (!promotionForStrategy(Strategy, Promotion))
    return Fail(2, "unknown strategy '" + Strategy +
                       "' (conservative|baseline|alat)");
  Promotion.EnableCascade = Cascade;
  Promotion.UseStA = StA;

  std::vector<std::string> KnownPasses = standardPassNames();
  std::sort(Disabled.begin(), Disabled.end());
  Disabled.erase(std::unique(Disabled.begin(), Disabled.end()),
                 Disabled.end());
  for (const std::string &Name : Disabled)
    if (std::find(KnownPasses.begin(), KnownPasses.end(), Name) ==
        KnownPasses.end())
      return Fail(2, "unknown pass '" + Name + "' in disable_passes");

  Req.Config = configFor(Promotion);
  Req.Config.Sim.Alat.Entries = static_cast<unsigned>(AlatEntries);
  Req.Config.Sim.Alat.Ways = static_cast<unsigned>(AlatWays);
  Req.Config.Sim.Alat.PartialTagBits = static_cast<unsigned>(AlatTagBits);
  Req.Config.UseAliasProfile = UseProfile;
  Req.Config.UseAndersen = Andersen;
  Req.Config.DisabledPasses = Disabled;
  Req.Config.InterpFuel = Opts.InterpFuel;
  if (std::string Bad = validatePipelineConfig(Req.Config); !Bad.empty())
    return Fail(2, "invalid config: " + Bad);

  // Canonical config key: fixed order, every semantic field. DESIGN.md
  // §8 pins this format — changing it invalidates (not corrupts) every
  // cached entry.
  std::string DisabledJoined;
  for (const std::string &Name : Disabled) {
    if (!DisabledJoined.empty())
      DisabledJoined += '+';
    DisabledJoined += Name;
  }
  Req.ConfigKey = formatString(
      "strategy=%s,cascade=%u,sta=%u,profile=%u,andersen=%u,ae=%llu,aw=%llu,"
      "atb=%llu,fuel=%llu,disable=%s",
      Strategy.c_str(), Cascade ? 1 : 0, StA ? 1 : 0, UseProfile ? 1 : 0,
      Andersen ? 1 : 0, (unsigned long long)AlatEntries,
      (unsigned long long)AlatWays, (unsigned long long)AlatTagBits,
      (unsigned long long)Opts.InterpFuel, DisabledJoined.c_str());

  // -- Target -------------------------------------------------------------
  if (WorkloadV) {
    if (!WorkloadV->isString())
      return Fail(2, "'workload' must be a string");
    Req.WorkloadName = WorkloadV->asString();
    const Workload *Found = nullptr;
    for (const Workload &W : Opts.Workloads)
      if (W.Name == Req.WorkloadName)
        Found = &W;
    if (!Found)
      return Fail(2, "unknown workload '" + Req.WorkloadName + "'");
    Req.TrainScale = Found->TrainScale;
    Req.RefScale = Found->RefScale;
    if (const JSONValue *V = Doc.find("train_scale"))
      if (!takeUint(*V, Req.TrainScale))
        return Fail(2, "'train_scale' must be an unsigned integer");
    if (const JSONValue *V = Doc.find("ref_scale"))
      if (!takeUint(*V, Req.RefScale))
        return Fail(2, "'ref_scale' must be an unsigned integer");
    for (uint64_t Scale : {Req.TrainScale, Req.RefScale})
      if (Scale == 0 || Scale > Opts.MaxScale)
        return Fail(2, formatString("scales must be in [1, %llu]",
                                    (unsigned long long)Opts.MaxScale));
    Req.CanonicalKey =
        formatString("w/%s@%llu:%llu|", Req.WorkloadName.c_str(),
                     (unsigned long long)Req.TrainScale,
                     (unsigned long long)Req.RefScale) +
        Req.ConfigKey;
  } else {
    if (Doc.find("train_scale") || Doc.find("ref_scale"))
      return Fail(2, "scales apply to named workloads, not inline programs");
    if (!ProgramV->isString())
      return Fail(2, "'program' must be a string");
    const std::string &Text = ProgramV->asString();
    if (Text.size() > Opts.MaxProgramBytes)
      return Fail(2, formatString("program exceeds %zu bytes",
                                  Opts.MaxProgramBytes));
    ir::Module M;
    std::string Error;
    if (!ir::parseModule(Text, M, Error))
      return Fail(2, "program parse error: " + Error);
    std::vector<std::string> Errors = ir::verifyModule(M);
    if (!Errors.empty())
      return Fail(2, "program verify error: " + Errors.front());
    Req.IsProgram = true;
    Req.CanonicalProgram = ir::canonicalModuleText(M);
    // The full canonical text rides in the key (after the routing
    // fingerprint) — collision freedom by construction.
    Req.CanonicalKey =
        formatString("p/%016llx|",
                     (unsigned long long)fnv1a64(Req.CanonicalProgram)) +
        Req.ConfigKey + "\n" + Req.CanonicalProgram;
  }

  Req.IdJson = IdJson;
  return runOp(Req, WantStats);
}

std::string ServerCore::runOp(const RunRequest &Req, bool WantStats) {
  // The request's stats epoch: cache probes and (on a miss) the whole
  // pipeline run record into this thread's capture, which merges back
  // into the process totals when it dies. A pipeline runs entirely on
  // the calling thread, so the epoch is exact even while other requests
  // execute concurrently.
  ScopedStatsCapture Capture;

  if (std::optional<std::string> Body = Cache.lookup(Req.CanonicalKey)) {
    std::string Stats;
    if (WantStats)
      Stats = statsJson(Capture.captured());
    return makeResponse(Req.IdJson, /*Cached=*/true,
                        WantStats ? &Stats : nullptr, *Body);
  }

  // Bound in-flight pipeline runs; cache hits above never wait here.
  {
    std::unique_lock<std::mutex> Lock(SlotMutex);
    SlotCv.wait(Lock, [this] { return FreeSlots > 0; });
    --FreeSlots;
  }
  std::string Error;
  int ErrorStatus = 1;
  PipelineResult R = executeRun(Req, Error, ErrorStatus);
  {
    std::lock_guard<std::mutex> Lock(SlotMutex);
    ++FreeSlots;
  }
  SlotCv.notify_one();

  std::string Body;
  if (!Error.empty()) {
    // Failures are answered but never cached: a transient resource
    // condition must not poison repeats of the same key.
    StatsRegistry::current().add("serve.errors", 1);
    Body = errorBody(ErrorStatus, Error);
  } else {
    Body = runBody(R);
    Cache.insert(Req.CanonicalKey, Body);
  }
  std::string Stats;
  if (WantStats)
    Stats = statsJson(Capture.captured());
  return makeResponse(Req.IdJson, /*Cached=*/false,
                      WantStats ? &Stats : nullptr, Body);
}

PipelineResult ServerCore::executeRun(const RunRequest &Req,
                                      std::string &Error, int &ErrorStatus) {
  if (!Req.IsProgram) {
    const Workload *Found = nullptr;
    for (const Workload &W : Opts.Workloads)
      if (W.Name == Req.WorkloadName)
        Found = &W;
    if (!Found) { // validated at parse time; defensive
      ErrorStatus = 2;
      Error = "unknown workload '" + Req.WorkloadName + "'";
      return {};
    }
    Workload W = *Found;
    W.TrainScale = Req.TrainScale;
    W.RefScale = Req.RefScale;
    PipelineResult R = runPipeline(W, Req.Config, &Profiles);
    if (!R.Ok) {
      ErrorStatus = 1;
      Error = R.Error.empty() ? "pipeline failed" : R.Error;
    }
    return R;
  }

  // Inline-program mode mirrors srp-run on a .sir file: the module is
  // profiled and transformed in place, and the train run doubles as the
  // correctness oracle.
  ir::Module M;
  std::string ParseError;
  if (!ir::parseModule(Req.CanonicalProgram, M, ParseError)) {
    ErrorStatus = 2; // canonical text round-trips; defensive
    Error = "program parse error: " + ParseError;
    return {};
  }
  PipelineState S;
  S.External = &M;
  S.Config = Req.Config;
  PassManager PM;
  addStandardPasses(PM);
  if (!PM.run(S)) {
    ErrorStatus = 1;
    Error = S.Result.Error.empty() ? "pipeline failed" : S.Result.Error;
    return std::move(S.Result);
  }
  if (S.HasProfile && S.Result.Output != S.OracleOutput) {
    ErrorStatus = 1;
    Error = "MISCOMPILE: simulated output diverges from the interpreter";
  }
  return std::move(S.Result);
}

//===----------------------------------------------------------------------===//
// Daemon plumbing
//===----------------------------------------------------------------------===//

namespace {

/// Writes all of \p Data to \p Fd; MSG_NOSIGNAL so a client that went
/// away surfaces as EPIPE, not SIGPIPE.
bool sendAll(int Fd, std::string_view Data) {
  while (!Data.empty()) {
    ssize_t N = ::send(Fd, Data.data(), Data.size(), MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data.remove_prefix(static_cast<size_t>(N));
  }
  return true;
}

int connectTcpOnce(uint16_t Port, std::string &Error) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    Error = formatString("socket: %s", std::strerror(errno));
    return -1;
  }
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    Error = formatString("connect 127.0.0.1:%u: %s", unsigned(Port),
                         std::strerror(errno));
    ::close(Fd);
    return -1;
  }
  return Fd;
}

int connectUnixOnce(const std::string &Path, std::string &Error) {
  sockaddr_un Addr{};
  if (Path.empty() || Path.size() >= sizeof(Addr.sun_path)) {
    Error = "unix socket path empty or too long";
    return -1;
  }
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Error = formatString("socket: %s", std::strerror(errno));
    return -1;
  }
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    Error = formatString("connect %s: %s", Path.c_str(), std::strerror(errno));
    ::close(Fd);
    return -1;
  }
  return Fd;
}

} // namespace

int srp::core::listenTcp(uint16_t Port, std::string &Error) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    Error = formatString("socket: %s", std::strerror(errno));
    return -1;
  }
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      ::listen(Fd, 64) < 0) {
    Error = formatString("bind/listen 127.0.0.1:%u: %s", unsigned(Port),
                         std::strerror(errno));
    ::close(Fd);
    return -1;
  }
  return Fd;
}

int srp::core::listenUnix(const std::string &Path, std::string &Error) {
  sockaddr_un Addr{};
  if (Path.empty() || Path.size() >= sizeof(Addr.sun_path)) {
    Error = "unix socket path empty or too long";
    return -1;
  }
  ::unlink(Path.c_str()); // replace a stale socket file
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Error = formatString("socket: %s", std::strerror(errno));
    return -1;
  }
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      ::listen(Fd, 64) < 0) {
    Error = formatString("bind/listen %s: %s", Path.c_str(),
                         std::strerror(errno));
    ::close(Fd);
    return -1;
  }
  return Fd;
}

int srp::core::connectToServer(const std::string &Spec, unsigned RetryMs,
                               std::string &Error) {
  bool IsUnix = Spec.rfind("unix:", 0) == 0;
  bool IsTcp = Spec.rfind("tcp:", 0) == 0;
  uint16_t Port = 0;
  std::string Path;
  if (IsUnix) {
    Path = Spec.substr(5);
  } else if (IsTcp) {
    unsigned long Value = 0;
    const std::string Digits = Spec.substr(4);
    if (Digits.empty() ||
        Digits.find_first_not_of("0123456789") != std::string::npos ||
        (Value = std::stoul(Digits)) == 0 || Value > 65535) {
      Error = "tcp port must be in [1, 65535]: " + Spec;
      return -1;
    }
    Port = static_cast<uint16_t>(Value);
  } else {
    Error = "endpoint must be unix:PATH or tcp:PORT, got '" + Spec + "'";
    return -1;
  }

  for (unsigned WaitedMs = 0;; WaitedMs += 10) {
    std::string Attempt;
    int Fd = IsUnix ? connectUnixOnce(Path, Attempt)
                    : connectTcpOnce(Port, Attempt);
    if (Fd >= 0)
      return Fd;
    if (WaitedMs >= RetryMs) {
      Error = Attempt;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

void srp::core::serveConnection(ServerCore &Core, int Fd) {
  LineSplitter Splitter(Core.options().MaxLineBytes);
  std::vector<char> Buf(64u << 10);
  while (!Core.shutdownRequested()) {
    ssize_t N = ::recv(Fd, Buf.data(), Buf.size(), 0);
    if (N < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
        continue; // SO_RCVTIMEO tick: recheck shutdown
      break;
    }

    std::vector<std::string> Responses;
    if (N > 0) {
      std::vector<std::string> Frames;
      size_t Dropped =
          Splitter.feed(std::string_view(Buf.data(), size_t(N)), Frames);
      Responses = Core.handleBatch(Frames);
      // Dropped frames carried no parseable id; their error responses
      // follow the batch.
      for (size_t I = 0; I < Dropped; ++I)
        Responses.push_back(Core.protocolErrorResponse(formatString(
            "frame exceeds %zu bytes", Core.options().MaxLineBytes)));
    } else {
      // Peer half-closed. A frame cut short still gets its documented
      // error response before we close.
      std::string Partial;
      if (Splitter.finish(Partial))
        Responses.push_back(Core.protocolErrorResponse(
            "connection closed mid-frame (missing final newline)"));
    }

    bool WriteOk = true;
    for (std::string &R : Responses) {
      R += '\n';
      if (!sendAll(Fd, R)) {
        WriteOk = false;
        break;
      }
    }
    if (N == 0 || !WriteOk)
      break;
  }
  ::close(Fd);
}

int srp::core::runSocketServer(ServerCore &Core, int ListenFd) {
  std::vector<std::thread> Connections;
  int Ret = 0;
  while (!Core.shutdownRequested()) {
    pollfd P{ListenFd, POLLIN, 0};
    int R = ::poll(&P, 1, /*timeout ms=*/200);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      Ret = 1;
      break;
    }
    if (R == 0)
      continue; // timeout tick: recheck shutdown
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED)
        continue;
      Ret = 1;
      break;
    }
    // A receive timeout turns blocked connection threads into 200ms
    // pollers of the shutdown flag, so join() below always returns.
    timeval Tv{};
    Tv.tv_usec = 200'000;
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
    Connections.emplace_back([&Core, Fd] { serveConnection(Core, Fd); });
  }
  ::close(ListenFd);
  for (std::thread &T : Connections)
    T.join();
  return Ret;
}

int srp::core::runStdioServer(ServerCore &Core, std::FILE *In,
                              std::FILE *Out) {
  LineSplitter Splitter(Core.options().MaxLineBytes);
  std::vector<char> Buf(256u << 10);
  int InFd = fileno(In);
  while (!Core.shutdownRequested()) {
    // read(2), not fread: deliver whatever is available so pipelined
    // frames batch onto the pool instead of trickling one at a time.
    ssize_t N = ::read(InFd, Buf.data(), Buf.size());
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return 1;
    }

    std::vector<std::string> Responses;
    if (N > 0) {
      std::vector<std::string> Frames;
      size_t Dropped =
          Splitter.feed(std::string_view(Buf.data(), size_t(N)), Frames);
      Responses = Core.handleBatch(Frames);
      for (size_t I = 0; I < Dropped; ++I)
        Responses.push_back(Core.protocolErrorResponse(formatString(
            "frame exceeds %zu bytes", Core.options().MaxLineBytes)));
    } else {
      std::string Partial;
      if (Splitter.finish(Partial))
        Responses.push_back(Core.protocolErrorResponse(
            "input ended mid-frame (missing final newline)"));
    }

    for (const std::string &R : Responses) {
      std::fwrite(R.data(), 1, R.size(), Out);
      std::fputc('\n', Out);
    }
    std::fflush(Out);
    if (N == 0)
      break;
  }
  return 0;
}
