//===- srp-load.cpp - Load generator and serving benchmark ---------------------===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives a running srp-serve daemon with a deterministic mix of unique,
/// repeated, and malformed requests over N concurrent connections, and
/// verifies the serving contract as it goes:
///
///  * every repeat's result body must be byte-identical to the cold
///    response for the same canonical request (the content-addressed
///    cache promise);
///  * every malformed frame must come back as a status-2 error response
///    on a still-usable connection (the total-protocol promise).
///
/// With --json=PATH it emits BENCH_serve.json in the srp-bench/1 schema
/// (gated by tools/bench_diff.py): the deterministic counter fingerprint
/// is the sum over the unique grid's cold responses; wall_clock_us.j1_p50
/// is the cold-phase per-request p50 and jn_p50 the warm-phase p50, and a
/// "serve" section adds requests/sec, p99, and the cache hit rate
/// (DESIGN.md §8).
///
/// Exit codes: 0 all checks passed, 1 verification or connection
/// failure, 2 usage error.
///
//===----------------------------------------------------------------------===//

#include "core/Serve.h"
#include "support/JSON.h"
#include "support/JSONReader.h"
#include "support/OStream.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

using namespace srp;

namespace {

struct Options {
  std::string Connect;
  unsigned Threads = 0;       ///< 0: hardware concurrency
  unsigned WarmRequests = 200;
  unsigned MalformedPct = 10; ///< percentage of warm requests
  uint64_t Seed = 1;
  std::string JsonPath;       ///< emit srp-bench/1 report here
  std::string Label = "serve";
  bool Shutdown = false;      ///< send a shutdown op when done
};

void usage(std::FILE *To) {
  std::fputs(
      "usage: srp-load --connect=unix:PATH|tcp:PORT [options]\n"
      "\n"
      "options:\n"
      "  --threads=N        concurrent client connections (default: hw)\n"
      "  --requests=N       warm-phase request count (default 200)\n"
      "  --malformed-pct=N  percent of warm requests sent malformed "
      "(default 10)\n"
      "  --seed=N           deterministic schedule seed (default 1)\n"
      "  --json=PATH        write an srp-bench/1 report (BENCH_serve.json)\n"
      "  --label=STR        report label (default 'serve')\n"
      "  --shutdown         ask the daemon to shut down when done\n",
      To);
}

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    if (startsWith(Arg, "--connect=")) {
      Opts.Connect = std::string(Arg.substr(10));
    } else if (startsWith(Arg, "--threads=")) {
      if (!parseUnsigned(Arg.substr(10), Opts.Threads) || Opts.Threads == 0 ||
          Opts.Threads > 256)
        return false;
    } else if (startsWith(Arg, "--requests=")) {
      if (!parseUnsigned(Arg.substr(11), Opts.WarmRequests) ||
          Opts.WarmRequests == 0)
        return false;
    } else if (startsWith(Arg, "--malformed-pct=")) {
      if (!parseUnsigned(Arg.substr(16), Opts.MalformedPct) ||
          Opts.MalformedPct > 100)
        return false;
    } else if (startsWith(Arg, "--seed=")) {
      if (!parseUnsigned(Arg.substr(7), Opts.Seed))
        return false;
    } else if (startsWith(Arg, "--json=")) {
      Opts.JsonPath = std::string(Arg.substr(7));
    } else if (startsWith(Arg, "--label=")) {
      Opts.Label = std::string(Arg.substr(8));
    } else if (Arg == "--shutdown") {
      Opts.Shutdown = true;
    } else if (Arg == "--help" || Arg == "-h") {
      usage(stdout);
      std::exit(0);
    } else {
      std::fprintf(stderr, "srp-load: unknown option '%s'\n",
                   std::string(Arg).c_str());
      return false;
    }
  }
  if (Opts.Connect.empty()) {
    std::fprintf(stderr, "srp-load: --connect is required\n");
    return false;
  }
  return true;
}

/// Deterministic xorshift64 — the schedule must not depend on the
/// platform's std::mt19937 details.
struct Rng {
  uint64_t S;
  uint64_t next() {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    return S;
  }
};

/// One synchronous NDJSON connection: send a frame, read one line back.
class Connection {
public:
  bool open(const std::string &Spec, std::string &Error) {
    Fd = core::connectToServer(Spec, /*RetryMs=*/5000, Error);
    return Fd >= 0;
  }
  ~Connection() {
    if (Fd >= 0)
      ::close(Fd);
  }

  bool roundTrip(std::string Line, std::string &Response) {
    Line += '\n';
    std::string_view Data = Line;
    while (!Data.empty()) {
      ssize_t N = ::send(Fd, Data.data(), Data.size(), MSG_NOSIGNAL);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      Data.remove_prefix(static_cast<size_t>(N));
    }
    return readLine(Response);
  }

private:
  bool readLine(std::string &Out) {
    for (;;) {
      size_t Newline = Buf.find('\n');
      if (Newline != std::string::npos) {
        Out = Buf.substr(0, Newline);
        Buf.erase(0, Newline + 1);
        return true;
      }
      char Chunk[16 << 10];
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      if (N == 0)
        return false;
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }

  int Fd = -1;
  std::string Buf;
};

/// The unique-request grid: the ten standard workloads under the three
/// promotion strategies, at smoke scales. Same axes as srp-bench.
const char *const WorkloadNames[] = {"ammp",   "art",    "equake", "bzip2",
                                     "gzip",   "mcf",    "parser", "twolf",
                                     "vortex", "vpr"};
const char *const ConfigNames[] = {"conservative", "baseline", "alat"};
constexpr size_t NumUnique = std::size(WorkloadNames) * std::size(ConfigNames);

std::string uniqueRequest(size_t I) {
  const char *Workload = WorkloadNames[I % std::size(WorkloadNames)];
  const char *Config = ConfigNames[I / std::size(WorkloadNames)];
  return formatString("{\"id\":\"u%zu\",\"op\":\"run\",\"workload\":\"%s\","
                      "\"train_scale\":1,\"ref_scale\":2,"
                      "\"config\":{\"strategy\":\"%s\"}}",
                      I, Workload, Config);
}

std::string malformedRequest(uint64_t Variant) {
  switch (Variant % 6) {
  case 0:
    return "{ this is not json";
  case 1:
    return "[1,2,3]";
  case 2:
    return "{\"id\":\"m\",\"op\":\"frobnicate\"}";
  case 3:
    return "{\"id\":\"m\",\"op\":\"run\",\"workload\":\"gzip\",\"bogus\":1}";
  case 4:
    return "{\"id\":\"m\",\"op\":\"run\",\"workload\":\"gzip\","
           "\"config\":{\"strategy\":7}}";
  default:
    return "{\"id\":\"m\",\"op\":\"run\",\"workload\":\"no-such-workload\"}";
  }
}

/// The "result":... tail of a response frame — the part that must be
/// byte-identical between a cold run and its cached repeats (the id
/// matches too since repeats resend the same line; only "cached" may
/// differ, and it precedes the result).
std::string_view resultTail(std::string_view Response) {
  size_t At = Response.find("\"result\":");
  return At == std::string_view::npos ? Response : Response.substr(At);
}

int64_t statusOf(const std::string &Response) {
  JSONValue Doc;
  std::string Error;
  if (!parseJSON(Response, Doc, Error) || !Doc.isObject())
    return -1;
  const JSONValue *Result = Doc.find("result");
  if (!Result || !Result->isObject())
    return -1;
  const JSONValue *Status = Result->find("status");
  if (!Status || !Status->isNumber())
    return -1;
  return Status->isUint() ? static_cast<int64_t>(Status->asUint())
                          : Status->asInt();
}

uint64_t percentileUs(std::vector<uint64_t> Sorted, double P) {
  if (Sorted.empty())
    return 0;
  std::sort(Sorted.begin(), Sorted.end());
  size_t Index = static_cast<size_t>(P * double(Sorted.size() - 1) + 0.5);
  return Sorted[std::min(Index, Sorted.size() - 1)];
}

struct WarmItem {
  bool Malformed;
  uint64_t Value; ///< unique index, or malformed variant
};

struct Totals {
  uint64_t Cycles = 0, Instructions = 0, RetiredLoads = 0;
  uint64_t PromotionExprs = 0, LoadsRemoved = 0, Checks = 0;
};

/// Accumulates one cold response's counters into the deterministic
/// fingerprint; false when the response shape is unexpected.
bool accumulate(const std::string &Response, Totals &T) {
  JSONValue Doc;
  std::string Error;
  if (!parseJSON(Response, Doc, Error) || !Doc.isObject())
    return false;
  const JSONValue *Result = Doc.find("result");
  if (!Result || !Result->isObject())
    return false;
  const JSONValue *Counters = Result->find("counters");
  const JSONValue *Promotion = Result->find("promotion");
  if (!Counters || !Counters->isObject() || !Promotion ||
      !Promotion->isObject())
    return false;
  auto U = [](const JSONValue *Object, const char *Key) -> uint64_t {
    const JSONValue *V = Object->find(Key);
    return V && V->isUint() ? V->asUint() : 0;
  };
  T.Cycles += U(Counters, "cycles");
  T.Instructions += U(Counters, "instructions");
  T.RetiredLoads += U(Counters, "retired_loads");
  T.PromotionExprs += U(Promotion, "exprs");
  T.LoadsRemoved += U(Promotion, "loads_removed_direct") +
                    U(Promotion, "loads_removed_indirect");
  T.Checks += U(Promotion, "checks_inserted") + U(Promotion, "cascade_checks");
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    usage(stderr);
    return 2;
  }
  if (Opts.Threads == 0) {
    Opts.Threads = std::thread::hardware_concurrency();
    if (Opts.Threads == 0)
      Opts.Threads = 1;
  }

  using Clock = std::chrono::steady_clock;
  auto ElapsedUs = [](Clock::time_point From, Clock::time_point To) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(To - From)
            .count());
  };

  // One connection per worker, all opened up front (with retry, so the
  // daemon may still be starting).
  std::vector<Connection> Conns(Opts.Threads);
  for (Connection &C : Conns) {
    std::string Error;
    if (!C.open(Opts.Connect, Error)) {
      std::fprintf(stderr, "srp-load: %s\n", Error.c_str());
      return 1;
    }
  }

  std::atomic<uint64_t> Failures{0};
  auto Complain = [&Failures](const char *What, const std::string &Detail) {
    Failures.fetch_add(1);
    std::fprintf(stderr, "srp-load: FAIL %s: %.300s\n", What, Detail.c_str());
  };

  // -- Cold phase: every unique request exactly once ----------------------
  std::vector<std::string> ColdResponses(NumUnique);
  std::vector<uint64_t> ColdLatencies(NumUnique, 0);
  std::atomic<size_t> Next{0};
  auto ColdStart = Clock::now();
  {
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T < Opts.Threads; ++T)
      Threads.emplace_back([&, T] {
        for (size_t I; (I = Next.fetch_add(1)) < NumUnique;) {
          auto Start = Clock::now();
          if (!Conns[T].roundTrip(uniqueRequest(I), ColdResponses[I])) {
            Complain("cold round-trip", uniqueRequest(I));
            return;
          }
          ColdLatencies[I] = ElapsedUs(Start, Clock::now());
          if (statusOf(ColdResponses[I]) != 0)
            Complain("cold request rejected", ColdResponses[I]);
        }
      });
    for (std::thread &T : Threads)
      T.join();
  }
  uint64_t ColdWallUs = ElapsedUs(ColdStart, Clock::now());
  if (Failures.load() != 0)
    return 1;

  // -- Warm phase: deterministic repeat/malformed mix ---------------------
  std::vector<WarmItem> Schedule(Opts.WarmRequests);
  Rng R{Opts.Seed * 0x9e3779b97f4a7c15ULL + 1};
  for (WarmItem &Item : Schedule) {
    uint64_t Roll = R.next();
    Item.Malformed = Roll % 100 < Opts.MalformedPct;
    Item.Value = Item.Malformed ? R.next() : R.next() % NumUnique;
  }

  std::vector<std::vector<uint64_t>> WarmLatencies(Opts.Threads);
  Next.store(0);
  auto WarmStart = Clock::now();
  {
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T < Opts.Threads; ++T)
      Threads.emplace_back([&, T] {
        std::string Response;
        for (size_t I; (I = Next.fetch_add(1)) < Schedule.size();) {
          const WarmItem &Item = Schedule[I];
          std::string Line = Item.Malformed ? malformedRequest(Item.Value)
                                            : uniqueRequest(Item.Value);
          auto Start = Clock::now();
          if (!Conns[T].roundTrip(std::move(Line), Response)) {
            Complain("warm round-trip", Response);
            return;
          }
          WarmLatencies[T].push_back(ElapsedUs(Start, Clock::now()));
          if (Item.Malformed) {
            // The documented error taxonomy: malformed input is a
            // status-2 response, never silence, never a closed socket.
            if (statusOf(Response) != 2)
              Complain("malformed request not status 2", Response);
          } else if (resultTail(Response) !=
                     resultTail(ColdResponses[Item.Value])) {
            Complain("repeat diverged from cold response", Response);
          }
        }
      });
    for (std::thread &T : Threads)
      T.join();
  }
  uint64_t WarmWallUs = ElapsedUs(WarmStart, Clock::now());

  // -- Daemon-side totals -------------------------------------------------
  uint64_t CacheHits = 0, CacheMisses = 0;
  {
    std::string Response;
    if (Conns[0].roundTrip("{\"id\":\"stats\",\"op\":\"stats\"}", Response)) {
      JSONValue Doc;
      std::string Error;
      if (parseJSON(Response, Doc, Error) && Doc.isObject()) {
        if (const JSONValue *Result = Doc.find("result"))
          if (const JSONValue *Stats = Result->find("stats")) {
            if (const JSONValue *V = Stats->find("serve.cache.hits"))
              CacheHits = V->isUint() ? V->asUint() : 0;
            if (const JSONValue *V = Stats->find("serve.cache.misses"))
              CacheMisses = V->isUint() ? V->asUint() : 0;
          }
      }
    } else {
      Complain("stats round-trip", Response);
    }
  }

  Totals T;
  for (const std::string &Response : ColdResponses)
    if (!accumulate(Response, T))
      Complain("cold response shape", Response);

  if (Opts.Shutdown) {
    std::string Response;
    Conns[0].roundTrip("{\"id\":\"bye\",\"op\":\"shutdown\"}", Response);
  }

  // -- Report -------------------------------------------------------------
  std::vector<uint64_t> AllWarm;
  for (const std::vector<uint64_t> &L : WarmLatencies)
    AllWarm.insert(AllWarm.end(), L.begin(), L.end());
  uint64_t ColdP50 = percentileUs(ColdLatencies, 0.50);
  uint64_t WarmP50 = percentileUs(AllWarm, 0.50);
  uint64_t WarmP99 = percentileUs(AllWarm, 0.99);
  double Rps = WarmWallUs ? double(AllWarm.size()) * 1e6 / double(WarmWallUs)
                          : 0.0;
  double HitRate = (CacheHits + CacheMisses)
                       ? double(CacheHits) / double(CacheHits + CacheMisses)
                       : 0.0;

  std::fprintf(stderr,
               "srp-load: %zu unique in %llu us (p50 %llu us), %zu warm in "
               "%llu us (p50 %llu us, p99 %llu us, %.0f req/s), hit rate "
               "%.2f, %llu failures\n",
               NumUnique, (unsigned long long)ColdWallUs,
               (unsigned long long)ColdP50, AllWarm.size(),
               (unsigned long long)WarmWallUs, (unsigned long long)WarmP50,
               (unsigned long long)WarmP99, Rps, HitRate,
               (unsigned long long)Failures.load());

  if (!Opts.JsonPath.empty()) {
    std::FILE *File = std::fopen(Opts.JsonPath.c_str(), "w");
    if (!File) {
      std::fprintf(stderr, "srp-load: cannot write %s\n",
                   Opts.JsonPath.c_str());
      return 1;
    }
    FileOStream OS(File);
    JSONWriter W(OS);
    W.beginObject();
    W.key("schema").value("srp-bench/1");
    W.key("label").value(Opts.Label);
    W.key("smoke").value(true);
    W.key("repeat").value(1);
    W.key("grid");
    W.beginObject();
    W.key("pipelines").value(static_cast<uint64_t>(NumUnique));
    W.key("workloads").beginArray();
    for (const char *Name : WorkloadNames)
      W.value(Name);
    W.endArray();
    W.key("configs").beginArray();
    for (const char *Name : ConfigNames)
      W.value(Name);
    W.endArray();
    W.endObject();
    // j1_p50 = cold per-request p50 (one pipeline run each); jn_p50 =
    // warm per-request p50 (mostly cache hits); their ratio is the
    // serving speedup. Trajectory only: nothing gates wall clock here.
    W.key("wall_clock_us");
    W.beginObject();
    W.key("j1_p50").value(ColdP50);
    W.key("jn_p50").value(WarmP50);
    W.key("threads").value(static_cast<uint64_t>(Opts.Threads));
    W.endObject();
    W.key("counters");
    W.beginObject();
    W.key("sim.cycles").value(T.Cycles);
    W.key("sim.instructions").value(T.Instructions);
    W.key("sim.retired_loads").value(T.RetiredLoads);
    W.key("promotion.exprs").value(T.PromotionExprs);
    W.key("promotion.loads_removed").value(T.LoadsRemoved);
    W.key("promotion.checks").value(T.Checks);
    W.endObject();
    W.key("serve");
    W.beginObject();
    W.key("warm_requests").value(static_cast<uint64_t>(AllWarm.size()));
    W.key("malformed_pct").value(static_cast<uint64_t>(Opts.MalformedPct));
    W.key("seed").value(Opts.Seed);
    W.key("cold_wall_us").value(ColdWallUs);
    W.key("warm_wall_us").value(WarmWallUs);
    W.key("warm_rps").value(static_cast<uint64_t>(Rps));
    W.key("warm_p99_us").value(WarmP99);
    W.key("cache_hits").value(CacheHits);
    W.key("cache_misses").value(CacheMisses);
    // Per-request speedup of a warm repeat over a cold compile —
    // the acceptance bar is >= 5x.
    W.key("warm_speedup_x")
        .value(WarmP50 ? ColdP50 / std::max<uint64_t>(WarmP50, 1) : 0);
    W.endObject();
    W.endObject();
    OS << "\n";
    OS.flush();
    std::fclose(File);
  }

  return Failures.load() == 0 ? 0 : 1;
}
