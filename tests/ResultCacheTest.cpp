//===- ResultCacheTest.cpp - Content-addressed result cache tests ---------===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving cache's three contracts (core/ResultCache.h):
///
///  * a hit is the cold run, byte for byte — verified over the full
///    10-workload x 3-strategy grid through ServerCore;
///  * eviction under an adversarially tiny byte budget never corrupts:
///    a lookup returns the exact inserted body or nothing;
///  * collisions are impossible by construction: entries compare by
///    full key — verified differentially over every fuzz-repros/
///    program plus 500 generated programs.
///
//===----------------------------------------------------------------------===//

#include "core/ResultCache.h"
#include "core/Serve.h"
#include "fuzz/Fuzzer.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "support/Hash.h"
#include "support/StringUtils.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <map>
#include <set>
#include <string>
#include <vector>

using namespace srp;
using namespace srp::core;

namespace {

std::string runRequest(const char *Workload, const char *Strategy) {
  return formatString("{\"id\":\"r\",\"op\":\"run\",\"workload\":\"%s\","
                      "\"train_scale\":1,\"ref_scale\":2,"
                      "\"config\":{\"strategy\":\"%s\"}}",
                      Workload, Strategy);
}

/// The "result":... tail — the cache-governed part of a response frame.
std::string_view resultTail(std::string_view Response) {
  size_t At = Response.find("\"result\":");
  EXPECT_NE(At, std::string_view::npos) << Response;
  return At == std::string_view::npos ? Response : Response.substr(At);
}

ServeOptions serveOptions() {
  ServeOptions O;
  O.Threads = 1;
  O.Workloads = workloads::standardWorkloads();
  return O;
}

// A cache hit answers with the cold run's result body, byte for byte,
// across the whole evaluation grid. This is the acceptance invariant:
// the counter fingerprint inside the body is deterministic, so byte
// identity of the tail implies fingerprint identity.
TEST(ResultCacheServing, HitIsByteIdenticalToColdAcrossGrid) {
  ServerCore Core(serveOptions());
  static const char *const Strategies[] = {"conservative", "baseline",
                                           "alat"};
  std::vector<std::string> Requests;
  for (const Workload &W : workloads::standardWorkloads())
    for (const char *Strategy : Strategies)
      Requests.push_back(runRequest(W.Name.c_str(), Strategy));
  ASSERT_EQ(Requests.size(), 30u);

  std::vector<std::string> Cold;
  for (const std::string &Request : Requests) {
    Cold.push_back(Core.handle(Request));
    EXPECT_NE(Cold.back().find("\"cached\":false"), std::string::npos);
    EXPECT_NE(Cold.back().find("\"status\":0"), std::string::npos)
        << Cold.back();
  }
  ResultCache::Stats AfterCold = Core.cache().stats();
  EXPECT_EQ(AfterCold.Insertions, 30u);
  EXPECT_EQ(AfterCold.Misses, 30u);
  EXPECT_EQ(AfterCold.Hits, 0u);

  for (size_t I = 0; I < Requests.size(); ++I) {
    std::string Warm = Core.handle(Requests[I]);
    EXPECT_NE(Warm.find("\"cached\":true"), std::string::npos) << Warm;
    EXPECT_EQ(resultTail(Warm), resultTail(Cold[I]));
  }
  ResultCache::Stats AfterWarm = Core.cache().stats();
  EXPECT_EQ(AfterWarm.Hits, 30u);
  EXPECT_EQ(AfterWarm.Evictions, 0u);
}

// Under a byte budget far smaller than the working set, lookups must
// return exactly what insert stored or nothing at all — never a body
// belonging to another key, never a torn value.
TEST(ResultCacheTest, TinyBudgetEvictsWithoutCorruption) {
  ResultCacheConfig Config;
  Config.ByteBudget = 512;
  ResultCache Cache(Config);

  std::map<std::string, std::string> Truth;
  for (int Round = 0; Round < 400; ++Round) {
    std::string Key = formatString("key-%d", Round % 57);
    std::string Body = formatString("body-%d-%d|", Round % 57, Round) +
                       std::string(static_cast<size_t>(Round % 90), 'x');
    Cache.insert(Key, Body);
    Truth[Key] = Body;

    // Probe a sliding window of recent keys.
    for (int Probe = Round; Probe > Round - 8 && Probe >= 0; --Probe) {
      std::string ProbeKey = formatString("key-%d", Probe % 57);
      if (std::optional<std::string> Got = Cache.lookup(ProbeKey)) {
        EXPECT_EQ(*Got, Truth[ProbeKey]) << "corrupt hit for " << ProbeKey;
      }
    }
    ResultCache::Stats S = Cache.stats();
    EXPECT_LE(S.Bytes, Config.ByteBudget);
  }
  EXPECT_GT(Cache.stats().Evictions, 0u);
}

// An entry bigger than the whole budget is refused outright rather
// than thrashing the cache empty.
TEST(ResultCacheTest, OversizedEntryIsUncacheable) {
  ResultCacheConfig Config;
  Config.ByteBudget = 100;
  ResultCache Cache(Config);
  Cache.insert("small", "v");
  Cache.insert("huge", std::string(200, 'x'));
  EXPECT_EQ(Cache.stats().Uncacheable, 1u);
  ASSERT_TRUE(Cache.lookup("small").has_value());
  EXPECT_FALSE(Cache.lookup("huge").has_value());
}

// Replacing an existing key keeps exactly one entry and serves the new
// body.
TEST(ResultCacheTest, ReplaceUpdatesInPlace) {
  ResultCache Cache;
  Cache.insert("k", "first");
  Cache.insert("k", "second");
  EXPECT_EQ(Cache.stats().Entries, 1u);
  ASSERT_TRUE(Cache.lookup("k").has_value());
  EXPECT_EQ(*Cache.lookup("k"), "second");
}

// Collision freedom by construction, checked differentially: canonical
// texts (ir::moduleToString) of every fuzz repro and 500 generated
// programs go into one cache, and each key must come back with its own
// body. Also pins canonicalization idempotence — parsing the canonical
// text and printing it again is a fixpoint — since the canonical text
// *is* the cache identity.
TEST(ResultCacheTest, DistinctProgramsNeverAlias) {
  std::vector<std::string> Programs;
  std::string Dir = std::string(SRP_SOURCE_DIR) + "/fuzz-repros";
  if (DIR *D = ::opendir(Dir.c_str())) {
    std::vector<std::string> Names;
    while (dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      if (Name.size() > 4 && Name.substr(Name.size() - 4) == ".sir")
        Names.push_back(Dir + "/" + Name);
    }
    ::closedir(D);
    std::sort(Names.begin(), Names.end());
    for (const std::string &Path : Names) {
      std::FILE *File = std::fopen(Path.c_str(), "rb");
      ASSERT_NE(File, nullptr) << Path;
      std::string Text;
      char Buf[4096];
      size_t N;
      while ((N = std::fread(Buf, 1, sizeof(Buf), File)) > 0)
        Text.append(Buf, N);
      std::fclose(File);
      Programs.push_back(std::move(Text));
    }
    EXPECT_GT(Programs.size(), 0u) << "no .sir repros under " << Dir;
  }
  for (uint64_t Seed = 0; Seed < 500; ++Seed)
    Programs.push_back(
        fuzz::generatedProgramText(/*ShapeSeed=*/Seed, /*ProgSeed=*/Seed));

  ResultCache Cache;
  std::map<std::string, std::string> Truth;
  std::set<uint64_t> Hashes;
  for (size_t I = 0; I < Programs.size(); ++I) {
    ir::Module M;
    std::string Error;
    ASSERT_TRUE(ir::parseModule(Programs[I], M, Error)) << Error;
    std::string Canonical = ir::moduleToString(M);

    // Idempotence: canonical text is a fixpoint of parse+print.
    ir::Module M2;
    ASSERT_TRUE(ir::parseModule(Canonical, M2, Error)) << Error;
    EXPECT_EQ(ir::moduleToString(M2), Canonical);

    Hashes.insert(fnv1a64(Canonical));
    std::string Body = formatString("body-%zu", I);
    auto [It, Inserted] = Truth.emplace(Canonical, Body);
    if (Inserted)
      Cache.insert(Canonical, Body);
  }
  // Every distinct canonical program must answer with its own body,
  // whatever its hash did.
  for (const auto &[Key, Body] : Truth) {
    std::optional<std::string> Got = Cache.lookup(Key);
    ASSERT_TRUE(Got.has_value());
    EXPECT_EQ(*Got, Body);
  }
  // Not a correctness requirement — collisions would be benign — but
  // FNV-1a over these canonical texts should in practice be injective;
  // a large dip would mean the hash is broken (e.g. hashing only
  // a prefix).
  EXPECT_GT(Hashes.size(), Truth.size() - 3);
}

} // namespace
