//===- ServeProtocolTest.cpp - Serve protocol end-to-end tests ------------===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end round-trips against an in-process ServerCore, plus the
/// real transports (a socketpair connection, stdio over pipes, socket
/// servers on a Unix path and a loopback TCP port): well-formed requests,
/// the whole documented error taxonomy (malformed JSON, unknown fields,
/// oversized programs, out-of-range scales — all status 2, mirroring
/// srp-run's exit codes), half-closed connections, frame-decoder edge
/// cases, malformed endpoints, counter fingerprints byte-identical to
/// direct runPipeline, and per-request stats epochs. The server must
/// answer every abuse with one JSON error frame — never silence, never
/// an abort.
///
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "core/Serve.h"
#include "interp/Interpreter.h"
#include "ir/CFG.h"
#include "ir/Parser.h"
#include "support/JSONReader.h"
#include "support/StringUtils.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace srp;
using namespace srp::core;

namespace {

ServeOptions testOptions() {
  ServeOptions O;
  O.Threads = 2;
  O.Workloads = workloads::standardWorkloads();
  return O;
}

/// Parses a response frame and returns result.status (-1 on shape
/// violations, which EXPECT separately).
int64_t statusOf(const std::string &Response) {
  JSONValue Doc;
  std::string Error;
  if (!parseJSON(Response, Doc, Error) || !Doc.isObject())
    return -1;
  const JSONValue *Result = Doc.find("result");
  if (!Result || !Result->isObject())
    return -1;
  const JSONValue *Status = Result->find("status");
  return Status && Status->isUint() ? int64_t(Status->asUint()) : -1;
}

std::string_view resultTail(std::string_view Response) {
  size_t At = Response.find("\"result\":");
  return At == std::string_view::npos ? Response : Response.substr(At);
}

TEST(ServeProtocol, PingStatsShutdown) {
  ServerCore Core(testOptions());
  std::string Pong = Core.handle("{\"id\":\"a\",\"op\":\"ping\"}");
  EXPECT_EQ(Pong,
            "{\"id\":\"a\",\"cached\":false,\"result\":{\"status\":0,"
            "\"ok\":true,\"pong\":true}}");

  std::string Stats = Core.handle("{\"op\":\"stats\"}");
  EXPECT_EQ(statusOf(Stats), 0);
  EXPECT_NE(Stats.find("serve.requests"), std::string::npos);

  EXPECT_FALSE(Core.shutdownRequested());
  std::string Bye = Core.handle("{\"op\":\"shutdown\"}");
  EXPECT_EQ(statusOf(Bye), 0);
  EXPECT_TRUE(Core.shutdownRequested());
}

// Every documented abuse maps to a status-2 error response with the
// request id echoed when one was parseable — exactly srp-run's usage
// exit code, surfaced per request instead of per process.
TEST(ServeProtocol, ErrorTaxonomyIsStatus2) {
  ServerCore Core(testOptions());
  const char *Abuses[] = {
      "{ not json",
      "[1,2,3]",
      "\"just a string\"",
      "{\"op\":\"ping\",\"op\":\"ping\"}",          // duplicate key
      "{\"op\":\"frobnicate\"}",                    // unknown op
      "{}",                                         // missing op
      "{\"op\":12}",                                // op type
      "{\"id\":7,\"op\":\"ping\"}",                 // non-string id
      "{\"op\":\"ping\",\"extra\":1}",              // unknown field
      "{\"op\":\"run\"}",                           // no target
      "{\"op\":\"run\",\"workload\":\"gzip\",\"program\":\"x\"}",
      "{\"op\":\"run\",\"workload\":\"nope\"}",     // unknown workload
      "{\"op\":\"run\",\"workload\":12}",           // workload type
      "{\"op\":\"run\",\"workload\":\"gzip\",\"train_scale\":0}",
      "{\"op\":\"run\",\"workload\":\"gzip\",\"ref_scale\":100000}",
      "{\"op\":\"run\",\"program\":\"global x\"}",  // parse error
      "{\"op\":\"run\",\"workload\":\"gzip\",\"stats\":\"yes\"}",
      "{\"op\":\"run\",\"workload\":\"gzip\",\"config\":[]}",
      "{\"op\":\"run\",\"workload\":\"gzip\","
      "\"config\":{\"strategy\":\"turbo\"}}",
      "{\"op\":\"run\",\"workload\":\"gzip\","
      "\"config\":{\"mystery\":true}}",
      "{\"op\":\"run\",\"workload\":\"gzip\","
      "\"config\":{\"alat_entries\":0}}",           // invalid geometry
      "{\"op\":\"run\",\"workload\":\"gzip\","
      "\"config\":{\"alat_entries\":48,\"alat_ways\":5}}",
      "{\"op\":\"run\",\"workload\":\"gzip\","
      "\"config\":{\"disable_passes\":[\"warp\"]}}",
      "{\"op\":\"run\",\"program\":\"g\",\"train_scale\":2}",
  };
  for (const char *Abuse : Abuses) {
    std::string Response = Core.handle(Abuse);
    EXPECT_EQ(statusOf(Response), 2) << Abuse << " -> " << Response;
    EXPECT_NE(Response.find("\"error\":"), std::string::npos) << Response;
  }
  // Abuse never poisons the cache or the server: a good request still
  // works and nothing was cached.
  EXPECT_EQ(Core.cache().stats().Insertions, 0u);
  EXPECT_EQ(statusOf(Core.handle("{\"op\":\"ping\"}")), 0);
}

TEST(ServeProtocol, OversizedProgramRejected) {
  ServeOptions O = testOptions();
  O.MaxProgramBytes = 64;
  ServerCore Core(std::move(O));
  std::string Request = "{\"op\":\"run\",\"program\":\"";
  Request.append(200, 'g');
  Request += "\"}";
  std::string Response = Core.handle(Request);
  EXPECT_EQ(statusOf(Response), 2);
  EXPECT_NE(Response.find("exceeds"), std::string::npos) << Response;
}

// The served counter fingerprint must be byte-identical to what a
// standalone run of the same (workload, config) computes — the serving
// layer can cache and batch, but never perturb, a pipeline.
TEST(ServeProtocol, FingerprintMatchesDirectPipeline) {
  Workload W = workloads::gzipWorkload();
  W.TrainScale = 1;
  W.RefScale = 2;
  PipelineConfig Config = configFor(pre::PromotionConfig::alat());
  PipelineResult R = runPipeline(W, Config);
  ASSERT_TRUE(R.Ok) << R.Error;
  std::string Expected = formatString(
      "\"fingerprint\":\"%llu/%llu/%llu|%u-%u-%u\"",
      (unsigned long long)R.Sim.Counters.Cycles,
      (unsigned long long)R.Sim.Counters.Instructions,
      (unsigned long long)R.Sim.Counters.RetiredLoads,
      R.Promotion.PromotedExprs, R.Promotion.loadsRemoved(),
      R.Promotion.ChecksInserted + R.Promotion.CascadeChecks);

  ServerCore Core(testOptions());
  std::string Response = Core.handle(
      "{\"op\":\"run\",\"workload\":\"gzip\",\"train_scale\":1,"
      "\"ref_scale\":2,\"config\":{\"strategy\":\"alat\"}}");
  EXPECT_EQ(statusOf(Response), 0);
  EXPECT_NE(Response.find(Expected), std::string::npos)
      << "wanted " << Expected << " in " << Response;
}

// A batch of pipelined frames answers in input order, repeats served
// from cache byte-identically.
TEST(ServeProtocol, BatchKeepsOrderAndCaches) {
  ServerCore Core(testOptions());
  std::vector<std::string> Lines = {
      "{\"id\":\"0\",\"op\":\"ping\"}",
      "{\"id\":\"1\",\"op\":\"run\",\"workload\":\"vpr\",\"train_scale\":1,"
      "\"ref_scale\":2}",
      "{\"id\":\"2\",\"op\":\"run\",\"workload\":\"vpr\",\"train_scale\":1,"
      "\"ref_scale\":2}",
      "{\"id\":\"3\",\"op\":\"nope\"}",
  };
  std::vector<std::string> Responses = Core.handleBatch(Lines);
  ASSERT_EQ(Responses.size(), 4u);
  for (size_t I = 0; I < 4; ++I)
    EXPECT_EQ(Responses[I].substr(0, 9),
              formatString("{\"id\":\"%zu\"", I));
  EXPECT_EQ(resultTail(Responses[1]), resultTail(Responses[2]));
  EXPECT_EQ(statusOf(Responses[3]), 2);
  // Concurrent identical cold requests may each run the pipeline (both
  // miss), but at least one result landed in the cache and a repeat is
  // a hit.
  std::string Warm = Core.handle(Lines[1]);
  EXPECT_NE(Warm.find("\"cached\":true"), std::string::npos);
}

// Per-request stats epochs: a request's "stats" echo describes that
// request alone, not the process's cumulative registry. A cold compile
// records arena work; a cached repeat of the same request records none
// of it; and the cold epoch's work counters are identical across fresh
// servers (its *.us wall times are measurements, not counters, and are
// not compared).
TEST(ServeProtocol, StatsEpochIsPerRequest) {
  const char *Request =
      "{\"op\":\"run\",\"workload\":\"mcf\",\"train_scale\":1,"
      "\"ref_scale\":2,\"stats\":true}";
  auto EpochCounter = [](const std::string &Response,
                         const char *Name) -> int64_t {
    JSONValue Doc;
    std::string Error;
    if (!parseJSON(Response, Doc, Error) || !Doc.isObject())
      return -1;
    const JSONValue *Stats = Doc.find("stats");
    if (!Stats || !Stats->isObject())
      return -1;
    const JSONValue *V = Stats->find(Name);
    if (!V)
      return 0;
    return V->isUint() ? int64_t(V->asUint()) : -1;
  };

  ServerCore A(testOptions());
  std::string ColdA = A.handle(Request);
  ASSERT_EQ(statusOf(ColdA), 0);
  int64_t SlabsA = EpochCounter(ColdA, "alloc.arena.slabs");
  EXPECT_GT(SlabsA, 0) << ColdA;

  // Same request on a fresh server: same epoch counters (determinism).
  ServerCore B(testOptions());
  std::string ColdB = B.handle(Request);
  EXPECT_EQ(SlabsA, EpochCounter(ColdB, "alloc.arena.slabs"));

  // The cached repeat runs no pipeline: its epoch has a cache hit and no
  // arena work, however much the process has accumulated.
  std::string Warm = A.handle(Request);
  EXPECT_NE(Warm.find("\"cached\":true"), std::string::npos);
  for (const char *Key :
       {"alloc.arena.bytes", "alloc.arena.slabs", "alloc.arena.resets"})
    EXPECT_EQ(EpochCounter(Warm, Key), 0) << Key;
  EXPECT_EQ(EpochCounter(Warm, "serve.cache.hits"), 1);
}

TEST(LineSplitterTest, SplitsAcrossChunks) {
  LineSplitter S(/*MaxLineBytes=*/64);
  std::vector<std::string> Frames;
  EXPECT_EQ(S.feed("abc", Frames), 0u);
  EXPECT_EQ(S.feed("def\nsecond\nthi", Frames), 0u);
  EXPECT_EQ(S.feed("rd\n", Frames), 0u);
  ASSERT_EQ(Frames.size(), 3u);
  EXPECT_EQ(Frames[0], "abcdef");
  EXPECT_EQ(Frames[1], "second");
  EXPECT_EQ(Frames[2], "third");
  std::string Partial;
  EXPECT_FALSE(S.finish(Partial));
}

TEST(LineSplitterTest, OversizedFrameDropsAndResyncs) {
  LineSplitter S(/*MaxLineBytes=*/8);
  std::vector<std::string> Frames;
  size_t Dropped = S.feed(std::string(100, 'x'), Frames);
  Dropped += S.feed(std::string(100, 'x'), Frames); // still same frame
  EXPECT_EQ(Dropped, 1u);
  Dropped += S.feed("tail\nok\n", Frames);
  EXPECT_EQ(Dropped, 1u);
  ASSERT_EQ(Frames.size(), 1u); // resynchronized at the newline
  EXPECT_EQ(Frames[0], "ok");
}

TEST(LineSplitterTest, UnterminatedTailIsReported) {
  LineSplitter S(/*MaxLineBytes=*/64);
  std::vector<std::string> Frames;
  S.feed("complete\npartial", Frames);
  ASSERT_EQ(Frames.size(), 1u);
  std::string Partial;
  EXPECT_TRUE(S.finish(Partial));
  EXPECT_EQ(Partial, "partial");
  // finish() resets: a fresh stream starts clean.
  EXPECT_FALSE(S.finish(Partial));
}

/// Reads everything until EOF from \p Fd.
std::string drain(int Fd) {
  std::string Out;
  char Buf[4096];
  ssize_t N;
  while ((N = ::read(Fd, Buf, sizeof(Buf))) > 0)
    Out.append(Buf, size_t(N));
  return Out;
}

// A real transport round-trip over a socketpair, including pipelined
// frames and a half-closed connection cutting the last frame short:
// the client still receives one response per complete frame plus the
// documented mid-frame error, then EOF.
TEST(ServeProtocol, SocketTransportAndHalfClose) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  ServerCore Core(testOptions());
  std::thread Server([&Core, &Fds] { serveConnection(Core, Fds[0]); });

  std::string Burst = "{\"id\":\"x\",\"op\":\"ping\"}\n"
                      "{\"id\":\"y\",\"op\":\"nope\"}\n"
                      "{\"id\":\"z\",\"op\":\"run\",\"workload\""; // cut
  ASSERT_EQ(::send(Fds[1], Burst.data(), Burst.size(), 0),
            ssize_t(Burst.size()));
  ::shutdown(Fds[1], SHUT_WR); // half-close mid-frame

  std::string Wire = drain(Fds[1]);
  Server.join();
  ::close(Fds[1]);

  std::vector<std::string> Responses;
  for (size_t Pos = 0; Pos < Wire.size();) {
    size_t Newline = Wire.find('\n', Pos);
    ASSERT_NE(Newline, std::string::npos);
    Responses.push_back(Wire.substr(Pos, Newline - Pos));
    Pos = Newline + 1;
  }
  ASSERT_EQ(Responses.size(), 3u) << Wire;
  EXPECT_EQ(statusOf(Responses[0]), 0);
  EXPECT_NE(Responses[0].find("\"id\":\"x\""), std::string::npos);
  EXPECT_EQ(statusOf(Responses[1]), 2);
  EXPECT_EQ(statusOf(Responses[2]), 2); // the cut frame's error
  EXPECT_NE(Responses[2].find("mid-frame"), std::string::npos)
      << Responses[2];
}

/// Runs the stdio transport over a pipe pair: writes \p Burst in one
/// write, closes the server's input and sets \p Wire to everything the
/// server wrote and \p Ret to runStdioServer's exit code.
void runStdioBurst(ServerCore &Core, const std::string &Burst,
                   std::string &Wire, int &Ret) {
  int In[2], Out[2];
  ASSERT_EQ(::pipe(In), 0);
  ASSERT_EQ(::pipe(Out), 0);
  std::FILE *ServerIn = ::fdopen(In[0], "r");
  std::FILE *ServerOut = ::fdopen(Out[1], "w");
  ASSERT_TRUE(ServerIn && ServerOut);
  std::thread Server([&] {
    Ret = runStdioServer(Core, ServerIn, ServerOut);
    std::fclose(ServerOut);
  });
  EXPECT_EQ(::write(In[1], Burst.data(), Burst.size()),
            ssize_t(Burst.size()));
  ::close(In[1]);
  Wire = drain(Out[0]);
  Server.join();
  std::fclose(ServerIn);
  ::close(Out[0]);
}

// The stdio transport over a pipe pair. The burst is one write below
// PIPE_BUF, so the server reads it as one chunk: its complete frames
// answer in order as one batch, the oversized frame's error follows the
// batch, and input ending mid-frame gets the final error before EOF.
TEST(ServeProtocol, StdioTransportOverPipes) {
  ServeOptions O = testOptions();
  O.MaxLineBytes = 64;
  ServerCore Core(std::move(O));
  std::string Burst = "{\"id\":\"a\",\"op\":\"ping\"}\n" +
                      std::string(100, 'x') +
                      "\n{\"id\":\"b\",\"op\":\"nope\"}\n"
                      "{\"id\":\"c\",\"op\":\"ping\"}\n"
                      "{\"id\":\"d\"";
  std::string Wire;
  int Ret = -1;
  ASSERT_NO_FATAL_FAILURE(runStdioBurst(Core, Burst, Wire, Ret));

  EXPECT_EQ(Ret, 0);
  const char *Pong = "\"cached\":false,\"result\":{\"status\":0,\"ok\":true,"
                     "\"pong\":true}}\n";
  EXPECT_EQ(Wire,
            std::string("{\"id\":\"a\",") + Pong +
                "{\"id\":\"b\",\"cached\":false,\"result\":{\"status\":2,"
                "\"ok\":false,\"error\":\"unknown op 'nope'\"}}\n"
                "{\"id\":\"c\"," +
                Pong +
                "{\"id\":null,\"cached\":false,\"result\":{\"status\":2,"
                "\"ok\":false,\"error\":\"frame exceeds 64 bytes\"}}\n"
                "{\"id\":null,\"cached\":false,\"result\":{\"status\":2,"
                "\"ok\":false,\"error\":\"input ended mid-frame (missing "
                "final newline)\"}}\n");
}

// A chk.a over a direct reference has no lowering: the verifier must
// answer it with a status-2 frame, and the daemon must go on to answer
// the ping behind it in the same stream.
TEST(ServeProtocol, UnlowerableSpeculationFlagIsAVerifyError) {
  ServerCore Core(testOptions());
  std::string Burst =
      "{\"id\":\"c\",\"op\":\"run\",\"program\":\"global a : int\\n"
      "func main() -> int {\\nentry:\\n  st a = 7\\n"
      "  t0 = ld<chk.a.clr> a\\n  print t0\\n  ret t0\\n}\\n\"}\n"
      "{\"id\":\"p\",\"op\":\"ping\"}\n";
  std::string Wire;
  int Ret = -1;
  ASSERT_NO_FATAL_FAILURE(runStdioBurst(Core, Burst, Wire, Ret));
  EXPECT_EQ(Ret, 0);

  size_t Eol = Wire.find('\n');
  ASSERT_NE(Eol, std::string::npos) << Wire;
  std::string Rejected = Wire.substr(0, Eol);
  EXPECT_EQ(statusOf(Rejected), 2) << Rejected;
  EXPECT_NE(Rejected.find("program verify error: main: 't0 = "
                          "ld<chk.a.clr> a': chk.a needs"),
            std::string::npos)
      << Rejected;
  EXPECT_EQ(Wire.substr(Eol + 1),
            "{\"id\":\"p\",\"cached\":false,\"result\":{\"status\":0,"
            "\"ok\":true,\"pong\":true}}\n");
}

// INT64_MIN / -1 used to kill the daemon with SIGFPE before it answered
// the ping behind it. Both engines now define it (ir::divI64), and an
// @addr(tN) on a direct reference is a verify error.
TEST(ServeProtocol, DivisionEdgeAnswersThenPing) {
  ServerCore Core(testOptions());
  std::string Burst =
      "{\"id\":\"d\",\"op\":\"run\",\"program\":\"func main() -> int {\\n"
      "entry:\\n  t0 = div -9223372036854775808, -1\\n"
      "  t1 = rem -9223372036854775808, -1\\n  print t0\\n  print t1\\n"
      "  ret t1\\n}\\n\"}\n"
      "{\"id\":\"a\",\"op\":\"run\",\"program\":\"global a : int[2]\\n"
      "global b : int\\nfunc main() -> int {\\nentry:\\n"
      "  t3 = addrof b\\n  t0 = ld a[1] @addr(t3)\\n  ret t0\\n}\\n\"}\n"
      "{\"id\":\"p\",\"op\":\"ping\"}\n";
  std::string Wire;
  int Ret = -1;
  ASSERT_NO_FATAL_FAILURE(runStdioBurst(Core, Burst, Wire, Ret));
  EXPECT_EQ(Ret, 0);

  std::vector<std::string> Frames;
  for (size_t At = 0, Eol; (Eol = Wire.find('\n', At)) != std::string::npos;
       At = Eol + 1)
    Frames.push_back(Wire.substr(At, Eol - At));
  ASSERT_EQ(Frames.size(), 3u) << Wire;
  EXPECT_EQ(statusOf(Frames[0]), 0) << Frames[0];
  EXPECT_NE(Frames[0].find("\"output\":[\"-9223372036854775808\",\"0\"]"),
            std::string::npos)
      << Frames[0];
  EXPECT_EQ(statusOf(Frames[1]), 2) << Frames[1];
  EXPECT_NE(Frames[1].find("@addr(tN) needs an indirect ld.c or chk.a"),
            std::string::npos)
      << Frames[1];
  EXPECT_EQ(Frames[2], "{\"id\":\"p\",\"cached\":false,\"result\":{"
                       "\"status\":0,\"ok\":true,\"pong\":true}}");
}

/// Sends \p Line as one frame on \p Fd and returns the response frame
/// (newline stripped; empty if the server closed first).
std::string exchange(int Fd, const std::string &Line) {
  std::string Frame = Line + "\n";
  if (::send(Fd, Frame.data(), Frame.size(), MSG_NOSIGNAL) !=
      ssize_t(Frame.size()))
    return "";
  std::string Response;
  char C;
  while (::read(Fd, &C, 1) == 1 && C != '\n')
    Response += C;
  return Response;
}

/// Runs a socket server on \p ListenFd, has one client at \p Spec ping
/// it and then shut it down, and returns runSocketServer's exit code.
int pingThenShutdown(int ListenFd, const std::string &Spec) {
  ServerCore Core(testOptions());
  int Ret = -1;
  std::thread Server([&] { Ret = runSocketServer(Core, ListenFd); });
  std::string Error;
  int Fd = connectToServer(Spec, /*RetryMs=*/2000, Error);
  EXPECT_GE(Fd, 0) << Error;
  if (Fd >= 0) {
    EXPECT_EQ(exchange(Fd, "{\"id\":\"p\",\"op\":\"ping\"}"),
              "{\"id\":\"p\",\"cached\":false,\"result\":{\"status\":0,"
              "\"ok\":true,\"pong\":true}}");
    EXPECT_EQ(statusOf(exchange(Fd, "{\"op\":\"shutdown\"}")), 0);
    ::close(Fd);
  } else {
    Core.requestShutdown();
  }
  Server.join();
  return Ret;
}

/// A fresh directory for socket files; removed by the caller.
std::string makeTempDir() {
  std::string Template = testing::TempDir() + "srp-serve-XXXXXX";
  return ::mkdtemp(Template.data()) ? Template : std::string();
}

TEST(ServeProtocol, UnixSocketServerPingAndShutdown) {
  std::string Dir = makeTempDir();
  ASSERT_FALSE(Dir.empty());
  std::string Path = Dir + "/srp.sock";
  std::string Error;
  int ListenFd = listenOn("unix:" + Path, Error);
  ASSERT_GE(ListenFd, 0) << Error;
  EXPECT_EQ(pingThenShutdown(ListenFd, "unix:" + Path), 0);
  ::unlink(Path.c_str());
  ::rmdir(Dir.c_str());
}

TEST(ServeProtocol, TcpSocketServerPingAndShutdown) {
  // A free loopback port: bind port 0 and read back the kernel's choice.
  int Probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(Probe, 0);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t Len = sizeof(Addr);
  ASSERT_EQ(::bind(Probe, reinterpret_cast<sockaddr *>(&Addr), Len), 0);
  ASSERT_EQ(::getsockname(Probe, reinterpret_cast<sockaddr *>(&Addr), &Len),
            0);
  unsigned Port = ntohs(Addr.sin_port);
  ::close(Probe);

  std::string Error;
  int ListenFd = listenOn("tcp:" + std::to_string(Port), Error);
  ASSERT_GE(ListenFd, 0) << Error;
  EXPECT_EQ(pingThenShutdown(ListenFd, "tcp:" + std::to_string(Port)), 0);
}

// Malformed endpoints fail at once with a message naming the problem.
TEST(ServeProtocol, BadEndpointsAreRejected) {
  std::string Error;
  EXPECT_EQ(connectToServer("udp:80", 0, Error), -1);
  EXPECT_EQ(Error, "endpoint must be unix:PATH or tcp:PORT, got 'udp:80'");
  for (const char *Spec :
       {"tcp:", "tcp:0", "tcp:65536", "tcp:8x", "tcp:99999999999999999999"}) {
    EXPECT_EQ(connectToServer(Spec, 0, Error), -1);
    EXPECT_EQ(Error, std::string("tcp port must be in [1, 65535]: ") + Spec);
  }
  for (const std::string &Spec : {std::string("unix:"),
                                  "unix:/" + std::string(200, 'p')}) {
    EXPECT_EQ(connectToServer(Spec, 0, Error), -1);
    EXPECT_EQ(Error, "unix socket path empty or too long");
  }
  EXPECT_EQ(listenOn("unix:", Error), -1);
  EXPECT_EQ(Error, "unix socket path empty or too long");
}

/// The process's virtual size in kB (VmSize in /proc/self/status). A
/// thread stack stays mapped, and counted, until its thread is joined.
size_t vmSizeKb() {
  std::FILE *Status = std::fopen("/proc/self/status", "r");
  size_t Kb = 0;
  char Line[256];
  while (Status && std::fgets(Line, sizeof(Line), Status))
    if (std::sscanf(Line, "VmSize: %zu kB", &Kb) == 1)
      break;
  if (Status)
    std::fclose(Status);
  return Kb;
}

// A client that connects in a loop must not grow the server: each closed
// connection's thread is joined while the server runs, not at shutdown,
// so its stack is unmapped or reused. Unjoined, 100 connections leave
// 100 stacks mapped (8 MB each by default).
TEST(ServeProtocol, ClosedConnectionsAreReaped) {
  std::string Dir = makeTempDir();
  ASSERT_FALSE(Dir.empty());
  std::string Path = Dir + "/srp.sock";
  std::string Error;
  int ListenFd = listenOn("unix:" + Path, Error);
  ASSERT_GE(ListenFd, 0) << Error;
  ServerCore Core(testOptions());
  int Ret = -1;
  std::thread Server([&] { Ret = runSocketServer(Core, ListenFd); });
  auto PingOnce = [&Path] {
    std::string ConnectError;
    int Fd = connectToServer("unix:" + Path, /*RetryMs=*/2000, ConnectError);
    EXPECT_GE(Fd, 0) << ConnectError;
    if (Fd >= 0) {
      EXPECT_EQ(statusOf(exchange(Fd, "{\"op\":\"ping\"}")), 0);
      ::close(Fd);
    }
  };

  // Settle after the first connection (its stack, allocator arenas),
  // then make 100 more; the wait after them spans an accept-poll tick.
  PingOnce();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  size_t Before = vmSizeKb();
  for (int I = 0; I < 100; ++I)
    PingOnce();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  size_t After = vmSizeKb();

  Core.requestShutdown();
  Server.join();
  EXPECT_EQ(Ret, 0);
  ::unlink(Path.c_str());
  ::rmdir(Dir.c_str());
  EXPECT_LT(After, Before + 100 * 4096)
      << "VmSize grew from " << Before << " kB to " << After
      << " kB over 100 closed connections";
}

// Inline-program mode: a tiny program compiles, simulates, and caches;
// its output rides in the response.
TEST(ServeProtocol, InlineProgramRuns) {
  const char *Program = "global a : int\\n\\nfunc main() -> int {\\nentry:\\n"
                        "  st a = 7\\n  t0 = ld a\\n  t1 = add t0, 35\\n"
                        "  print t1\\n  ret t1\\n}\\n";
  ServerCore Core(testOptions());
  std::string Request =
      std::string("{\"id\":\"p\",\"op\":\"run\",\"program\":\"") + Program +
      "\"}";
  std::string Cold = Core.handle(Request);
  EXPECT_EQ(statusOf(Cold), 0) << Cold;
  EXPECT_NE(Cold.find("\"output\":[\"42\"]"), std::string::npos) << Cold;
  EXPECT_NE(Cold.find("\"exit_value\":42"), std::string::npos) << Cold;

  std::string Warm = Core.handle(Request);
  EXPECT_NE(Warm.find("\"cached\":true"), std::string::npos);
  EXPECT_EQ(resultTail(Warm), resultTail(Cold));

  // Whitespace-different but canonically identical program: same cache
  // entry (content addressing is over canonical text, not input bytes).
  std::string Spaced = Request;
  size_t At = Spaced.find("st a = 7");
  ASSERT_NE(At, std::string::npos);
  Spaced.insert(At + 8, "   ");
  std::string AlsoWarm = Core.handle(Spaced);
  EXPECT_NE(AlsoWarm.find("\"cached\":true"), std::string::npos)
      << AlsoWarm;
}

// A chain of 50,000 blocks (just under MaxProgramBytes) has a dominator
// tree 50,000 levels deep. The pipeline must walk it without recursing
// per level: on the default stack the request answers status 0, and its
// simulated output equals the interpreter's.
TEST(ServeProtocol, DeepBlockChainRuns) {
  std::string Program = "global g : int\nfunc main() -> int {\nb0:\n"
                        "  st g = 7\n  br b1\n";
  for (int I = 1; I < 50000; ++I) {
    Program += 'b';
    Program += std::to_string(I);
    Program += ":\n  br b";
    Program += std::to_string(I + 1);
    Program += '\n';
  }
  Program += "b50000:\n  t0 = ld g\n  t1 = add t0, 35\n  print t1\n"
             "  ret t1\n}\n";
  ASSERT_LT(Program.size(), ServeOptions().MaxProgramBytes);

  ir::Module M;
  std::string Error;
  ASSERT_TRUE(ir::parseModule(Program, M, Error)) << Error;
  interp::Interpreter Oracle(M);
  auto Expected = Oracle.run();
  ASSERT_TRUE(Expected.Ok) << Expected.Error;

  std::string Escaped;
  for (char C : Program) {
    if (C == '\n')
      Escaped += "\\n";
    else
      Escaped += C;
  }
  ServerCore Core(testOptions());
  std::string Response =
      Core.handle("{\"op\":\"run\",\"program\":\"" + Escaped + "\"}");
  ASSERT_EQ(statusOf(Response), 0) << Response.substr(0, 300);

  JSONValue Doc;
  ASSERT_TRUE(parseJSON(Response, Doc, Error)) << Error;
  const JSONValue *Output = Doc.find("result")->find("output");
  ASSERT_TRUE(Output && Output->isArray());
  std::vector<std::string> Served;
  for (size_t I = 0; I < Output->size(); ++I)
    Served.push_back(Output->at(I).asString());
  EXPECT_EQ(Served, Expected.Output);
}

} // namespace
