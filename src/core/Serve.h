//===- Serve.h - Promotion-as-a-service server core -------------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer behind tools/srp-serve (DESIGN.md §8). A request is
/// one line of JSON (newline-delimited frames); the server compiles and
/// simulates the named workload or inline .sir program under the
/// requested pipeline configuration and answers with one JSON line.
/// Because a pipeline run is a pure function of (workload, config),
/// every successful result is stored in a content-addressed ResultCache
/// under the request's *canonical key* — canonicalized module text plus
/// a fixed-order serialization of the configuration — and repeat
/// requests are answered byte-identically from the cache.
///
/// Layering: ServerCore is transport-free (a string-in/string-out
/// request processor, thread-safe, never aborting on malformed input) so
/// tests and the protocol fuzzer drive it in-process; LineSplitter is
/// the NDJSON frame decoder shared by every transport; the stdio and
/// socket servers at the bottom are the daemon plumbing. Batches of
/// pipelined frames are fanned out over core::parallelFor — the same
/// pool discipline as runExperiments — and a semaphore bounds the
/// process-wide number of in-flight pipeline runs to ServeOptions::
/// Threads, whatever the number of connections.
///
/// The protocol grammar, canonicalization rules, cache keying and error
/// taxonomy (result.status mirroring srp-run's 0/1/2 exit convention)
/// are specified in DESIGN.md §8.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_CORE_SERVE_H
#define SRP_CORE_SERVE_H

#include "core/Pipeline.h"
#include "core/ProfileCache.h"
#include "core/ResultCache.h"

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace srp::core {

struct ServeOptions {
  /// Concurrent pipeline executions (and handleBatch fan-out width);
  /// 0 uses the hardware concurrency.
  unsigned Threads = 0;
  /// Frame limit: a request line longer than this is dropped (the
  /// splitter resynchronizes at the next newline) and answered with a
  /// status-2 error frame.
  size_t MaxLineBytes = 4u << 20;
  /// Inline `program` texts larger than this are rejected (status 2).
  size_t MaxProgramBytes = 1u << 20;
  /// Largest accepted train/ref scale for named-workload requests.
  uint64_t MaxScale = 64;
  /// Interpreter fuel for train runs and oracles (part of the canonical
  /// key — servers with different fuel answer from different cache
  /// entries).
  uint64_t InterpFuel = 400'000'000;
  ResultCacheConfig Cache;
  /// Workloads requests may name. The daemon passes
  /// workloads::standardWorkloads(); the default (empty) answers every
  /// named-workload request with an unknown-workload error. Injected
  /// rather than looked up so srp_core never depends on srp_workloads.
  std::vector<Workload> Workloads;
};

/// NDJSON frame decoder: feed arbitrary chunks (whatever read(2)
/// returned), collect complete newline-terminated frames. Oversized
/// frames are dropped with resynchronization at the next newline, so one
/// abusive or corrupt frame costs itself, not the connection.
class LineSplitter {
public:
  explicit LineSplitter(size_t MaxLineBytes) : MaxLineBytes(MaxLineBytes) {}

  /// Scans \p Chunk, appending each complete frame (newline stripped) to
  /// \p Out. Returns the number of oversized frames dropped during this
  /// call — the caller owes each one an error response.
  size_t feed(std::string_view Chunk, std::vector<std::string> &Out);

  /// End of stream. Returns true when unterminated bytes remain — a
  /// half-closed connection cut a frame short (also true when the tail
  /// was an oversized frame still being discarded); the caller owes a
  /// final error response. \p Partial receives the unterminated bytes
  /// (empty for an oversized tail).
  bool finish(std::string &Partial);

private:
  size_t MaxLineBytes;
  std::string Buffer;
  bool Discarding = false; ///< Inside an oversized frame, seeking '\n'.
};

/// The transport-free request processor (see file comment). All public
/// methods are thread-safe.
class ServerCore {
public:
  explicit ServerCore(ServeOptions Opts = {});

  /// Processes one request frame and returns the response frame (no
  /// trailing newline). Total: malformed input of any kind produces a
  /// status-2 error response, never an abort.
  std::string handle(const std::string &Line);

  /// Processes a batch of pipelined frames on the parallelFor pool,
  /// returning responses in input order.
  std::vector<std::string> handleBatch(const std::vector<std::string> &Lines);

  /// A status-2 error frame for input the frame decoder dropped before
  /// it could carry an id (oversized / unterminated frames).
  std::string protocolErrorResponse(std::string_view Message);

  /// True once a shutdown request has been accepted; transports drain
  /// and exit.
  bool shutdownRequested() const { return Shutdown.load(); }
  void requestShutdown() { Shutdown.store(true); }

  ResultCache &cache() { return Cache; }
  const ServeOptions &options() const { return Opts; }

private:
  struct RunRequest;

  std::string handleParsed(const std::string &Line);
  std::string runOp(const RunRequest &Req, bool WantStats);
  PipelineResult executeRun(const RunRequest &Req, std::string &Error,
                            int &ErrorStatus);

  ServeOptions Opts;
  ResultCache Cache;
  std::atomic<bool> Shutdown{false};

  /// Train-run profile snapshots across requests: they are a pure
  /// function of (workload, scale, fuel), so repeat named-workload
  /// requests skip the train interpretation even when the result cache
  /// misses (different promotion config, same workload). Locks itself.
  ProfileCache Profiles;

  /// Counting semaphore bounding in-flight pipeline runs to
  /// Opts.Threads (cache hits bypass it, so a warm request never waits
  /// behind cold compiles).
  std::mutex SlotMutex;
  std::condition_variable SlotCv;
  unsigned FreeSlots;
};

/// -- Daemon plumbing ------------------------------------------------------
///
/// The returned file descriptors are plain POSIX fds; -1 with \p Error
/// set on failure.

/// Listening TCP socket on 127.0.0.1:\p Port.
int listenTcp(uint16_t Port, std::string &Error);

/// Listening Unix-domain socket at \p Path (an existing socket file is
/// replaced).
int listenUnix(const std::string &Path, std::string &Error);

/// Client side: connects to "unix:PATH" or "tcp:PORT" (loopback),
/// retrying for up to \p RetryMs while the endpoint does not exist yet
/// (lets a load generator start alongside the daemon).
int connectToServer(const std::string &Spec, unsigned RetryMs,
                    std::string &Error);

/// Serves one established connection until EOF or shutdown: reads
/// frames, fans each read's worth of pipelined requests through
/// ServerCore::handleBatch, writes responses in request order. Closes
/// \p Fd. Safe to run on many threads against one core.
void serveConnection(ServerCore &Core, int Fd);

/// Accept loop: one serveConnection thread per client until shutdown.
/// Closes \p ListenFd. Returns 0 on clean shutdown, 1 on accept-loop
/// failure.
int runSocketServer(ServerCore &Core, int ListenFd);

/// Stdin/stdout transport: batches of pipelined frames from \p In,
/// responses in input order to \p Out. Returns 0 at EOF or clean
/// shutdown.
int runStdioServer(ServerCore &Core, std::FILE *In, std::FILE *Out);

} // namespace srp::core

#endif // SRP_CORE_SERVE_H
