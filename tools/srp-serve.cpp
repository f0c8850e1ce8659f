//===- srp-serve.cpp - Promotion-as-a-service daemon ---------------------------===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving daemon over core::ServerCore (DESIGN.md §8): accepts
/// newline-delimited JSON requests on stdin (default), a loopback TCP
/// port, or a Unix-domain socket; compiles and simulates the requested
/// (workload|program, config) pairs on the shared thread pool; answers
/// repeats byte-identically from the content-addressed result cache, one
/// LRU under one byte budget (--cache-mb).
///
///   srp-serve [--stdio] [--tcp=PORT] [--unix=PATH] [-jN]
///             [--cache-mb=N] [--max-scale=N] [--fuel=N]
///
/// Exit codes follow the house convention: 0 clean shutdown / EOF,
/// 1 runtime failure (bind, accept loop), 2 usage error.
///
//===----------------------------------------------------------------------===//

#include "core/Serve.h"
#include "support/StringUtils.h"
#include "workloads/Workloads.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include <csignal>

using namespace srp;

namespace {

struct Options {
  /// The core::listenOn endpoint ("tcp:PORT" or "unix:PATH"); empty
  /// serves stdio.
  std::string Endpoint;
  /// The endpoint as the startup message names it.
  std::string Where;
  core::ServeOptions Serve;
};

void usage(std::FILE *To) {
  std::fputs(
      "usage: srp-serve [--stdio | --tcp=PORT | --unix=PATH] [options]\n"
      "\n"
      "Newline-delimited JSON promotion service (protocol: DESIGN.md §8).\n"
      "\n"
      "transports (default --stdio):\n"
      "  --stdio            requests on stdin, responses on stdout\n"
      "  --tcp=PORT         listen on 127.0.0.1:PORT\n"
      "  --unix=PATH        listen on a Unix-domain socket at PATH\n"
      "\n"
      "options:\n"
      "  -jN                concurrent pipeline runs (default: hardware)\n"
      "  --cache-mb=N       result cache budget in MB, one LRU over keys and\n"
      "                     bodies (default 256)\n"
      "  --max-scale=N      largest accepted train/ref scale (default 64)\n"
      "  --fuel=N           interpreter fuel per run (part of cache key)\n",
      To);
}

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  uint64_t CacheMb = 256;
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    uint64_t Value = 0;
    if (Arg == "--stdio") {
      Opts.Endpoint.clear();
    } else if (startsWith(Arg, "--tcp=")) {
      if (!parseUnsigned(Arg.substr(6), Value) || Value == 0 ||
          Value > 65535) {
        std::fprintf(stderr, "srp-serve: bad --tcp port\n");
        return false;
      }
      Opts.Endpoint = "tcp:" + std::to_string(Value);
      Opts.Where = "127.0.0.1:" + std::to_string(Value);
    } else if (startsWith(Arg, "--unix=")) {
      Opts.Where = std::string(Arg.substr(7));
      Opts.Endpoint = "unix:" + Opts.Where;
      if (Opts.Where.empty()) {
        std::fprintf(stderr, "srp-serve: empty --unix path\n");
        return false;
      }
    } else if (startsWith(Arg, "-j")) {
      if (!parseUnsigned(Arg.substr(2), Value) || Value == 0) {
        std::fprintf(stderr, "srp-serve: bad -jN\n");
        return false;
      }
      Opts.Serve.Threads = static_cast<unsigned>(Value);
    } else if (startsWith(Arg, "--cache-mb=")) {
      if (!parseUnsigned(Arg.substr(11), CacheMb) || CacheMb == 0 ||
          CacheMb > (SIZE_MAX >> 20)) {
        std::fprintf(stderr, "srp-serve: bad --cache-mb\n");
        return false;
      }
    } else if (startsWith(Arg, "--max-scale=")) {
      if (!parseUnsigned(Arg.substr(12), Opts.Serve.MaxScale) ||
          Opts.Serve.MaxScale == 0) {
        std::fprintf(stderr, "srp-serve: bad --max-scale\n");
        return false;
      }
    } else if (startsWith(Arg, "--fuel=")) {
      if (!parseUnsigned(Arg.substr(7), Opts.Serve.InterpFuel) ||
          Opts.Serve.InterpFuel == 0) {
        std::fprintf(stderr, "srp-serve: bad --fuel\n");
        return false;
      }
    } else if (Arg == "--help" || Arg == "-h") {
      usage(stdout);
      std::exit(0);
    } else {
      std::fprintf(stderr, "srp-serve: unknown option '%s'\n",
                   std::string(Arg).c_str());
      return false;
    }
  }
  Opts.Serve.Cache.ByteBudget = static_cast<size_t>(CacheMb) << 20;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    usage(stderr);
    return 2;
  }

  // A client vanishing mid-response must surface as a send error on
  // that connection, not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  Opts.Serve.Workloads = workloads::standardWorkloads();
  core::ServerCore Core(std::move(Opts.Serve));

  if (Opts.Endpoint.empty())
    return core::runStdioServer(Core, stdin, stdout);

  std::string Error;
  int ListenFd = core::listenOn(Opts.Endpoint, Error);
  if (ListenFd < 0) {
    std::fprintf(stderr, "srp-serve: %s\n", Error.c_str());
    return 1;
  }
  std::fprintf(stderr, "srp-serve: listening on %s\n", Opts.Where.c_str());
  return core::runSocketServer(Core, ListenFd);
}
