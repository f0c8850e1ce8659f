//===- ServeFuzzer.h - Serve protocol decoder fuzzing -----------*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `srp-fuzz --serve` campaign: fuzzes the NDJSON protocol stack
/// behind srp-serve (core::LineSplitter + core::ServerCore) with
/// seed-derived byte streams — mutated valid requests (among them the
/// canned program with a random speculation flag and reference shape),
/// truncated frames, interleaved pipelined requests, garbage bytes — and
/// checks the serving contract on every input:
///
///   * framing is chunking-independent: splitting the same bytes at
///     arbitrary read(2) boundaries yields the identical frame sequence
///     and oversized-drop count (differential LineSplitter check);
///   * the server is total: every frame gets exactly one response, the
///     response parses as a JSON object of the documented shape, its
///     result.status is 0, 1 or 2, ok == (status == 0), and a request
///     id (when the request carried a parseable one) is echoed;
///   * repeat determinism: feeding the whole input a second time to a
///     fresh server yields byte-identical responses.
///
/// Every input is a pure function of its iteration seed, so a finding
/// replays with `srp-fuzz --serve --replay-serve=SEED`. Findings are
/// byte-minimized (greedy chunk removal preserving the violation) and
/// written under the repro directory as serve-<seed>.in.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_FUZZ_SERVEFUZZER_H
#define SRP_FUZZ_SERVEFUZZER_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace srp::fuzz {

struct ServeFuzzOptions {
  uint64_t Iterations = 1000;
  unsigned Threads = 1;
  uint64_t Seed = 1; ///< Campaign seed; iteration seeds derive from it.
  bool Minimize = true;
  std::string ReproDir;    ///< Write minimized inputs here ("": off).
  size_t MaxFindings = 10; ///< Stop collecting (not running) past this.
  std::function<void(const std::string &)> Log;
};

/// One serving-contract violation, with everything needed to reproduce.
struct ServeFinding {
  std::string Detail;   ///< Which invariant broke, and how.
  uint64_t Seed = 0;    ///< Iteration seed (replays the original input).
  std::string Input;    ///< Offending bytes (minimized when enabled).
  std::string ReproPath;

  /// The argument `--replay-serve` accepts.
  std::string replayArg() const;
};

struct ServeFuzzResult {
  uint64_t Iterations = 0;
  std::vector<ServeFinding> Findings;
};

/// The deterministic input stream of one iteration seed.
std::string serveInputFromSeed(uint64_t Seed);

/// Runs the serving contract over \p Input. Returns false with \p Detail
/// set on the first violation. This is the fuzzing oracle; tests call it
/// directly on regression inputs.
bool checkServeInput(const std::string &Input, std::string &Detail);

/// Runs a campaign. Deterministic for a given (Seed, Iterations).
ServeFuzzResult runServeFuzz(const ServeFuzzOptions &Options);

} // namespace srp::fuzz

#endif // SRP_FUZZ_SERVEFUZZER_H
