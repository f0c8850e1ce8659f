//===- Bench.h - Shared pieces of the repository benchmark -----*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark drives three closed-loop workloads (paper-grid,
/// sir-corpus, serve-mix; see README.md) against the project's libraries.
/// This header holds what they share: the op record every timed operation
/// leaves behind, the per-op correctness checker, the in-memory span
/// tracer used by the traced run, and the Workload interface main.cpp
/// drives.
///
/// Spans are recorded only by the benchmark, around each call it makes
/// into a layer's public entry point (or, for the pipeline's own passes,
/// between core::PassManager after-pass callbacks). Nothing inside the
/// program under test is instrumented.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_PERFBENCH_BENCH_H
#define SRP_PERFBENCH_BENCH_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Command-line options of one benchmark run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Name of one correctness check whose expectation is deliberately
  /// corrupted in set-up (the self-test); empty for a normal run.
  std::string Inject;
  /// Checkout root: where the checked-in .sir corpus is read from.
  std::string Root = ".";
};

/// One timed operation, in the order its client sent it (16 bytes).
struct OpRecord {
  uint64_t StartNs = 0;
  uint32_t DurNs = 0; ///< saturates at about 4.3 s
  uint16_t Class = 0;
  bool Ok = false;

  void finish(uint64_t EndNs) {
    DurNs = static_cast<uint32_t>(
        std::min<uint64_t>(EndNs - StartNs, UINT32_MAX));
  }
  uint64_t endNs() const { return StartNs + DurNs; }
};

/// Counts failed checks; keeps the first few messages for the report.
class Checker {
public:
  /// Records one check; returns \p Cond.
  bool expect(bool Cond, const std::string &What) {
    ++Checks;
    if (!Cond) {
      ++Failed;
      if (Messages.size() < 20)
        Messages.push_back(What);
    }
    return Cond;
  }
  void merge(const Checker &O) {
    Checks += O.Checks;
    Failed += O.Failed;
    for (const std::string &M : O.Messages)
      if (Messages.size() < 20)
        Messages.push_back(M);
  }
  uint64_t Checks = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Messages;
};

/// One span: a named interval inside one op. Names are "<layer>.<what>"
/// string literals ("arch.execute", "pre.promote", ...) except the op's
/// root span, named "op", which belongs to no layer.
struct Span {
  const char *Name = nullptr;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int32_t Parent = -1;
  uint32_t Op = 0;
  /// The duration came from a serve request's stats epoch: the server
  /// reports how long each pass ran, not when, so StartNs is the parent's
  /// start and only EndNs - StartNs is meaningful.
  bool FromEpoch = false;
};

/// In-memory span recorder of one client thread. Disabled tracers record
/// nothing, so the untraced run pays one branch per would-be span.
class Tracer {
public:
  explicit Tracer(bool On) : On(On) {
    if (On)
      Spans.reserve(1u << 16);
  }
  bool on() const { return On; }

  void setOp(uint32_t Id) { CurOp = Id; }

  int32_t open(const char *Name) {
    if (!On)
      return -1;
    Spans.push_back({Name, nowNs(), 0, Cur, CurOp, false});
    Cur = static_cast<int32_t>(Spans.size() - 1);
    return Cur;
  }
  void close(int32_t Idx) {
    if (Idx < 0)
      return;
    Spans[Idx].EndNs = nowNs();
    Cur = Spans[Idx].Parent;
  }
  /// A completed child of the currently open span, timed by the caller.
  void record(const char *Name, uint64_t Start, uint64_t End) {
    if (On)
      Spans.push_back({Name, Start, End, Cur, CurOp, false});
  }
  /// A child of span \p Parent known only by its duration (FromEpoch).
  void recordEpoch(const char *Name, int32_t Parent, uint64_t DurNs) {
    if (!On || Parent < 0)
      return;
    uint64_t Start = Spans[Parent].StartNs;
    Spans.push_back({Name, Start, Start + DurNs, Parent, CurOp, true});
  }

  std::vector<Span> Spans;

private:
  bool On;
  int32_t Cur = -1;
  uint32_t CurOp = 0;
};

/// Opens a span for the enclosing scope.
class SpanScope {
public:
  SpanScope(Tracer &T, const char *Name) : T(T), Idx(T.open(Name)) {}
  ~SpanScope() { T.close(Idx); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;
  int32_t index() const { return Idx; }

private:
  Tracer &T;
  int32_t Idx;
};

/// What one timed phase (untraced or traced) produced.
struct Phase {
  /// Sets up the op and span buffers of \p N clients. Op records are
  /// reserved up front and never move, so the benchmark's own bookkeeping
  /// adds 16 resident bytes per op to peak_rss_mb and no copies.
  void addClients(unsigned N, bool Traced) {
    Ops.resize(N);
    for (std::vector<OpRecord> &O : Ops)
      O.reserve(1u << 20);
    for (unsigned I = 0; I < N; ++I)
      Tracers.emplace_back(Traced);
  }

  double WallSeconds = 0;
  /// Per client, in the order sent.
  std::vector<std::vector<OpRecord>> Ops;
  /// Per client; empty spans when the phase was untraced.
  std::vector<Tracer> Tracers;
  Checker Checks;
  /// Counts that must be identical for every complete pass over the
  /// workload's inputs, traced or not (a pass's simulated instructions,
  /// promoted expressions, ...). Empty when no pass completed.
  std::map<std::string, uint64_t> PassCounts;
  /// Per-layer extras measured by the workload itself (simulated
  /// instructions of the traced ops, serve cache counters, ...).
  std::map<std::string, double> Layer;
};

/// One benchmark workload. A fresh instance is set up for every set-up
/// repetition; the last one runs the timed phases.
class Workload {
public:
  virtual ~Workload() = default;

  /// Builds the inputs and runs one untimed warm-up pass over every
  /// distinct input, checking each warm-up result into \p C.
  virtual void setUp(Checker &C) = 0;

  /// Runs the closed loop for about \p Seconds (to the end of the pass or
  /// block in progress) and checks every op.
  virtual Phase run(double Seconds, bool Traced) = 0;

  /// Op class names, indexed by OpRecord::Class.
  virtual std::vector<std::string> classNames() const = 0;

  /// Ops per latency block of one client: the tail percentile is taken
  /// per block, so it does not depend on how many ops a run completes.
  virtual size_t blockOps() const = 0;

  /// Concurrent closed-loop clients.
  virtual unsigned clients() const { return 1; }

  /// Counts fixed by the inputs alone (identical for two runs of one
  /// seed on one build), recorded in set-up.
  virtual std::map<std::string, uint64_t> setupCounts() const = 0;

  /// Free-form description of the workload's shape for the report.
  virtual std::map<std::string, std::string> describe() const = 0;
};

std::unique_ptr<Workload> makePaperGrid(const Options &Opts);
std::unique_ptr<Workload> makeSirCorpus(const Options &Opts);
std::unique_ptr<Workload> makeServeMix(const Options &Opts);

} // namespace perfbench

#endif // SRP_PERFBENCH_BENCH_H
