//===- ServeFuzzer.cpp - Serve protocol decoder fuzzing ------------------------===//

#include "fuzz/ServeFuzzer.h"

#include "core/Experiment.h"
#include "core/Serve.h"
#include "ir/Parser.h"
#include "support/Hash.h"
#include "support/JSON.h"
#include "support/JSONReader.h"
#include "support/OStream.h"
#include "support/RNG.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>

#include <sys/stat.h>

using namespace srp;
using namespace srp::fuzz;

namespace {

/// The canned program valid frames carry: tiny (a handful of simulated
/// instructions) so a fuzz campaign's occasional real pipeline runs cost
/// microseconds, not milliseconds. p and pp chain to a, so every
/// reference shape specProgram() writes is in bounds.
constexpr const char *TinyProgram = R"(global a : int[2]
global p : int
global pp : int

func main() -> int {
entry:
  t1 = addrof a
  st p = t1
  t2 = addrof p
  st pp = t2
  st a = 7
  t0 = ld a
  t3 = add t0, 35
  print t3
  ret t3
}
)";

/// The canned program with its load or its store rewritten to a random
/// speculation flag and reference shape, with or without the @addr or
/// alat-> operand. The verifier must reject each shape lowering cannot
/// handle, so the server answers status 2 instead of aborting.
std::string specProgram(RNG &R) {
  static const char *const Shapes[] = {"a", "*p", "**pp", "a[1]"};
  static const char *const Flags[] = {"",          "<ld.a>",    "<ld.sa>",
                                      "<ld.c.clr>", "<ld.c.nc>", "<chk.a.clr>",
                                      "<chk.a.nc>"};
  const char *Shape = Shapes[R.nextBelow(std::size(Shapes))];
  bool WithOperand = R.nextBool(0.5);
  std::string Program = TinyProgram;
  if (R.nextBool(0.5))
    Program.replace(Program.find("t0 = ld a"), 9,
                    formatString("t0 = ld%s %s%s",
                                 Flags[R.nextBelow(std::size(Flags))], Shape,
                                 WithOperand ? " @addr(t1)" : ""));
  else
    Program.replace(Program.find("st a = 7"), 8,
                    formatString("st%s %s = 7%s",
                                 R.nextBool(0.5) ? "<st.a>" : "", Shape,
                                 WithOperand ? " alat->t0" : ""));
  return Program;
}

/// The canned program with its add rewritten to a random integer op over
/// edge operands (INT64_MIN / -1, overflowing add/sub/mul, wide shifts):
/// both engines' arithmetic is total, so the server answers status 0.
std::string arithProgram(RNG &R) {
  static const char *const Ops[] = {"add", "sub", "mul", "div",
                                    "rem", "shl", "shr"};
  static const char *const Operands[] = {"-9223372036854775808", "-1", "0",
                                         "9223372036854775807", "t0"};
  const char *Op = Ops[R.nextBelow(std::size(Ops))];
  const char *X = Operands[R.nextBelow(std::size(Operands))];
  const char *Y = Operands[R.nextBelow(std::size(Operands))];
  std::string Program = TinyProgram;
  Program.replace(Program.find("t3 = add t0, 35"), 15,
                  formatString("t3 = %s %s, %s", Op, X, Y));
  return Program;
}

/// The server every oracle run fuzzes: deliberately tight limits so
/// seed-derived inputs actually reach the oversized-frame, oversized-
/// program, and cache-eviction paths.
core::ServeOptions fuzzServeOptions() {
  core::ServeOptions O;
  O.Threads = 1;
  O.MaxLineBytes = 2048;
  O.MaxProgramBytes = 1024;
  O.MaxScale = 4;
  O.InterpFuel = 1'000'000;
  O.Cache.ByteBudget = 64u << 10;
  core::Workload Tiny;
  Tiny.Name = "tiny";
  Tiny.Build = [](ir::Module &M, uint64_t) {
    std::string Error;
    bool Ok = ir::parseModule(TinyProgram, M, Error);
    (void)Ok;
  };
  Tiny.TrainScale = 1;
  Tiny.RefScale = 2;
  O.Workloads.push_back(std::move(Tiny));
  return O;
}

std::string jsonQuoted(std::string_view S) {
  std::string Out;
  StringOStream OS(Out);
  JSONWriter W(OS, /*Compact=*/true);
  W.value(S);
  return Out;
}

std::string validFrame(RNG &R) {
  switch (R.nextBelow(10)) {
  case 0:
    return "{\"id\":\"p\",\"op\":\"ping\"}";
  case 1:
    return "{\"op\":\"stats\"}";
  case 2:
    return formatString("{\"id\":\"w%llu\",\"op\":\"run\",\"workload\":"
                        "\"tiny\",\"config\":{\"strategy\":\"%s\"}}",
                        (unsigned long long)R.nextBelow(3),
                        R.nextBool(0.5) ? "alat" : "baseline");
  case 3:
    return "{\"op\":\"run\",\"workload\":\"tiny\",\"stats\":true}";
  case 4:
    return "{\"op\":\"run\",\"program\":" + jsonQuoted(TinyProgram) + "}";
  case 5:
    return "{\"op\":\"run\",\"workload\":\"no-such\"}";
  case 6:
    return formatString("{\"op\":\"run\",\"workload\":\"tiny\","
                        "\"train_scale\":%llu,\"ref_scale\":%llu}",
                        (unsigned long long)R.nextBelow(6),
                        (unsigned long long)R.nextBelow(6));
  case 7:
    return "{\"op\":\"run\",\"program\":" + jsonQuoted(specProgram(R)) +
           "}";
  case 8:
    return "{\"op\":\"run\",\"program\":" + jsonQuoted(arithProgram(R)) +
           "}";
  default:
    return "{\"id\":\"s\",\"op\":\"shutdown\"}";
  }
}

std::string malformedFrame(RNG &R) {
  switch (R.nextBelow(8)) {
  case 0:
    return "{ not json at all";
  case 1:
    return "[1,2,3]";
  case 2:
    return "{\"op\":\"ping\",\"op\":\"ping\"}"; // duplicate key
  case 3:
    return std::string(R.nextBelow(120), '['); // deep nesting
  case 4:
    return "{\"op\":\"run\",\"workload\":\"tiny\",\"bogus\":null}";
  case 5:
    return "{\"id\":12,\"op\":\"ping\"}"; // non-string id
  case 6:
    return "{\"op\":\"run\",\"program\":\"global x :\"}"; // parse error
  default: {
    // An oversized frame: longer than the fuzz server's 2048-byte line
    // limit, exercising drop-and-resync.
    std::string Out = "{\"op\":\"ping\",\"pad\":\"";
    Out.append(2100 + R.nextBelow(400), 'x');
    return Out + "\"}";
  }
  }
}

std::string garbageBytes(RNG &R) {
  size_t N = 1 + R.nextBelow(160);
  std::string Out;
  Out.reserve(N);
  for (size_t I = 0; I < N; ++I)
    Out.push_back(static_cast<char>(R.nextBelow(256)));
  return Out;
}

} // namespace

std::string fuzz::serveInputFromSeed(uint64_t Seed) {
  RNG R(Seed * 0x9e3779b97f4a7c15ULL + 0x5e12e);
  std::string Out;
  unsigned Frames = 1 + static_cast<unsigned>(R.nextBelow(6));
  for (unsigned I = 0; I < Frames; ++I) {
    switch (R.nextBelow(4)) {
    case 0:
    case 1:
      Out += validFrame(R);
      break;
    case 2:
      Out += malformedFrame(R);
      break;
    default:
      Out += garbageBytes(R);
      break;
    }
    // Mostly terminated frames; an unterminated tail (truncated frame)
    // now and then.
    if (I + 1 < Frames || R.nextBool(0.85))
      Out += '\n';
  }
  // Whole-stream mutations: truncation, byte flips, garbage splices —
  // the raw-socket abuse the decoder must shrug off.
  if (!Out.empty() && R.nextBool(0.25))
    Out.resize(1 + R.nextBelow(Out.size()));
  if (!Out.empty() && R.nextBool(0.35))
    Out[R.nextBelow(Out.size())] = static_cast<char>(R.nextBelow(256));
  if (R.nextBool(0.2)) {
    std::string Splice = garbageBytes(R);
    Out.insert(R.nextBelow(Out.size() + 1), Splice);
  }
  return Out;
}

namespace {

/// Validates the documented response shape. Returns false with \p Detail
/// set when the frame violates it.
bool responseShapeOk(const std::string &Response, std::string &Detail) {
  JSONValue Doc;
  std::string Error;
  if (!parseJSON(Response, Doc, Error)) {
    Detail = "response is not valid JSON (" + Error + "): " + Response;
    return false;
  }
  if (!Doc.isObject()) {
    Detail = "response is not an object: " + Response;
    return false;
  }
  const JSONValue *Id = Doc.find("id");
  const JSONValue *Cached = Doc.find("cached");
  const JSONValue *Result = Doc.find("result");
  if (!Id || (!Id->isNull() && !Id->isString())) {
    Detail = "response id missing or not string/null: " + Response;
    return false;
  }
  if (!Cached || !Cached->isBool()) {
    Detail = "response cached missing or not bool: " + Response;
    return false;
  }
  if (!Result || !Result->isObject()) {
    Detail = "response result missing or not object: " + Response;
    return false;
  }
  for (const auto &[Name, Value] : Doc.members())
    if (Name != "id" && Name != "cached" && Name != "result" &&
        Name != "stats") {
      Detail = "unexpected response field '" + Name + "': " + Response;
      return false;
    }
  const JSONValue *Status = Result->find("status");
  const JSONValue *Ok = Result->find("ok");
  if (!Status || !Status->isUint() || Status->asUint() > 2) {
    Detail = "result.status missing or not in {0,1,2}: " + Response;
    return false;
  }
  if (!Ok || !Ok->isBool() || Ok->asBool() != (Status->asUint() == 0)) {
    Detail = "result.ok inconsistent with result.status: " + Response;
    return false;
  }
  if (Status->asUint() != 0) {
    const JSONValue *ErrorV = Result->find("error");
    if (!ErrorV || !ErrorV->isString()) {
      Detail = "failed result carries no error string: " + Response;
      return false;
    }
  }
  return true;
}

/// The id the server must echo for \p Frame, when the frame parses and
/// carries a legal string id; nullopt when anything goes.
std::optional<std::string> expectedId(const std::string &Frame) {
  JSONValue Doc;
  std::string Error;
  if (!parseJSON(Frame, Doc, Error) || !Doc.isObject())
    return std::nullopt;
  const JSONValue *Id = Doc.find("id");
  if (!Id || !Id->isString() || Id->asString().size() > 256)
    return std::nullopt;
  return Id->asString();
}

bool containsStatsEcho(const std::string &Response) {
  return Response.find(",\"stats\":{") != std::string::npos;
}

} // namespace

bool fuzz::checkServeInput(const std::string &Input, std::string &Detail) {
  // -- Invariant 1: framing is chunking-independent -----------------------
  core::ServeOptions Opts = fuzzServeOptions();
  core::LineSplitter Whole(Opts.MaxLineBytes);
  std::vector<std::string> Frames;
  size_t Dropped = Whole.feed(Input, Frames);
  std::string Partial;
  bool Unterminated = Whole.finish(Partial);

  core::LineSplitter Chunked(Opts.MaxLineBytes);
  std::vector<std::string> FramesB;
  size_t DroppedB = 0;
  RNG ChunkRng(fnv1a64(Input) ^ 0xc4c4c4c4ULL);
  for (size_t Pos = 0; Pos < Input.size();) {
    size_t N = 1 + ChunkRng.nextBelow(
                       std::min<size_t>(Input.size() - Pos, 97));
    DroppedB += Chunked.feed(std::string_view(Input).substr(Pos, N), FramesB);
    Pos += N;
  }
  std::string PartialB;
  bool UnterminatedB = Chunked.finish(PartialB);
  if (Frames != FramesB || Dropped != DroppedB ||
      Unterminated != UnterminatedB || Partial != PartialB) {
    Detail = formatString(
        "frame decoding depends on chunking: whole=(%zu frames, %zu "
        "dropped, tail=%d) chunked=(%zu frames, %zu dropped, tail=%d)",
        Frames.size(), Dropped, int(Unterminated), FramesB.size(), DroppedB,
        int(UnterminatedB));
    return false;
  }

  // -- Invariants 2+3: total server, deterministic responses --------------
  core::ServerCore A(fuzzServeOptions());
  core::ServerCore B(fuzzServeOptions());
  for (const std::string &Frame : Frames) {
    std::string RespA, RespB;
    try {
      RespA = A.handle(Frame);
      RespB = B.handle(Frame);
    } catch (const std::exception &E) {
      Detail = formatString("handle() threw (%s) on frame: ", E.what()) +
               Frame;
      return false;
    }
    if (!responseShapeOk(RespA, Detail))
      return false;
    if (std::optional<std::string> Id = expectedId(Frame)) {
      std::string Expect = "{\"id\":" + jsonQuoted(*Id) + ",";
      if (RespA.compare(0, Expect.size(), Expect) != 0) {
        Detail = "request id not echoed (wanted " + jsonQuoted(*Id) +
                 "): " + RespA;
        return false;
      }
    }
    // Stats epochs carry wall-clock pass timings — the one documented
    // nondeterministic field — so frames that requested stats are
    // exempt from the byte-identity check (shape was still validated).
    if (!containsStatsEcho(RespA) && !containsStatsEcho(RespB) &&
        RespA != RespB) {
      Detail = "nondeterministic response for frame '" + Frame +
               "': " + RespA + " vs " + RespB;
      return false;
    }
  }

  // Dropped and unterminated frames owe the client a well-formed
  // status-2 error frame too.
  for (size_t I = 0; I < Dropped + (Unterminated ? 1 : 0); ++I) {
    std::string Resp = A.protocolErrorResponse("fuzz: dropped frame");
    if (!responseShapeOk(Resp, Detail))
      return false;
  }
  return true;
}

std::string ServeFinding::replayArg() const {
  return formatString("0x%llx", (unsigned long long)Seed);
}

namespace {

/// Greedy chunk-removal minimization: repeatedly delete byte ranges
/// while the input still violates the contract. Detail may shift to a
/// different violation while shrinking — any violation is a finding.
std::string minimizeInput(std::string Input, std::string &Detail,
                          size_t MaxOracleRuns = 3000) {
  size_t Runs = 0;
  for (size_t Chunk = std::max<size_t>(1, Input.size() / 2); Chunk >= 1;) {
    bool Shrunk = false;
    for (size_t Pos = 0; Pos + Chunk <= Input.size() && Runs < MaxOracleRuns;
         ) {
      std::string Candidate =
          Input.substr(0, Pos) + Input.substr(Pos + Chunk);
      std::string CandidateDetail;
      ++Runs;
      if (!checkServeInput(Candidate, CandidateDetail)) {
        Input = std::move(Candidate);
        Detail = std::move(CandidateDetail);
        Shrunk = true;
        // Same Pos again: the next chunk slid into place.
      } else {
        Pos += Chunk;
      }
    }
    if (Runs >= MaxOracleRuns)
      break;
    if (!Shrunk) {
      if (Chunk == 1)
        break;
      Chunk /= 2;
    }
  }
  return Input;
}

std::string writeRepro(const std::string &Dir, uint64_t Seed,
                       const std::string &Input) {
  ::mkdir(Dir.c_str(), 0755); // EEXIST is fine
  std::string Path = Dir + formatString("/serve-%016llx.in",
                                        (unsigned long long)Seed);
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  if (!File)
    return {};
  std::fwrite(Input.data(), 1, Input.size(), File);
  std::fclose(File);
  return Path;
}

} // namespace

ServeFuzzResult fuzz::runServeFuzz(const ServeFuzzOptions &Options) {
  ServeFuzzResult Result;
  const uint64_t Base = fnv1a64(Options.Seed, 0x5eedf00dULL);
  constexpr uint64_t BatchSize = 64;

  for (uint64_t Done = 0; Done < Options.Iterations &&
                          Result.Findings.size() < Options.MaxFindings;
       Done += BatchSize) {
    uint64_t Batch = std::min<uint64_t>(BatchSize, Options.Iterations - Done);
    std::vector<std::string> Details(Batch);
    std::vector<uint64_t> Seeds(Batch);
    core::parallelFor(Options.Threads, Batch, [&](size_t I) {
      // The iteration seed is what --replay-serve takes: the input is a
      // pure function of it, independent of campaign seed bookkeeping.
      Seeds[I] = fnv1a64(Done + I, Base);
      std::string Input = serveInputFromSeed(Seeds[I]);
      std::string Detail;
      if (!checkServeInput(Input, Detail))
        Details[I] = Detail;
    });
    Result.Iterations += Batch;
    for (uint64_t I = 0; I < Batch; ++I) {
      if (Details[I].empty() ||
          Result.Findings.size() >= Options.MaxFindings)
        continue;
      ServeFinding F;
      F.Seed = Seeds[I];
      F.Detail = Details[I];
      F.Input = serveInputFromSeed(Seeds[I]);
      if (Options.Minimize)
        F.Input = minimizeInput(std::move(F.Input), F.Detail);
      if (!Options.ReproDir.empty())
        F.ReproPath = writeRepro(Options.ReproDir, F.Seed, F.Input);
      Result.Findings.push_back(std::move(F));
    }
    if (Options.Log)
      Options.Log(formatString("serve-fuzz: %llu/%llu inputs, %zu finding(s)",
                               (unsigned long long)Result.Iterations,
                               (unsigned long long)Options.Iterations,
                               Result.Findings.size()));
  }
  return Result;
}
