//===- ParserTest.cpp - Tests for the textual IR parser ----------*- C++ -*-===//

#include "ir/Parser.h"

#include "fuzz/Fuzzer.h"
#include "fuzz/RandomProgram.h"
#include "interp/Interpreter.h"
#include "ir/CFG.h"
#include "ir/IRBuilder.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace srp;
using namespace srp::ir;

namespace {

void parseOrDie(const char *Text, Module &M) {
  std::string Error;
  ASSERT_TRUE(parseModule(Text, M, Error)) << Error;
}

std::vector<std::string> runText(const char *Text) {
  Module M;
  std::string Error;
  EXPECT_TRUE(parseModule(Text, M, Error)) << Error;
  EXPECT_TRUE(verifyModule(M).empty());
  interp::Interpreter I(M);
  auto R = I.run();
  EXPECT_TRUE(R.Ok) << R.Error;
  return R.Output;
}

TEST(ParserTest, MinimalProgram) {
  auto Out = runText(R"(
global a : int
func main() {
entry:
  st a = 41
  t0 = ld a
  t1 = add t0, 1
  print t1
  ret
}
)");
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0], "42");
}

TEST(ParserTest, CommentsAndBlanksIgnored) {
  auto Out = runText(R"(
# a comment line
global a : int   # trailing comment

func main() {
entry:
  st a = 5       # store
  t0 = ld a
  print t0
  ret
}
)");
  EXPECT_EQ(Out[0], "5");
}

TEST(ParserTest, ControlFlowAndLoops) {
  auto Out = runText(R"(
global i : int
global sum : int
func main() {
entry:
  st i = 0
  br hdr
hdr:
  t0 = ld i
  t1 = cmplt t0, 10
  condbr t1, body, exit
body:
  t2 = ld sum
  t3 = ld i
  t4 = add t2, t3
  st sum = t4
  t5 = add t3, 1
  st i = t5
  br hdr
exit:
  t6 = ld sum
  print t6
  ret t6
}
)");
  EXPECT_EQ(Out[0], "45");
}

TEST(ParserTest, PointersArraysOffsets) {
  auto Out = runText(R"(
global arr : int[8]
global p : int
func main() {
entry:
  t0 = addrof arr[2]
  st p = t0
  st *p = 7
  st *p{+8} = 9
  t1 = ld arr[2]
  t2 = ld arr[3]
  t3 = add t1, t2
  print t3
  ret
}
)");
  EXPECT_EQ(Out[0], "16");
}

TEST(ParserTest, FloatsAndConversion) {
  auto Out = runText(R"(
global x : float
func main() {
entry:
  st x = 1.5f
  t0 = ld x
  t1 = fmul t0, 4f
  t2 = fptoint t1
  print t2
  ret
}
)");
  EXPECT_EQ(Out[0], "6");
}

TEST(ParserTest, CallsAndFormals) {
  auto Out = runText(R"(
func double(n : int) -> int {
entry:
  t0 = ld n
  t1 = mul t0, 2
  ret t1
}
func main() {
entry:
  t0 = call double(21)
  print t0
  ret
}
)");
  EXPECT_EQ(Out[0], "42");
}

TEST(ParserTest, AllocAndHeap) {
  auto Out = runText(R"(
global p : int
func main() {
entry:
  t0 = alloc 4 @mysite
  st p = t0
  st *p{+16} = 77
  t1 = ld *p{+16}
  print t1
  ret
}
)");
  EXPECT_EQ(Out[0], "77");
}

TEST(ParserTest, SpeculationFlagsRoundTrip) {
  Module M;
  parseOrDie(R"(
global a : int
func main() {
entry:
  invala t0
  t0 = ld<ld.a> a
  t1 = ld<ld.c.nc> a
  print t1
  ret
}
)",
             M);
  const BasicBlock *BB = M.function(0)->entry();
  EXPECT_EQ(BB->stmt(0)->Kind, StmtKind::Invala);
  EXPECT_EQ(BB->stmt(1)->Flag, SpecFlag::LdA);
  EXPECT_EQ(BB->stmt(2)->Flag, SpecFlag::LdCnc);
}

TEST(ParserTest, PrintParseRoundTrip) {
  // Build with the IRBuilder, print, re-parse, and compare outputs.
  Module M;
  Symbol *A = M.createGlobal("a", TypeKind::Int);
  Symbol *Arr = M.createGlobal("arr", TypeKind::Float, 4);
  IRBuilder B(M);
  B.startFunction("main");
  BasicBlock *Then = B.createBlock("then");
  BasicBlock *Join = B.createBlock("join");
  B.emitStore(directRef(A), Operand::constInt(3));
  unsigned T0 = B.emitLoad(directRef(A));
  B.emitStore(arrayRef(Arr, Operand::temp(T0)),
              Operand::constFloat(2.5));
  unsigned TC = B.emitAssign(Opcode::CmpLt, Operand::temp(T0),
                             Operand::constInt(10));
  B.setCondBr(Operand::temp(TC), Then, Join);
  B.setBlock(Then);
  B.emitPrint(Operand::temp(T0));
  B.setBr(Join);
  B.setBlock(Join);
  unsigned TF = B.emitLoad(arrayRef(Arr, Operand::temp(T0)));
  B.emitPrint(Operand::temp(TF));
  B.setRet();
  M.function(0)->recomputeCFG();

  interp::Interpreter I1(M);
  auto Ref = I1.run();
  ASSERT_TRUE(Ref.Ok);

  std::string Text = moduleToString(M);
  Module M2;
  std::string Error;
  ASSERT_TRUE(parseModule(Text, M2, Error)) << Error << "\n" << Text;
  ASSERT_TRUE(verifyModule(M2).empty());
  interp::Interpreter I2(M2);
  auto Out = I2.run();
  ASSERT_TRUE(Out.Ok) << Out.Error;
  EXPECT_EQ(Out.Output, Ref.Output);
}

TEST(ParserTest, ErrorsCarryLineNumbers) {
  Module M;
  std::string Error;
  EXPECT_FALSE(parseModule(R"(
global a : int
func main() {
entry:
  t0 = frobnicate 1, 2
  ret
}
)",
                           M, Error));
  EXPECT_NE(Error.find("line 5"), std::string::npos) << Error;
  EXPECT_NE(Error.find("frobnicate"), std::string::npos);
}

TEST(ParserTest, RejectsUnknownSymbol) {
  Module M;
  std::string Error;
  EXPECT_FALSE(parseModule(R"(
func main() {
entry:
  t0 = ld nothere
  ret
}
)",
                           M, Error));
  EXPECT_NE(Error.find("nothere"), std::string::npos);
}

TEST(ParserTest, RejectsBranchToUnknownLabel) {
  Module M;
  std::string Error;
  EXPECT_FALSE(parseModule(R"(
func main() {
entry:
  br nowhere
}
)",
                           M, Error));
  EXPECT_NE(Error.find("nowhere"), std::string::npos);
}

TEST(ParserTest, RejectsStatementAfterTerminator) {
  Module M;
  std::string Error;
  EXPECT_FALSE(parseModule(R"(
global a : int
func main() {
entry:
  ret
  st a = 1
}
)",
                           M, Error));
  EXPECT_NE(Error.find("after the block terminator"), std::string::npos);
}

/// Parses \p Text, expecting failure, and returns the diagnostic.
std::string parseError(const std::string &Text) {
  Module M;
  std::string Error;
  EXPECT_FALSE(parseModule(Text, M, Error)) << Text;
  return Error;
}

std::string inMain(const std::string &Body) {
  return "global a : int\nfunc main() {\nentry:\n" + Body + "  ret\n}\n";
}

TEST(ParserTest, RejectsMalformedNumbers) {
  // The number token still runs over digits and ".e+-"; the whole run
  // must be one well-formed number rather than its longest valid prefix.
  EXPECT_EQ(parseError(inMain("  t1 = add 1-2, 3\n")),
            "line 4: malformed number '1-2'");
  EXPECT_EQ(parseError(inMain("  print 5e\n")),
            "line 4: malformed number '5e'");
  EXPECT_EQ(parseError(inMain("  print 1.2.3\n")),
            "line 4: malformed number '1.2.3'");
  EXPECT_EQ(parseError(inMain("  print --5\n")),
            "line 4: malformed number '--5'");
  EXPECT_EQ(parseError(inMain("  st a = 3\n  st a = +-5f\n")),
            "line 5: malformed number '+-5'");
  // Out of range instead of saturated or rounded to infinity or zero.
  EXPECT_EQ(parseError(inMain("  print 99999999999999999999\n")),
            "line 4: number out of range '99999999999999999999'");
  EXPECT_EQ(parseError(inMain("  print 9223372036854775808\n")),
            "line 4: number out of range '9223372036854775808'");
  EXPECT_EQ(parseError(inMain("  print 1e999f\n")),
            "line 4: number out of range '1e999'");
  EXPECT_EQ(parseError(inMain("  print 1e-400f\n")),
            "line 4: number out of range '1e-400'");
  EXPECT_EQ(parseError(inMain("  print t99999999999999999999\n")),
            "line 4: number out of range '99999999999999999999'");
  EXPECT_EQ(parseError("global g : int[4294967296]\n"),
            "line 1: malformed array extent");
  EXPECT_EQ(parseError(inMain("  st *a{+99999999999999999999} = 1\n")),
            "line 4: malformed offset");

  // Edge values that are well formed still parse exactly.
  Module M;
  parseOrDie(inMain("  print -9223372036854775808\n  print +7\n"
                    "  print .5\n  print 5.\n  print 1e+06f\n"
                    "  print 4.94066e-324f\n")
                 .c_str(),
             M);
  const BasicBlock *BB = M.function(0)->entry();
  EXPECT_EQ(BB->stmt(0)->A, Operand::constInt(INT64_MIN));
  EXPECT_EQ(BB->stmt(1)->A, Operand::constInt(7));
  EXPECT_EQ(BB->stmt(2)->A, Operand::constFloat(0.5));
  EXPECT_EQ(BB->stmt(3)->A, Operand::constFloat(5.0));
  EXPECT_EQ(BB->stmt(4)->A, Operand::constFloat(1e6));
  EXPECT_GT(BB->stmt(5)->A.FloatVal, 0.0);
}

TEST(ParserTest, RejectsNamelessDeclarations) {
  EXPECT_EQ(parseError("global : int\n"), "line 1: global without a name");
  EXPECT_EQ(parseError("func main() {\n  local : int\nentry:\n  ret\n}\n"),
            "line 2: local without a name");
  EXPECT_EQ(parseError("func main() {\n  local }\n"),
            "line 2: local without a name");
}

TEST(ParserTest, TempIdsKeepTheirMapping) {
  // Text ids are names: any int64 maps to a fresh temp in mention order,
  // including negative and huge ones.
  Module M;
  parseOrDie(inMain("  t4000000000 = add 1, 2\n  t-7 = add t4000000000, 3\n"
                    "  t1 = add t-7, t4000000000\n  print t1\n")
                 .c_str(),
             M);
  const Function *F = M.function(0);
  EXPECT_EQ(F->numTemps(), 3u);
  EXPECT_EQ(stmtToString(*F->entry()->stmt(1)), "t1 = add t0, 3");
  EXPECT_EQ(stmtToString(*F->entry()->stmt(2)), "t2 = add t1, t0");
}

TEST(ParserTest, AnyLineEndingInColonIsALabel) {
  // The label rule looks at the line's last character, so a line shaped
  // like a statement is still a label, and the temps it mentions are
  // not created.
  Module M;
  parseOrDie("func main() {\nentry:\n  t0 = add 1, 2\nt7 = add t0, 1:\n"
             "  print t0\n  ret\n}\n",
             M);
  const Function *F = M.function(0);
  ASSERT_EQ(F->numBlocks(), 2u);
  EXPECT_EQ(F->block(1)->getName(), "t7 = add t0, 1");
  EXPECT_EQ(F->numTemps(), 1u);
  EXPECT_EQ(F->block(1)->stmt(0)->Line, 5u);
}

TEST(ParserTest, UnknownLabelReportedAfterLaterSyntaxErrors) {
  // Labels resolve once their function closes; a syntax error further
  // down still wins, and of two unknown labels the first one does.
  EXPECT_EQ(parseError("func f() {\nentry:\n  br nowhere\n}\n"
                       "func main() {\nentry:\n  frob\n}\n"),
            "line 7: unrecognized statement");
  EXPECT_EQ(parseError("func f() {\nentry:\n  br nowhere\n}\n"
                       "func main() {\nentry:\n  br elsewhere\n}\n"),
            "line 3: unknown block label 'nowhere'");
  EXPECT_EQ(parseError("func main() {\nentry:\n  condbr 1, entry,\n}\n"),
            "line 3: unknown block label ''");
}

TEST(ParserTest, ParsingIsLinearInBlockCount) {
  // A chain of 50,000 blocks (~1 MB): label lookup and line handling
  // must not rescan earlier blocks.
  std::string Text = "func main() {\n";
  for (int I = 0; I < 50000; ++I) {
    Text += 'b';
    Text += std::to_string(I);
    Text += ":\n  br b";
    Text += std::to_string(I + 1);
    Text += '\n';
  }
  Text += "b50000:\n  ret\n}\n";
  Module M;
  std::string Error;
  auto Start = std::chrono::steady_clock::now();
  ASSERT_TRUE(parseModule(Text, M, Error)) << Error;
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  EXPECT_LT(Seconds, 1.0);
  EXPECT_EQ(M.function(0)->numBlocks(), 50001u);
  EXPECT_EQ(M.function(0)->block(49999)->term().Target,
            M.function(0)->block(50000));
}

/// Parsing and printing \p Text gives its canonical form; parsing and
/// printing that again must reproduce it byte for byte.
void expectPrintFixpoint(const std::string &Text, const std::string &What) {
  Module M;
  std::string Error;
  ASSERT_TRUE(parseModule(Text, M, Error)) << What << ": " << Error;
  std::string Canonical = moduleToString(M);
  Module Reparsed;
  ASSERT_TRUE(parseModule(Canonical, Reparsed, Error))
      << What << ": " << Error;
  EXPECT_EQ(moduleToString(Reparsed), Canonical) << What;
}

TEST(ParserTest, PrintParseFixpointOnCheckedInPrograms) {
  namespace fs = std::filesystem;
  std::vector<fs::path> Files;
  for (const char *Dir : {"examples/sir", "fuzz-repros", "tools"})
    for (const auto &Entry :
         fs::directory_iterator(fs::path(SRP_SOURCE_DIR) / Dir))
      if (Entry.path().extension() == ".sir")
        Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  ASSERT_GE(Files.size(), 10u);
  for (const fs::path &Path : Files) {
    std::ifstream In(Path, std::ios::binary);
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    expectPrintFixpoint(Buffer.str(), Path.string());
  }
}

TEST(ParserTest, PrintParseFixpointOnRandomPrograms) {
  for (uint64_t Seed = 1; Seed <= 500; ++Seed) {
    Module M;
    fuzz::buildRandomProgram(M, Seed, fuzz::GenOptions::fromSeed(Seed));
    fuzz::labelRandomSecrets(M, Seed);
    expectPrintFixpoint(moduleToString(M), "seed " + std::to_string(Seed));
  }
}

TEST(ParserTest, PrintParseFixpointOnEveryConstruct) {
  // Every SpecFlag, st.a with its ALAT temp, negative offsets, float
  // constants that print with exponents, and every statement form.
  const char *Text = R"(
global a : int secret
global f : float[4]
global p : int
func helper(n : int, x : float secret) -> float {
entry:
  t0 = ld x
  ret t0
}
func main() -> int {
  local l : int[2]
entry:
  t0 = ld<ld.a> a
  t1 = ld<ld.sa> a
  t2 = ld<ld.c.clr> a @addr(t9)
  t3 = ld<ld.c.nc> a addr->t8
  t4 = ld<chk.a.clr> *p{-16}:flt
  t5 = ld<chk.a.nc> **p{+8}
  st<st.a> a = t0 alat->t0
  st *p{-8} = 1.5e-07f addr->t7
  st f[t1] = -2.5e+20f
  st f[3] = 1e+06f
  t6 = addrof l[1]
  t10 = alloc 4 @site
  t11 = call helper(3, 0.25f)
  call helper(t6, t11)
  t12 = select t0, t11, 2f
  t13 = fcmplt t11, -0f
  invala t0
  print -9223372036854775808
  condbr t13, entry, exit
exit:
  ret t0
}
)";
  expectPrintFixpoint(Text, "constructs");
  Module M;
  parseOrDie(Text, M);
  std::string Printed = moduleToString(M);
  for (const char *Expected :
       {"ld<ld.a> a", "ld<ld.sa> a", "ld<ld.c.clr> a @addr(t", "ld<ld.c.nc> a",
        "ld<chk.a.clr> *p{-16}:flt", "ld<chk.a.nc> **p{+8}",
        "st<st.a> a = t0 alat->t0", "st *p{-8} = 1.5e-07f", "-2.5e+20f",
        "1e+06f", "-0f", "print -9223372036854775808"})
    EXPECT_NE(Printed.find(Expected), std::string::npos)
        << Expected << "\n"
        << Printed;
}

} // namespace
