//===- GoldenFile.h - Compare a test's lines with a checked-in golden ----===//
//
// The golden tests render what they pin as one line per input and
// compare those lines with a file under tests/golden/:
//
//   compile.golden  promotion output per .sir input (CompileGoldenTest)
//   sim.golden      every simulated number per run (DecodedModuleTest)
//   interp.golden   every interpreted number per input (InterpGoldenTest)
//
// A change that is meant to alter a golden regenerates all three with
//
//   SRP_GOLDEN_OUT=$PWD/tests/golden ctest --test-dir build -R 'Golden|Decoded'
//
// run from the source root (SRP_GOLDEN_OUT names the directory the tests
// write into; they skip instead of comparing), and the diff is reviewed
// like the counter fingerprint.
//
//===----------------------------------------------------------------------===//

#ifndef SRP_TESTS_GOLDENFILE_H
#define SRP_TESTS_GOLDENFILE_H

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace srp::test {

/// The contents of \p Path (a golden input such as a .sir file).
inline std::string readFile(const std::filesystem::path &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Compares \p Actual with the non-comment lines of tests/golden/\p File,
/// or, when SRP_GOLDEN_OUT is set, writes "# \p Header" and \p Actual to
/// $SRP_GOLDEN_OUT/\p File and skips the test.
inline void expectMatchesGolden(const std::string &File,
                                const std::string &Header,
                                const std::vector<std::string> &Actual) {
  namespace fs = std::filesystem;
  if (const char *Dir = std::getenv("SRP_GOLDEN_OUT")) {
    fs::path Out = fs::path(Dir) / File;
    std::ofstream OS(Out, std::ios::binary);
    OS << "# " << Header << '\n';
    for (const std::string &L : Actual)
      OS << L << '\n';
    ASSERT_TRUE(OS.good()) << "cannot write " << Out;
    GTEST_SKIP() << "wrote " << Actual.size() << " lines to " << Out;
  }

  std::ifstream In(fs::path(SRP_SOURCE_DIR) / "tests/golden" / File);
  ASSERT_TRUE(In) << "missing tests/golden/" << File;
  std::vector<std::string> Expected;
  for (std::string L; std::getline(In, L);)
    if (!L.empty() && L[0] != '#')
      Expected.push_back(L);

  ASSERT_EQ(Actual.size(), Expected.size()) << "golden input count changed";
  unsigned Mismatches = 0;
  for (size_t I = 0; I < Actual.size(); ++I)
    if (Actual[I] != Expected[I] && ++Mismatches <= 20)
      ADD_FAILURE() << "expected: " << Expected[I]
                    << "\n  actual: " << Actual[I];
  EXPECT_EQ(Mismatches, 0u);
}

} // namespace srp::test

#endif // SRP_TESTS_GOLDENFILE_H
