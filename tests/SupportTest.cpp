//===- SupportTest.cpp - Tests for the support library ----------*- C++ -*-===//

#include "support/Hash.h"
#include "support/JSONReader.h"
#include "support/OStream.h"
#include "support/RNG.h"
#include "support/Stats.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <thread>

using namespace srp;

namespace {

TEST(OStreamTest, WritesScalars) {
  std::string Buffer;
  StringOStream OS(Buffer);
  OS << "x=" << 42 << ' ' << -7 << ' ' << 3.5 << ' ' << true;
  EXPECT_EQ(Buffer, "x=42 -7 3.5 true");
}

TEST(OStreamTest, WritesUnsignedMaximum) {
  std::string Buffer;
  StringOStream OS(Buffer);
  OS << uint64_t(18446744073709551615ULL);
  EXPECT_EQ(Buffer, "18446744073709551615");
}

TEST(OStreamTest, IndentLargeWidth) {
  std::string Buffer;
  StringOStream OS(Buffer);
  OS.indent(70);
  EXPECT_EQ(Buffer, std::string(70, ' '));
}

TEST(StringUtilsTest, FormatString) {
  EXPECT_EQ(formatString("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(formatString("%0.2f", 1.5), "1.50");
  EXPECT_EQ(formatString("empty"), "empty");
}

TEST(StringUtilsTest, StartsWith) {
  EXPECT_TRUE(startsWith("foobar", "foo"));
  EXPECT_FALSE(startsWith("fo", "foo"));
  EXPECT_TRUE(startsWith("anything", ""));
}

TEST(StringUtilsTest, ParseUnsignedAcceptsWholeDecimals) {
  uint64_t V = 7;
  EXPECT_TRUE(parseUnsigned("0", V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseUnsigned("0042", V));
  EXPECT_EQ(V, 42u);
  EXPECT_TRUE(parseUnsigned("18446744073709551615", V));
  EXPECT_EQ(V, UINT64_MAX);
  unsigned U = 0;
  EXPECT_TRUE(parseUnsigned("4294967295", U));
  EXPECT_EQ(U, UINT32_MAX);
}

TEST(StringUtilsTest, ParseUnsignedRejectsAndLeavesOutAlone) {
  uint64_t V = 7;
  for (const char *Bad : {"", "-1", "+1", "-0", " 1", "1 ", "x", "12x",
                          "0x10", "1.5", "18446744073709551616",
                          "99999999999999999999999"}) {
    EXPECT_FALSE(parseUnsigned(Bad, V)) << '"' << Bad << '"';
    EXPECT_EQ(V, 7u) << '"' << Bad << '"';
  }
  unsigned U = 7;
  EXPECT_FALSE(parseUnsigned("4294967296", U));
  EXPECT_EQ(U, 7u);
}

TEST(RNGTest, DeterministicAcrossInstances) {
  RNG A(12345), B(12345);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RNGTest, DifferentSeedsDiffer) {
  RNG A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 4);
}

TEST(RNGTest, NextBelowStaysInRange) {
  RNG R(7);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 1000; ++I) {
    uint64_t V = R.nextBelow(10);
    EXPECT_LT(V, 10u);
    Seen.insert(V);
  }
  // All ten residues should show up in 1000 draws.
  EXPECT_EQ(Seen.size(), 10u);
}

TEST(RNGTest, NextInRangeInclusive) {
  RNG R(9);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 2000; ++I) {
    int64_t V = R.nextInRange(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    SawLo |= V == -3;
    SawHi |= V == 3;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(RNGTest, NextBoolExtremes) {
  RNG R(11);
  for (int I = 0; I < 50; ++I) {
    EXPECT_FALSE(R.nextBool(0.0));
    EXPECT_TRUE(R.nextBool(1.0));
  }
}

// The hash is fixed by specification (content addressing must be stable
// across builds), so pin it to the published FNV-1a test vectors.
TEST(HashTest, Fnv1a64KnownVectors) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(HashTest, ChainingEqualsConcatenation) {
  EXPECT_EQ(fnv1a64("world", fnv1a64("hello ")), fnv1a64("hello world"));
  // The integer overload hashes 8 little-endian bytes.
  std::string Bytes("\x39\x30\x00\x00\x00\x00\x00\x00", 8);
  EXPECT_EQ(fnv1a64(uint64_t(12345), Fnv1a64Offset), fnv1a64(Bytes));
}

TEST(JSONReaderTest, ParsesScalarsWithIntegralIdentity) {
  JSONValue V;
  std::string Error;
  ASSERT_TRUE(parseJSON(" 42 ", V, Error)) << Error;
  ASSERT_TRUE(V.isUint());
  EXPECT_EQ(V.asUint(), 42u);

  ASSERT_TRUE(parseJSON("-7", V, Error));
  EXPECT_EQ(V.kind(), JSONValue::Kind::Int);
  EXPECT_EQ(V.asInt(), -7);

  ASSERT_TRUE(parseJSON("1.5", V, Error));
  EXPECT_EQ(V.kind(), JSONValue::Kind::Double);
  EXPECT_DOUBLE_EQ(V.asDouble(), 1.5);

  ASSERT_TRUE(parseJSON("1e3", V, Error));
  EXPECT_EQ(V.kind(), JSONValue::Kind::Double);

  ASSERT_TRUE(parseJSON("18446744073709551615", V, Error));
  ASSERT_TRUE(V.isUint());
  EXPECT_EQ(V.asUint(), UINT64_MAX);

  ASSERT_TRUE(parseJSON("true", V, Error));
  EXPECT_TRUE(V.asBool());
  ASSERT_TRUE(parseJSON("null", V, Error));
  EXPECT_TRUE(V.isNull());
  ASSERT_TRUE(parseJSON("\"a\\n\\u0041\"", V, Error));
  EXPECT_EQ(V.asString(), "a\nA");
}

TEST(JSONReaderTest, ObjectsPreserveOrderAndFind) {
  JSONValue V;
  std::string Error;
  ASSERT_TRUE(parseJSON("{\"b\":1,\"a\":[2,3],\"c\":{}}", V, Error));
  ASSERT_TRUE(V.isObject());
  ASSERT_EQ(V.size(), 3u);
  EXPECT_EQ(V.members()[0].first, "b");
  EXPECT_EQ(V.members()[1].first, "a");
  const JSONValue *A = V.find("a");
  ASSERT_NE(A, nullptr);
  ASSERT_TRUE(A->isArray());
  ASSERT_EQ(A->size(), 2u);
  EXPECT_EQ(A->at(1).asUint(), 3u);
  EXPECT_EQ(V.find("missing"), nullptr);
}

// Strictness is the point: the parser fronts an adversarial protocol, so
// every extension is an error and every error carries an offset.
TEST(JSONReaderTest, RejectsExtensionsAndAbuse) {
  const char *Bad[] = {
      "",
      "{",
      "{\"a\":1,}",       // trailing comma
      "{a:1}",            // unquoted key
      "{\"a\":1,\"a\":2}", // duplicate key
      "[1 2]",
      "01",               // leading zero
      "+1",
      "1.",               // no digits after the point
      "\"\\ud800\"",      // lone surrogate
      "\"unterminated",
      "\"bad \\q escape\"",
      "nul",
      "// comment\n1",
      "1 2",              // trailing garbage
      "\x01",
  };
  for (const char *Text : Bad) {
    JSONValue V;
    std::string Error;
    EXPECT_FALSE(parseJSON(Text, V, Error)) << Text;
    EXPECT_NE(Error.find("offset"), std::string::npos) << Text;
  }
}

TEST(JSONReaderTest, DepthLimitStopsRecursion) {
  std::string Deep(64, '[');
  Deep += std::string(64, ']');
  JSONValue V;
  std::string Error;
  EXPECT_TRUE(parseJSON(Deep, V, Error)) << Error;
  EXPECT_FALSE(parseJSON("[" + Deep + "]", V, Error));
  EXPECT_FALSE(parseJSON(std::string(5000, '['), V, Error));
}

// The stats-epoch mechanism the serve daemon and srp-run's --stats
// reporting rest on: a capture sees only what its thread recorded while
// it was alive, and totals still add up after it merges out.
TEST(StatsCaptureTest, EpochIsolatesAndMergesOut) {
  StatsRegistry &Global = StatsRegistry::get();
  uint64_t Before = Global.value("test.capture.counter");
  StatsRegistry::current().add("test.capture.counter", 1); // outside
  {
    ScopedStatsCapture Outer;
    StatsRegistry::current().add("test.capture.counter", 10);
    {
      ScopedStatsCapture Inner;
      StatsRegistry::current().add("test.capture.counter", 100);
      EXPECT_EQ(Inner.captured().value("test.capture.counter"), 100u);
    }
    // Inner merged into Outer, not into the global registry.
    EXPECT_EQ(Outer.captured().value("test.capture.counter"), 110u);
    EXPECT_EQ(Global.value("test.capture.counter"), Before + 1);
  }
  // Everything reaches the global registry once the last capture dies.
  EXPECT_EQ(Global.value("test.capture.counter"), Before + 111);
  // With no capture alive, current() is the global registry itself.
  EXPECT_EQ(&StatsRegistry::current(), &Global);
}

TEST(StatsCaptureTest, ThreadsHaveIndependentEpochs) {
  ScopedStatsCapture Capture;
  std::thread([] {
    // This thread has no capture: it records globally.
    StatsRegistry::current().add("test.capture.other-thread", 5);
  }).join();
  EXPECT_EQ(Capture.captured().value("test.capture.other-thread"), 0u);
  EXPECT_GE(StatsRegistry::get().value("test.capture.other-thread"), 5u);
}

// A scope shorter than a microsecond must still count: the promotion
// stages open one scope per expression, and rounding each scope to whole
// microseconds would make those stage totals read 0.
TEST(TimerTest, ShortScopesAddUp) {
  uint64_t Nanos = 0;
  for (int I = 0; I < 10000; ++I) {
    ScopedTimer T(Nanos);
  }
  EXPECT_GT(Nanos / 1000, 0u);
}

TEST(RNGTest, NextDoubleUnitInterval) {
  RNG R(13);
  double Sum = 0;
  for (int I = 0; I < 10000; ++I) {
    double V = R.nextDouble();
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1.0);
    Sum += V;
  }
  EXPECT_NEAR(Sum / 10000.0, 0.5, 0.02);
}

} // namespace
