#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/assert.hpp"
#include "support/bits.hpp"
#include "support/fingerprint.hpp"
#include "support/fsutil.hpp"
#include "support/parse.hpp"
#include "support/random.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "test_helpers.hpp"

namespace distapx {
namespace {

TEST(Ensure, ThrowsWithMessage) {
  EXPECT_THROW(DISTAPX_ENSURE(1 == 2), EnsureError);
  try {
    DISTAPX_ENSURE_MSG(false, "context " << 42);
    FAIL();
  } catch (const EnsureError& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(Rng, SplitStreamsAreIndependentAndStable) {
  const Rng root(99);
  Rng s1 = root.split(7);
  Rng s1_again = root.split(7);
  Rng s2 = root.split(8);
  EXPECT_EQ(s1.next(), s1_again.next());
  EXPECT_NE(s1.next(), s2.next());
}

TEST(Rng, NextBelowInRange) {
  Rng rng(5);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(17);
  std::vector<int> counts(8, 0);
  constexpr int kTrials = 16000;
  for (int i = 0; i < kTrials; ++i) ++counts[rng.next_below(8)];
  for (int c : counts) {
    EXPECT_GT(c, kTrials / 8 * 0.85);
    EXPECT_LT(c, kTrials / 8 * 1.15);
  }
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng(6);
  for (int i = 0; i < 500; ++i) {
    const auto x = rng.next_in(-5, 5);
    EXPECT_GE(x, -5);
    EXPECT_LE(x, 5);
  }
  EXPECT_EQ(rng.next_in(3, 3), 3);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(8);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(9);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(heads / 10000.0, 0.3, 0.03);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(10);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto sorted = v;
  rng.shuffle(v);
  auto shuffled_sorted = v;
  std::sort(shuffled_sorted.begin(), shuffled_sorted.end());
  EXPECT_EQ(shuffled_sorted, sorted);
}

TEST(Rng, SampleWithoutReplacement) {
  Rng rng(11);
  const auto sample = rng.sample_without_replacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<std::uint32_t> distinct(sample.begin(), sample.end());
  EXPECT_EQ(distinct.size(), 20u);
  for (auto x : sample) EXPECT_LT(x, 50u);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), EnsureError);
}

TEST(Bits, BitsForValue) {
  EXPECT_EQ(bits_for_value(0), 1);
  EXPECT_EQ(bits_for_value(1), 1);
  EXPECT_EQ(bits_for_value(2), 2);
  EXPECT_EQ(bits_for_value(255), 8);
  EXPECT_EQ(bits_for_value(256), 9);
}

TEST(Bits, BitsForCount) {
  EXPECT_EQ(bits_for_count(1), 1);
  EXPECT_EQ(bits_for_count(2), 1);
  EXPECT_EQ(bits_for_count(3), 2);
  EXPECT_EQ(bits_for_count(1024), 10);
  EXPECT_EQ(bits_for_count(1025), 11);
}

TEST(Bits, Logs) {
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(1024), 10);
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(1023), 9);
  EXPECT_EQ(log_star(1.0), 0);
  EXPECT_EQ(log_star(2.0), 1);
  EXPECT_EQ(log_star(4.0), 2);
  EXPECT_EQ(log_star(16.0), 3);
  EXPECT_EQ(log_star(65536.0), 4);
}

TEST(Parse, UintStrictAcceptsWholeTokensInRange) {
  EXPECT_EQ(parse_uint_strict("0", 100), 0u);
  EXPECT_EQ(parse_uint_strict("42", 100), 42u);
  EXPECT_EQ(parse_uint_strict("100", 100), 100u);
  EXPECT_EQ(parse_uint_strict("18446744073709551615", UINT64_MAX),
            UINT64_MAX);
}

TEST(Parse, UintStrictRejectsPartialAndOutOfRange) {
  for (const char* bad : {"", "-1", "+1", "12x", "x12", "1 ", " 1", "1.5",
                          "0x10", "18446744073709551616"}) {
    EXPECT_FALSE(parse_uint_strict(bad, UINT64_MAX).has_value()) << bad;
  }
  EXPECT_FALSE(parse_uint_strict("101", 100).has_value());
}

TEST(Parse, DoubleStrictAcceptsPlainDecimals) {
  EXPECT_DOUBLE_EQ(*parse_double_strict("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(*parse_double_strict("-2"), -2.0);
  EXPECT_DOUBLE_EQ(*parse_double_strict("+0.25"), 0.25);
  EXPECT_DOUBLE_EQ(*parse_double_strict(".5"), 0.5);
  EXPECT_DOUBLE_EQ(*parse_double_strict("2."), 2.0);
  EXPECT_DOUBLE_EQ(*parse_double_strict("1e3"), 1000.0);
  EXPECT_DOUBLE_EQ(*parse_double_strict("2.5E-2"), 0.025);
  EXPECT_DOUBLE_EQ(*parse_double_strict("0"), 0.0);
}

TEST(Parse, DoubleStrictRejectsNonFiniteHexAndWhitespace) {
  // The "whole number or error" contract: everything strtod sneaks past a
  // full-consumption check must still be rejected — inf/nan (callers feed
  // the value into arithmetic assuming finiteness), hex floats, overflow
  // to infinity, leading whitespace (strtod skips it silently).
  for (const char* bad :
       {"", "inf", "+inf", "-inf", "infinity", "INF", "nan", "NaN",
        "nan(0x1)", "0x10", "0x1p3", "0X1.8P1", "1e999", "-1e999", " 1.5",
        "1.5 ", "\t2", "1.5x", "x1.5", "--1", "1e", "e5", ".", "+", "1.2.3",
        "1,5"}) {
    EXPECT_FALSE(parse_double_strict(bad).has_value()) << "\"" << bad << "\"";
  }
}

TEST(Parse, SizeBytesScalesBinarySuffixes) {
  EXPECT_EQ(*parse_size_bytes("0"), 0u);
  EXPECT_EQ(*parse_size_bytes("4096"), 4096u);
  EXPECT_EQ(*parse_size_bytes("2k"), 2048u);
  EXPECT_EQ(*parse_size_bytes("2K"), 2048u);
  EXPECT_EQ(*parse_size_bytes("3m"), 3u << 20);
  EXPECT_EQ(*parse_size_bytes("1G"), 1u << 30);
  for (const char* bad :
       {"", "k", "2kb", "2.5k", "-2k", "2 k", "0x2k", "1t",
        "18446744073709551615k"}) {
    EXPECT_FALSE(parse_size_bytes(bad).has_value()) << bad;
  }
}

TEST(Fingerprint, HexRoundTripsThroughFromHex) {
  Fingerprint fp;
  fp.hi = 0x0123456789abcdefULL;
  fp.lo = 0xfedcba9876543210ULL;
  const auto back = Fingerprint::from_hex(fp.hex());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, fp);

  EXPECT_TRUE(Fingerprint::from_hex("0123456789ABCDEFfedcba9876543210")
                  .has_value());  // either case
  EXPECT_FALSE(Fingerprint::from_hex("").has_value());
  EXPECT_FALSE(Fingerprint::from_hex("0123").has_value());  // short
  EXPECT_FALSE(
      Fingerprint::from_hex("g123456789abcdeffedcba9876543210").has_value());
  EXPECT_FALSE(Fingerprint::from_hex(fp.hex() + "0").has_value());  // long
}

TEST(Stats, SummaryBasics) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.stddev(), 1.2909944, 1e-6);
}

TEST(Stats, SummaryEmpty) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Stats, Percentile) {
  std::vector<double> xs{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.25), 2.0);
}

TEST(Stats, LinearFitRecoversLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 20; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 + 2.0 * i);
  }
  const auto fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(Table, PrintAndCsv) {
  Table t({"a", "b"});
  t.add_row({"1", "hello"});
  t.add_row({Table::fmt(2.5, 1), "x,y"});
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("hello"), std::string::npos);
  std::ostringstream csv;
  t.write_csv(csv);
  EXPECT_NE(csv.str().find("\"x,y\""), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), EnsureError);
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fmt(std::uint64_t{42}), "42");
  EXPECT_EQ(Table::fmt(std::int64_t{-7}), "-7");
}

TEST(Table, WriteJson) {
  Table t({"name", "count", "ratio"});
  t.add_row({"alpha", "12", "0.50"});
  t.add_row({"007", "-3", "say \"hi\"\n"});  // leading zero is NOT a number
  std::ostringstream os;
  t.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("{\"name\": \"alpha\", \"count\": 12, \"ratio\": 0.50}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\": \"007\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\": -3"), std::string::npos) << json;
  EXPECT_NE(json.find("say \\\"hi\\\"\\n"), std::string::npos) << json;
}

// ---- durable publication --------------------------------------------------

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

/// Names in `dir` other than `keep` (temp droppings, stray files).
std::vector<std::string> others_in(const fs::path& dir,
                                   const std::string& keep) {
  std::vector<std::string> out;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().filename() != keep) out.push_back(e.path().filename());
  }
  return out;
}

/// Restores the process-wide durability level on scope exit.
struct DurabilityGuard {
  fsutil::Durability saved = fsutil::durability();
  ~DurabilityGuard() { fsutil::set_durability(saved); }
};

TEST(WriteFileDurable, ConcurrentPublishersOfOnePathAllSucceed) {
  const test::ScopedTempDir dir("distapx-publish-race");
  fs::create_directories(dir.path);
  const fs::path dest = dir.path / "entry.rr";
  const DurabilityGuard guard;
  fsutil::set_durability(fsutil::Durability::kNone);  // the race, not disks

  constexpr int kThreads = 4;
  constexpr int kRounds = 100;
  std::vector<std::string> payloads;
  for (int t = 0; t < kThreads; ++t) {
    payloads.emplace_back(4096, static_cast<char>('a' + t));
  }
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        if (!fsutil::write_file_durable(dest, payloads[t])) ++failures[t];
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
  // Exactly one writer's bytes, never an interleaving or a truncation.
  const std::string content = slurp(dest);
  EXPECT_NE(std::find(payloads.begin(), payloads.end(), content),
            payloads.end())
      << "published " << content.size() << " bytes of a mix";
  EXPECT_TRUE(others_in(dir.path, "entry.rr").empty());
}

TEST(WriteFileDurable, UnwritableDestinationFailsAndLeavesNothing) {
  const test::ScopedTempDir dir("distapx-publish-fail");
  fs::create_directories(dir.path / "occupied");

  // The parent directory does not exist: the temp cannot be created.
  std::string error;
  EXPECT_FALSE(fsutil::write_file_durable(dir.path / "missing" / "f", "x",
                                          &error));
  EXPECT_NE(error.find("missing"), std::string::npos) << error;

  // A directory squats on the name: the temp is written, the rename
  // fails, and the temp is removed again.
  error.clear();
  EXPECT_FALSE(
      fsutil::write_file_durable(dir.path / "occupied", "payload", &error));
  EXPECT_NE(error.find("cannot publish"), std::string::npos) << error;
  EXPECT_TRUE(fs::is_directory(dir.path / "occupied"));
  EXPECT_TRUE(fs::is_empty(dir.path / "occupied"));
  EXPECT_TRUE(others_in(dir.path, "occupied").empty());
}

TEST(WriteFileDurable, FailedDirectorySyncReportsFalseWithContentInPlace) {
  const test::ScopedTempDir dir("distapx-publish-dirsync");
  fs::create_directories(dir.path);
  const fs::path dest = dir.path / "out.txt";
  ASSERT_TRUE(fsutil::write_file_durable(dest, "old"));

  fsutil::set_fail_dir_sync_for_testing(true);
  std::string error;
  const bool ok = fsutil::write_file_durable(dest, "new", &error);
  fsutil::set_fail_dir_sync_for_testing(false);

  // The rename happened, so the new bytes are in place — but the call
  // reports the publish as not durable, and no temp is left behind.
  EXPECT_FALSE(ok);
  EXPECT_NE(error.find("cannot sync directory"), std::string::npos) << error;
  EXPECT_EQ(slurp(dest), "new");
  EXPECT_TRUE(others_in(dir.path, "out.txt").empty());
}

}  // namespace
}  // namespace distapx
