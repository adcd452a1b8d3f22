#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <set>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "util/csv_writer.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace rfed {
namespace {

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(3);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-2.5, 7.5);
    ASSERT_GE(u, -2.5);
    ASSERT_LT(u, 7.5);
  }
}

TEST(RngTest, UniformIntCoversSupport) {
  Rng rng(5);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.UniformInt(7);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(6);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, NormalWithParamsScales) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Normal(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(8);
  const std::vector<int> sample = rng.SampleWithoutReplacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (int v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 50);
  }
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(9);
  const std::vector<int> sample = rng.SampleWithoutReplacement(10, 10);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(10);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(11);
  Rng child = a.Fork();
  // The child must not replay the parent's stream.
  Rng reference(11);
  reference.NextUint64();  // advance past the fork draw
  EXPECT_NE(child.NextUint64(), reference.NextUint64());
}

TEST(StringUtilTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringUtilTest, JoinInts) {
  EXPECT_EQ(JoinInts({1, 2, 3}, ","), "1,2,3");
  EXPECT_EQ(JoinInts({}, ","), "");
  EXPECT_EQ(JoinInts({5}, "x"), "5");
}

TEST(StringUtilTest, FormatFixed) {
  EXPECT_EQ(FormatFixed(3.14159, 2), "3.14");
  EXPECT_EQ(FormatFixed(2.0, 0), "2");
}

TEST(CsvWriterTest, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/csv_test.csv";
  {
    CsvWriter writer(path, {"a", "b"});
    writer.WriteRow({"1", "2"});
    writer.WriteRow({"3", "4"});
  }
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), "a,b\n1,2\n3,4\n");
  std::remove(path.c_str());
}

TEST(ThreadPoolTest, SequentialModeRunsAll) {
  ThreadPool pool(1);
  std::vector<int> hits(100, 0);
  pool.ParallelFor(100, [&hits](int i) { hits[static_cast<size_t>(i)]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelModeRunsAll) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.ParallelFor(257, [&count](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 257);
}

TEST(ThreadPoolTest, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](int) { FAIL(); });
}

// ParallelFor is not reentrant: a task that calls ParallelFor on its own
// pool would deadlock waiting for itself, so the pool aborts with a
// message naming the offending task instead.
TEST(ThreadPoolDeathTest, ReentrantParallelForAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ThreadPool pool(2);
  EXPECT_DEATH(
      pool.ParallelFor(4,
                       [&pool](int i) {
                         if (i == 1) pool.ParallelFor(2, [](int) {});
                       }),
      "not reentrant.*task #1");
}

TEST(ThreadPoolDeathTest, SequentialReentrancyAlsoAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The contract is uniform across modes: the in-caller sequential path
  // rejects nesting too, so code does not "work on 1 thread, die on 4".
  ThreadPool pool(1);
  EXPECT_DEATH(
      pool.ParallelFor(3,
                       [&pool](int i) {
                         if (i == 2) pool.ParallelFor(2, [](int) {});
                       }),
      "not reentrant.*task #2");
}

TEST(ThreadPoolTest, DistinctPoolsMayNest) {
  // Only same-pool nesting is banned; delegating to a different pool is
  // fine. The outer pool is sequential so the inner pool sees one batch
  // at a time (concurrent batches on one pool are also rejected).
  ThreadPool outer(1);
  ThreadPool inner(2);
  std::atomic<int> count{0};
  outer.ParallelFor(4, [&inner, &count](int) {
    inner.ParallelFor(3, [&count](int) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 12);
}

TEST(StopwatchTest, ElapsedIsMonotone) {
  Stopwatch watch;
  const double first = watch.ElapsedSeconds();
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  const double second = watch.ElapsedSeconds();
  EXPECT_GE(second, first);
  EXPECT_GE(first, 0.0);
}

FlagParser MakeFlags(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"util_test"};
  argv.insert(argv.end(), args.begin(), args.end());
  return FlagParser(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagParserTest, ValidatedAccessorsAcceptGoodValues) {
  const FlagParser flags =
      MakeFlags({"--listen", "0.0.0.0:7710", "--workers", "4"});
  const HostPort listen = flags.GetHostPort("listen", "127.0.0.1:0");
  EXPECT_EQ(listen.host, "0.0.0.0");
  EXPECT_EQ(listen.port, 7710);
  EXPECT_EQ(flags.GetIntInRange("workers", 1, 1, 1024), 4);
  // Defaults apply when the flag is absent, and are validated too.
  const HostPort fallback = flags.GetHostPort("connect", "localhost:9");
  EXPECT_EQ(fallback.host, "localhost");
  EXPECT_EQ(fallback.port, 9);
  EXPECT_EQ(flags.GetIntInRange("worker_id", 0, 0, 3), 0);
}

TEST(FlagParserDeathTest, GetHostPortAbortsOnMalformedEndpoint) {
  // A malformed endpoint is a deployment configuration error: the
  // accessor aborts with the offending value rather than limping past.
  EXPECT_DEATH(MakeFlags({"--listen", "7710"}).GetHostPort("listen",
                                                           "127.0.0.1:0"),
               "host:port");
  EXPECT_DEATH(MakeFlags({"--listen", ":7710"}).GetHostPort("listen",
                                                            "127.0.0.1:0"),
               "host:port");
  EXPECT_DEATH(MakeFlags({"--connect", "host:99999"})
                   .GetHostPort("connect", "127.0.0.1:0"),
               "host:port");
  EXPECT_DEATH(MakeFlags({"--connect", "host:12ab"})
                   .GetHostPort("connect", "127.0.0.1:0"),
               "host:port");
}

TEST(FlagParserDeathTest, GetIntInRangeAbortsOutsideRange) {
  EXPECT_DEATH(MakeFlags({"--workers", "0"}).GetIntInRange("workers", 1, 1,
                                                           1024),
               "must be in");
  EXPECT_DEATH(MakeFlags({"--workers", "1025"}).GetIntInRange("workers", 1, 1,
                                                              1024),
               "must be in");
  EXPECT_DEATH(MakeFlags({"--worker_id", "4"}).GetIntInRange("worker_id", 0,
                                                             0, 3),
               "must be in");
}

TEST(FlagParserTest, TypedAccessorsAcceptWellFormedValues) {
  const FlagParser flags =
      MakeFlags({"--a", "-3", "--b", "+4", "--lr", "1e-3", "--r", ".5",
                 "--t", "yes", "--f", "no", "--one", "1", "--zero", "0",
                 "--bare"});
  EXPECT_EQ(flags.GetInt("a", 0), -3);
  EXPECT_EQ(flags.GetInt("b", 0), 4);
  EXPECT_DOUBLE_EQ(flags.GetDouble("lr", 0.0), 1e-3);
  EXPECT_DOUBLE_EQ(flags.GetDouble("r", 0.0), 0.5);
  EXPECT_TRUE(flags.GetBool("t", false));
  EXPECT_FALSE(flags.GetBool("f", true));
  EXPECT_TRUE(flags.GetBool("one", false));
  EXPECT_FALSE(flags.GetBool("zero", true));
  EXPECT_TRUE(flags.GetBool("bare", false));
}

TEST(FlagParserTest, RecordsReadsWithResolvedValues) {
  const FlagParser flags = MakeFlags({"--clients", "8", "--typo", "1"});
  EXPECT_EQ(flags.GetInt("clients", 10), 8);
  EXPECT_DOUBLE_EQ(flags.GetDouble("lr", 0.25), 0.25);
  EXPECT_FALSE(flags.GetBool("validate", false));
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"clients", "8"}, {"lr", "0.25"}, {"validate", "false"}};
  EXPECT_EQ(flags.reads(), expected);
  EXPECT_EQ(flags.UnreadKeys(), std::vector<std::string>{"typo"});
}

TEST(FlagParserDeathTest, GetIntAbortsOnNonInteger) {
  EXPECT_DEATH(MakeFlags({"--clients", "abc"}).GetInt("clients", 10),
               "--clients expects an integer, got 'abc'");
  EXPECT_DEATH(MakeFlags({"--clients", "2x"}).GetInt("clients", 10),
               "--clients expects an integer, got '2x'");
  EXPECT_DEATH(MakeFlags({"--clients", "2.5"}).GetInt("clients", 10),
               "--clients expects an integer");
  EXPECT_DEATH(MakeFlags({"--clients="}).GetInt("clients", 10),
               "--clients expects an integer");
  EXPECT_DEATH(MakeFlags({"--seed", "99999999999"}).GetInt("seed", 1),
               "--seed expects an integer");
}

TEST(FlagParserDeathTest, GetDoubleAbortsOnNonNumber) {
  EXPECT_DEATH(MakeFlags({"--lr", "fast"}).GetDouble("lr", 0.08),
               "--lr expects a number, got 'fast'");
  EXPECT_DEATH(MakeFlags({"--lr", "0.1x"}).GetDouble("lr", 0.08),
               "--lr expects a number, got '0.1x'");
  EXPECT_DEATH(MakeFlags({"--lr="}).GetDouble("lr", 0.08),
               "--lr expects a number");
}

TEST(FlagParserDeathTest, GetBoolAbortsOnUnknownSpelling) {
  EXPECT_DEATH(MakeFlags({"--validate", "flase"}).GetBool("validate", true),
               "--validate expects .*, got 'flase'");
  EXPECT_DEATH(MakeFlags({"--validate", "TRUE"}).GetBool("validate", true),
               "--validate expects");
}

}  // namespace
}  // namespace rfed
