// Tests for the util substrate: RNG, table formatter, CLI parser, thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/fuzz.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/text_file.hpp"
#include "util/thread_pool.hpp"

namespace treesvd {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

// Every seeded experiment, fault plan, fuzz plan and serve-chaos decision
// draws from mix64 (directly or through Rng's seeding), so these values
// must never move.
TEST(Rng, SplitMix64MatchesReference) {
  EXPECT_EQ(analysis::mix64(0), 0xe220a8397b1dcdafULL);  // SplitMix64(0), first output
  EXPECT_EQ(analysis::unit_interval(0), 0.0);
  EXPECT_EQ(analysis::unit_interval(~std::uint64_t{0}), 1.0 - 0x1.0p-53);
}

TEST(Rng, FirstOutputsArePinned) {
  Rng a(1);
  EXPECT_EQ(a(), 0xcfc5d07f6f03c29bULL);
  EXPECT_EQ(a(), 0xbf424132963fe08dULL);
  EXPECT_EQ(a(), 0x19a37d5757aaf520ULL);
  Rng b(2026);
  EXPECT_EQ(b(), 0x6d4ff0619c339b97ULL);
  EXPECT_EQ(b(), 0x9d34f4497825b7a7ULL);
  EXPECT_EQ(b(), 0xb8d25ad967770acdULL);
  EXPECT_EQ(Rng(1).uniform(), 0x1.9f8ba0fede078p-1);
  EXPECT_EQ(Rng(2026).uniform(), 0x1.b53fc18670ce6p-2);
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b()) ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng r(99);
  const int n = 200000;
  double sum = 0.0;
  double sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, BelowIsBoundedAndCoversRange) {
  Rng r(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BelowZeroAndOne) {
  Rng r(5);
  EXPECT_EQ(r.below(0), 0u);
  EXPECT_EQ(r.below(1), 0u);
}

TEST(Json, EscapeCoversQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(json_escape("plain text, UTF-8 \xc3\xa9"), "plain text, UTF-8 \xc3\xa9");
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line\nnext"), "line\\nnext");
  EXPECT_EQ(json_escape("cr\r"), "cr\\r");
  EXPECT_EQ(json_escape("tab\t"), "tab\\t");
  EXPECT_EQ(json_escape("soh\x01"), "soh\\u0001");
  EXPECT_EQ(json_escape(std::string("nul\0us\x1f", 7)), "nul\\u0000us\\u001f");
  EXPECT_EQ(json_escape(""), "");
}

TEST(Table, FormatsAlignedColumns) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(1.5, 1);
  t.row().cell("b").cell(std::size_t{42});
  const std::string s = t.str();
  EXPECT_NE(s.find("| alpha | 1.5   |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 42    |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, CellBeforeRowThrows) {
  Table t({"x"});
  EXPECT_THROW(t.cell("v"), std::invalid_argument);
}

TEST(Cli, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--n=64", "--verbose", "--name=fat-tree", "--x=2.5"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("n", 0), 64);
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_EQ(cli.get("name", ""), "fat-tree");
  EXPECT_DOUBLE_EQ(cli.get_double("x", 0.0), 2.5);
  EXPECT_EQ(cli.get_int("missing", -1), -1);
  EXPECT_EQ(cli.program(), "prog");
}

TEST(Cli, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_THROW(Cli(2, argv), std::invalid_argument);
}

/// Expects both numeric getters to throw std::invalid_argument naming --x
/// when the command line is `--x=<value>`.
void expect_numeric_flag_rejected(const char* arg) {
  const char* argv[] = {"prog", arg};
  const Cli cli(2, argv);
  for (const bool integer : {true, false}) {
    try {
      if (integer) {
        (void)cli.get_int("x", 0);
      } else {
        (void)cli.get_double("x", 0.0);
      }
      ADD_FAILURE() << arg << " accepted by " << (integer ? "get_int" : "get_double");
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--x"), std::string::npos) << e.what();
    }
  }
}

TEST(Cli, RejectsEmptyNumericValue) { expect_numeric_flag_rejected("--x="); }

TEST(Cli, RejectsNonNumericValue) { expect_numeric_flag_rejected("--x=abc"); }

TEST(Cli, RejectsTrailingCharacters) {
  expect_numeric_flag_rejected("--x=8x");
  expect_numeric_flag_rejected("--x=1e-1q");
}

TEST(Cli, RejectsOutOfRangeNumbers) {
  expect_numeric_flag_rejected("--x=1e999");
  const char* argv[] = {"prog", "--n=99999999999999999999", "--m=-99999999999999999999"};
  const Cli cli(3, argv);
  EXPECT_THROW((void)cli.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_int("m", 0), std::invalid_argument);
}

TEST(Cli, GetCountRejectsNegative) {
  const char* argv[] = {"prog", "--rows=12", "--zero=0", "--n=-1", "--x=abc"};
  const Cli cli(5, argv);
  EXPECT_EQ(cli.get_count("rows", 7), 12u);
  EXPECT_EQ(cli.get_count("zero", 7), 0u);
  EXPECT_EQ(cli.get_count("missing", 7), 7u);
  // A negative count must not wrap to 2^64 - 1: it names the flag instead.
  for (const char* key : {"n", "x"}) {
    try {
      (void)cli.get_count(key, 0);
      ADD_FAILURE() << "--" << key << " accepted by get_count";
    } catch (const CliError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + key), std::string::npos)
          << e.what();
    }
  }
}

TEST(Cli, ListReadersSplitOnCommas) {
  const char* argv[] = {"prog", "--names=fat-tree,new-ring", "--sizes=8,-16,32"};
  const Cli cli(3, argv);
  EXPECT_EQ(cli.get_list("names", {}), (std::vector<std::string>{"fat-tree", "new-ring"}));
  EXPECT_EQ(cli.get_int_list("sizes", {}), (std::vector<long long>{8, -16, 32}));
  EXPECT_EQ(cli.get_list("missing", {"round-robin"}), std::vector<std::string>{"round-robin"});
  EXPECT_EQ(cli.get_int_list("missing", {42, 43}), (std::vector<long long>{42, 43}));
}

/// Expects get_int_list, and get_list too when `names_too`, to throw a
/// CliError naming --x when the command line is `--x=<value>`.
void expect_list_flag_rejected(const char* arg, bool names_too) {
  const char* argv[] = {"prog", arg};
  const Cli cli(2, argv);
  for (const bool ints : {true, false}) {
    if (!ints && !names_too) continue;
    try {
      if (ints) {
        (void)cli.get_int_list("x", {});
      } else {
        (void)cli.get_list("x", {});
      }
      ADD_FAILURE() << arg << " accepted by " << (ints ? "get_int_list" : "get_list");
    } catch (const CliError& e) {
      EXPECT_NE(std::string(e.what()).find("--x"), std::string::npos) << e.what();
    }
  }
}

TEST(Cli, ListReadersRejectEmptyItems) {
  for (const char* arg : {"--x=", "--x=,8", "--x=8,,16", "--x=8,"})
    expect_list_flag_rejected(arg, true);
}

TEST(Cli, IntListRejectsNonNumericItems) {
  expect_list_flag_rejected("--x=8,x", false);
  expect_list_flag_rejected("--x=abc", false);
}

TEST(Cli, IntListRejectsTrailingCharacters) {
  expect_list_flag_rejected("--x=4x2", false);
  expect_list_flag_rejected("--x=8,16 ", false);
}

TEST(Cli, IntListRejectsOutOfRangeItems) {
  expect_list_flag_rejected("--x=8,99999999999999999999", false);
  expect_list_flag_rejected("--x=-99999999999999999999", false);
}

TEST(Cli, RequireKnownRejectsUnlistedFlags) {
  const char* argv[] = {"prog", "--seeds=1,2", "--n=8"};
  const Cli cli(3, argv);
  EXPECT_NO_THROW(cli.require_known({"seeds", "n", "json"}));
  try {
    cli.require_known({"seed", "n"});
    FAIL() << "an unlisted flag was accepted";
  } catch (const CliError& e) {
    EXPECT_NE(std::string(e.what()).find("--seeds"), std::string::npos) << e.what();
  }
}

TEST(TextFile, ReplacesTheFileWithTheText) {
  const std::string path = ::testing::TempDir() + "treesvd_text_file_test.json";
  ASSERT_TRUE(write_text_file(path, "first, longer text\n"));
  ASSERT_TRUE(write_text_file(path, "{}\n"));
  std::string got;
  {
    std::ifstream in(path);
    got.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  std::remove(path.c_str());
  EXPECT_EQ(got, "{}\n");
}

TEST(TextFile, ReportsWritesThatFail) {
  // A missing directory fails at the open; /dev/full (every write ENOSPC)
  // accepts the open and the buffered write, and fails only at the flush.
  const std::string missing = ::testing::TempDir() + "treesvd-no-such-dir/report.json";
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(write_text_file(missing, "{}\n"));
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("cannot write " + missing),
            std::string::npos);
  if (!std::ifstream("/dev/full")) GTEST_SKIP() << "no /dev/full on this system";
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(write_text_file("/dev/full", "{}\n"));
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("cannot write /dev/full"),
            std::string::npos);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  std::atomic<long> total{0};
  for (int round = 0; round < 20; ++round)
    pool.parallel_for(100, [&](std::size_t i) { total.fetch_add(static_cast<long>(i)); });
  EXPECT_EQ(total.load(), 20L * (99 * 100 / 2));
}

TEST(ThreadPool, ZeroAndSingleCounts) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.parallel_for(1, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, SingleThreadFallback) {
  ThreadPool pool(1);
  std::atomic<int> calls{0};
  pool.parallel_for(57, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 57);
}

TEST(ThreadPool, TaskExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  EXPECT_THROW(pool.parallel_for(200,
                                 [&](std::size_t i) {
                                   calls.fetch_add(1);
                                   if (i == 57) throw std::runtime_error("task 57 failed");
                                 }),
               std::runtime_error);
  // Iterations are not cancelled: every task still ran despite the throw.
  EXPECT_EQ(calls.load(), 200);
}

TEST(ThreadPool, ExceptionInSerialFallbackPropagates) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(3,
                                 [](std::size_t i) {
                                   if (i == 1) throw std::logic_error("boom");
                                 }),
               std::logic_error);
}

TEST(ThreadPool, UsableAfterTaskException) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(50, [](std::size_t) { throw std::runtime_error("all fail"); }),
               std::runtime_error);
  std::atomic<int> calls{0};
  pool.parallel_for(50, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 50);
}

TEST(ThreadPool, GrainRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (const std::size_t grain : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                                  std::size_t{64}, std::size_t{1000}}) {
    std::vector<std::atomic<int>> hits(257);
    pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, grain);
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << "grain=" << grain;
  }
}

TEST(ThreadPool, TinyCountRunsOnCallingThread) {
  // Auto grain: counts at or below kAutoInlineBelow never wake the workers.
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  for (std::size_t count = 1; count <= ThreadPool::kAutoInlineBelow; ++count) {
    std::atomic<int> off_thread{0};
    pool.parallel_for(count, [&](std::size_t) {
      if (std::this_thread::get_id() != caller) off_thread.fetch_add(1);
    });
    EXPECT_EQ(off_thread.load(), 0) << "count=" << count;
  }
}

TEST(ThreadPool, CountWithinGrainRunsOnCallingThread) {
  // An explicit grain covering the whole range is a request to stay inline.
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  std::atomic<int> calls{0};
  pool.parallel_for(100,
                    [&](std::size_t) {
                      calls.fetch_add(1);
                      if (std::this_thread::get_id() != caller) off_thread.fetch_add(1);
                    },
                    100);
  EXPECT_EQ(calls.load(), 100);
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(ThreadPool, ExceptionPropagatesWithExplicitGrain) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  EXPECT_THROW(pool.parallel_for(200,
                                 [&](std::size_t i) {
                                   calls.fetch_add(1);
                                   if (i == 19) throw std::runtime_error("chunk member failed");
                                 },
                                 8),
               std::runtime_error);
  EXPECT_EQ(calls.load(), 200);
}

#if defined(TREESVD_ANALYSIS) && TREESVD_ANALYSIS

// Adversarial-schedule re-runs: the pool's contracts (exactly-once, exception
// propagation, inline fast path) must survive the seeded schedule fuzzer
// permuting chunk claim order and injecting yields. Fixed seeds keep failures
// reproducible.

TEST(ThreadPoolFuzzed, GrainBoundariesSurvivePermutedSchedules) {
  ThreadPool pool(4);
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{77}, std::uint64_t{2026}}) {
    analysis::FuzzPlan plan;
    plan.seed = seed;
    analysis::ScopedFuzzer fuzz(plan);
    // Grains straddling the count (257) exercise the short final chunk under
    // every permutation of claim order.
    for (const std::size_t grain : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                                    std::size_t{64}, std::size_t{255}}) {
      std::vector<std::atomic<int>> hits(257);
      pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, grain);
      for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << "seed=" << seed << " grain=" << grain;
    }
    EXPECT_GT(fuzz->decisions(), 0u) << "fuzzer saw no pool decision points";
  }
}

TEST(ThreadPoolFuzzed, SingleChunkBatchSurvivesFuzzer) {
  // count == grain stays on the calling thread; the fuzzer must not break
  // (or accidentally parallelise) the inline path.
  ThreadPool pool(4);
  analysis::FuzzPlan plan;
  plan.seed = 9001;
  analysis::ScopedFuzzer fuzz(plan);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  std::atomic<int> calls{0};
  pool.parallel_for(64,
                    [&](std::size_t) {
                      calls.fetch_add(1);
                      if (std::this_thread::get_id() != caller) off_thread.fetch_add(1);
                    },
                    64);
  EXPECT_EQ(calls.load(), 64);
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(ThreadPoolFuzzed, ExceptionContractSurvivesPermutedSchedules) {
  ThreadPool pool(4);
  for (const std::uint64_t seed : {std::uint64_t{3}, std::uint64_t{1234}}) {
    analysis::FuzzPlan plan;
    plan.seed = seed;
    analysis::ScopedFuzzer fuzz(plan);
    std::atomic<int> calls{0};
    EXPECT_THROW(pool.parallel_for(200,
                                   [&](std::size_t i) {
                                     calls.fetch_add(1);
                                     if (i == 19) throw std::runtime_error("fuzzed chunk failed");
                                   },
                                   8),
                 std::runtime_error);
    // No iteration is cancelled, whatever order the chunks were claimed in.
    EXPECT_EQ(calls.load(), 200) << "seed=" << seed;
    std::atomic<int> again{0};
    pool.parallel_for(50, [&](std::size_t) { again.fetch_add(1); }, 4);
    EXPECT_EQ(again.load(), 50) << "pool unusable after fuzzed exception, seed=" << seed;
  }
}

#endif  // TREESVD_ANALYSIS

}  // namespace
}  // namespace treesvd
