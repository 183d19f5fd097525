// Tests for the concurrency analysis layer: the vector-clock happens-before
// tracker, the seeded schedule fuzzer, and the determinism digests. The
// tracker/fuzzer/digest APIs exist in every build (the library is always
// compiled); only the end-to-end sections that rely on the instrumentation
// hooks inside ThreadPool / mp::World are gated on TREESVD_ANALYSIS.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "analysis/digest.hpp"
#include "analysis/fuzz.hpp"
#include "analysis/hb.hpp"
#include "core/registry.hpp"
#include "linalg/generators.hpp"
#include "svd/determinism.hpp"
#include "svd/jacobi.hpp"
#include "util/rng.hpp"

#if defined(TREESVD_ANALYSIS) && TREESVD_ANALYSIS
#include "util/thread_pool.hpp"
#endif

namespace treesvd {
namespace {

using analysis::AccessKind;
using analysis::Tracker;

// Two OS threads with no structural edge between them: each becomes its own
// thread-root logical task, so the tracker must treat them as concurrent.
void run_two_threads(Tracker& t, const void* obj, AccessKind first, AccessKind second) {
  std::thread a([&] { t.access(first, obj, 0, "obj", "test:a"); });
  a.join();
  std::thread b([&] { t.access(second, obj, 0, "obj", "test:b"); });
  b.join();
}

TEST(HbTracker, UnorderedPlainWritesRace) {
  Tracker t;
  int obj = 0;
  run_two_threads(t, &obj, AccessKind::kWrite, AccessKind::kWrite);
  EXPECT_EQ(t.race_count(), 1u);
  ASSERT_EQ(t.reports().size(), 1u);
  const analysis::RaceReport r = t.reports()[0];
  EXPECT_EQ(r.object, "obj");
  EXPECT_EQ(r.first.site, "test:a");
  EXPECT_EQ(r.second.site, "test:b");
  EXPECT_NE(r.first.task, r.second.task);
}

TEST(HbTracker, WriteVsReadAndWriteVsAtomicRace) {
  {
    Tracker t;
    int obj = 0;
    run_two_threads(t, &obj, AccessKind::kWrite, AccessKind::kRead);
    EXPECT_EQ(t.race_count(), 1u);
  }
  {
    Tracker t;
    int obj = 0;
    run_two_threads(t, &obj, AccessKind::kAtomic, AccessKind::kWrite);
    EXPECT_EQ(t.race_count(), 1u);
  }
}

TEST(HbTracker, BenignKindsNeverRace) {
  {
    Tracker t;
    int obj = 0;
    run_two_threads(t, &obj, AccessKind::kRead, AccessKind::kRead);
    EXPECT_EQ(t.race_count(), 0u);
  }
  {
    Tracker t;
    int obj = 0;
    run_two_threads(t, &obj, AccessKind::kAtomic, AccessKind::kAtomic);
    EXPECT_EQ(t.race_count(), 0u);
  }
}

TEST(HbTracker, DistinctIndicesAreDistinctLocations) {
  Tracker t;
  int obj = 0;
  std::thread a([&] { t.access(AccessKind::kWrite, &obj, 0, "obj", "test:a"); });
  a.join();
  std::thread b([&] { t.access(AccessKind::kWrite, &obj, 1, "obj", "test:b"); });
  b.join();
  EXPECT_EQ(t.race_count(), 0u);
}

TEST(HbTracker, ForkTaskJoinOrdersAccesses) {
  // parent write -> fork -> child write -> join -> parent write: every pair
  // is HB-ordered, so no race despite three plain writes to one location.
  Tracker t;
  int obj = 0;
  int region = 0;
  t.access(AccessKind::kWrite, &obj, 0, "obj", "test:parent-before");
  t.fork(&region, 1);
  std::thread child([&] {
    t.task_begin(&region, 1, "child");
    t.access(AccessKind::kWrite, &obj, 0, "obj", "test:child");
    t.task_end(&region, 1);
  });
  child.join();
  t.join(&region, 1);
  t.access(AccessKind::kWrite, &obj, 0, "obj", "test:parent-after");
  EXPECT_EQ(t.race_count(), 0u);
}

TEST(HbTracker, SiblingTasksAreConcurrentEvenOnOneThread) {
  // Two chunks of the same fork epoch executed back-to-back on one OS thread
  // (the single-core CI case): still logically concurrent, so conflicting
  // plain writes must race.
  Tracker t;
  int obj = 0;
  int region = 0;
  t.fork(&region, 1);
  t.task_begin(&region, 1, "chunk 0");
  t.access(AccessKind::kWrite, &obj, 0, "obj", "test:chunk0");
  t.task_end(&region, 1);
  t.task_begin(&region, 1, "chunk 1");
  t.access(AccessKind::kWrite, &obj, 0, "obj", "test:chunk1");
  t.task_end(&region, 1);
  t.join(&region, 1);
  EXPECT_EQ(t.race_count(), 1u);
  ASSERT_EQ(t.reports().size(), 1u);
  EXPECT_EQ(t.reports()[0].first.stack.back(), "chunk 0");
  EXPECT_EQ(t.reports()[0].second.stack.back(), "chunk 1");
}

TEST(HbTracker, ChannelEdgeOrdersSenderBeforeReceiver) {
  Tracker t;
  int obj = 0;
  int chan = 0;
  std::thread a([&] {
    t.access(AccessKind::kWrite, &obj, 0, "obj", "test:sender");
    t.channel_send(&chan, 0, 1, 7);
  });
  a.join();
  std::thread b([&] {
    t.channel_recv(&chan, 0, 1, 7);
    t.access(AccessKind::kWrite, &obj, 0, "obj", "test:receiver");
  });
  b.join();
  EXPECT_EQ(t.race_count(), 0u);
}

TEST(HbTracker, BarrierOrdersArrivalsBeforeDepartures) {
  Tracker t;
  int obj = 0;
  int bar = 0;
  std::thread a([&] {
    t.access(AccessKind::kWrite, &obj, 0, "obj", "test:before-barrier");
    t.barrier_arrive(&bar, 1);
  });
  a.join();
  std::thread b([&] {
    t.barrier_depart(&bar, 1);
    t.access(AccessKind::kWrite, &obj, 0, "obj", "test:after-barrier");
  });
  b.join();
  EXPECT_EQ(t.race_count(), 0u);
}

TEST(HbTracker, FramesInheritedAcrossForkAppearInReports) {
  Tracker t;
  int obj = 0;
  int region = 0;
  t.push_frame("sweep 3");
  t.fork(&region, 1);
  t.task_begin(&region, 1, "chunk A");
  t.access(AccessKind::kWrite, &obj, 0, "obj", "test:a");
  t.task_end(&region, 1);
  t.task_begin(&region, 1, "chunk B");
  t.access(AccessKind::kWrite, &obj, 0, "obj", "test:b");
  t.task_end(&region, 1);
  t.join(&region, 1);
  t.pop_frame();
  ASSERT_EQ(t.reports().size(), 1u);
  const analysis::RaceReport r = t.reports()[0];
  // The chunk's frame chain ends "... / sweep 3 / chunk X": the parent's
  // pushed frame is inherited across the fork, the chunk label is appended.
  ASSERT_GE(r.first.stack.size(), 2u);
  EXPECT_EQ(r.first.stack[r.first.stack.size() - 2], "sweep 3");
  EXPECT_EQ(r.first.stack.back(), "chunk A");
  ASSERT_GE(r.second.stack.size(), 2u);
  EXPECT_EQ(r.second.stack[r.second.stack.size() - 2], "sweep 3");
  EXPECT_EQ(r.second.stack.back(), "chunk B");
  EXPECT_FALSE(r.to_string().empty());
}

TEST(HbTracker, ReportStorageCapsButCountDoesNot) {
  Tracker t;
  std::vector<int> objs(Tracker::kMaxReports + 8);
  for (std::size_t i = 0; i < objs.size(); ++i) {
    std::thread a([&, i] { t.access(AccessKind::kWrite, &objs[i], 0, "obj", "test:a"); });
    a.join();
    std::thread b([&, i] { t.access(AccessKind::kWrite, &objs[i], 0, "obj", "test:b"); });
    b.join();
  }
  EXPECT_EQ(t.race_count(), objs.size());
  EXPECT_EQ(t.reports().size(), Tracker::kMaxReports);
}

TEST(ScheduleFuzzer, PermutationsAreSeededAndValid) {
  const auto draw = [](std::uint64_t seed, int calls) {
    analysis::FuzzPlan plan;
    plan.seed = seed;
    analysis::ScheduleFuzzer f(plan);
    std::vector<std::vector<std::uint32_t>> perms;
    for (int c = 0; c < calls; ++c) {
      std::vector<std::uint32_t> p;
      f.chunk_permutation(16, p);
      perms.push_back(p);
    }
    return perms;
  };
  const auto a = draw(42, 4);
  const auto b = draw(42, 4);
  EXPECT_EQ(a, b) << "same seed must replay the same permutation sequence";
  for (const auto& p : a) {
    std::vector<bool> seen(16, false);
    ASSERT_EQ(p.size(), 16u);
    for (const std::uint32_t v : p) {
      ASSERT_LT(v, 16u);
      ASSERT_FALSE(seen[v]) << "not a permutation";
      seen[v] = true;
    }
  }
  // Different seeds (or successive calls) must actually shuffle: at least one
  // of the drawn permutations differs from identity.
  const auto c = draw(43, 4);
  EXPECT_NE(a, c) << "different seeds produced identical permutation sequences";
}

TEST(ScheduleFuzzer, YieldProbabilityBoundsBehaviour) {
  {
    analysis::FuzzPlan plan;
    plan.seed = 7;
    plan.yield_prob = 0.0;
    analysis::ScheduleFuzzer f(plan);
    for (int i = 0; i < 200; ++i)
      f.perturb(analysis::kFuzzPoolChunk, 1, static_cast<std::uint64_t>(i), 0);
    EXPECT_EQ(f.decisions(), 200u);
    EXPECT_EQ(f.yields(), 0u);
  }
  {
    analysis::FuzzPlan plan;
    plan.seed = 7;
    plan.yield_prob = 1.0;
    analysis::ScheduleFuzzer f(plan);
    for (int i = 0; i < 50; ++i)
      f.perturb(analysis::kFuzzPoolChunk, 1, static_cast<std::uint64_t>(i), 0);
    EXPECT_EQ(f.decisions(), 50u);
    EXPECT_GE(f.yields(), 50u);
  }
}

TEST(ScheduleFuzzer, Mix64MatchesSplitmixAndSpreads) {
  // Deterministic, constexpr-evaluable, and not the identity.
  static_assert(analysis::mix64(0) == analysis::mix64(0));
  EXPECT_NE(analysis::mix64(1), 1u);
  EXPECT_NE(analysis::mix64(1), analysis::mix64(2));
}

TEST(DeterminismDigest, SameResultSameDigest) {
  Rng rng(5);
  const Matrix a = random_gaussian(12, 8, rng);
  const auto ord = make_ordering("round-robin");
  JacobiOptions opt;
  const SvdResult r1 = one_sided_jacobi(a, *ord, opt);
  const SvdResult r2 = one_sided_jacobi(a, *ord, opt);
  EXPECT_EQ(result_core_digest(r1), result_core_digest(r2));
  EXPECT_EQ(result_digest(r1), result_digest(r2));
}

TEST(DeterminismDigest, SensitiveToValuesAndKernelStats) {
  Rng rng(5);
  const Matrix a = random_gaussian(12, 8, rng);
  const auto ord = make_ordering("round-robin");
  SvdResult r = one_sided_jacobi(a, *ord, {});
  const std::uint64_t core = result_core_digest(r);
  const std::uint64_t full = result_digest(r);
  // A one-ulp sigma perturbation must flip the core digest.
  SvdResult bumped = r;
  bumped.sigma[0] = std::nextafter(bumped.sigma[0], 2.0 * bumped.sigma[0] + 1.0);
  EXPECT_NE(result_core_digest(bumped), core);
  // Kernel-stat drift flips the full digest but not the core digest.
  SvdResult counted = r;
  counted.kernel_stats.pairs += 1;
  EXPECT_EQ(result_core_digest(counted), core);
  EXPECT_NE(result_digest(counted), full);
}

TEST(DeterminismDigest, Fnv1aIsOrderSensitive) {
  analysis::Fnv1a h1;
  h1.add_u64(1);
  h1.add_u64(2);
  analysis::Fnv1a h2;
  h2.add_u64(2);
  h2.add_u64(1);
  EXPECT_NE(h1.value(), h2.value());
}

#if defined(TREESVD_ANALYSIS) && TREESVD_ANALYSIS

// --- End-to-end sections: these rely on the hooks compiled into ThreadPool,
// --- mp::World and the SVD drivers (TREESVD_ANALYSIS builds only).

TEST(HbEndToEnd, InstrumentedPoolRunIsObservedAndRaceFree) {
  analysis::ScopedTracker t;
  ThreadPool pool(4);
  std::vector<double> out(64, 0.0);
  pool.parallel_for(out.size(), [&](std::size_t i) { out[i] = static_cast<double>(i); }, 1);
  EXPECT_EQ(t->race_count(), 0u);
  EXPECT_GT(t->event_count(), 0u) << "hooks did not fire — instrumentation dead";
  EXPECT_GE(t->task_count(), 2u);
}

TEST(HbEndToEnd, PlantedPoolRaceIsDetectedWithBothStacks) {
  analysis::ScopedTracker t;
  ThreadPool pool(4);
  double shared = 0.0;
  pool.parallel_for(8,
                    [&](std::size_t i) {
                      TREESVD_HB_WRITE(&shared, 0, "planted shared scalar");
                      shared += static_cast<double>(i);
                    },
                    1);
  EXPECT_GE(t->race_count(), 1u);
  ASSERT_FALSE(t->reports().empty());
  const analysis::RaceReport r = t->reports()[0];
  EXPECT_EQ(r.object, "planted shared scalar");
  EXPECT_FALSE(r.first.site.empty());
  EXPECT_FALSE(r.second.site.empty());
  EXPECT_FALSE(r.first.stack.empty());
  EXPECT_FALSE(r.second.stack.empty());
}

TEST(HbEndToEnd, ThreadedEngineMatchesSerialUnderFuzzedSchedules) {
  Rng rng(17);
  const Matrix a = random_gaussian(12, 8, rng);
  const auto ord = make_ordering("fat-tree");
  const JacobiOptions opt;
  const std::uint64_t serial = result_digest(one_sided_jacobi(a, *ord, opt));
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{99}}) {
    analysis::FuzzPlan plan;
    plan.seed = seed;
    analysis::ScopedFuzzer fuzz(plan);
    analysis::ScopedTracker t;
    const SvdResult r = one_sided_jacobi_threaded(a, *ord, opt, 4);
    EXPECT_EQ(result_digest(r), serial) << "seed=" << seed;
    EXPECT_EQ(t->race_count(), 0u) << "seed=" << seed;
    EXPECT_GT(t->event_count(), 0u);
  }
}

#endif  // TREESVD_ANALYSIS

}  // namespace
}  // namespace treesvd
