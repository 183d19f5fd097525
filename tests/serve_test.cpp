// Serving front-end: queue discipline, latency histogram, and the end-to-end
// contract that a served result is bitwise the direct sequential solve (batch
// composition under racy arrival order must never leak into payloads).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "core/registry.hpp"
#include "linalg/generators.hpp"
#include "svd/determinism.hpp"
#include "svd/jacobi.hpp"
#include "svd/serve.hpp"
#include "util/rng.hpp"

namespace treesvd {
namespace {

TEST(BoundedMpscQueue, FifoAndBoundedTryPush) {
  BoundedMpscQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_FALSE(q.try_push(99));  // full: bounded, not growing
  std::vector<int> got;
  EXPECT_EQ(q.pop_batch(got, 3), 3u);
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(q.try_push(4));
  got.clear();
  EXPECT_EQ(q.pop_batch(got, 8), 2u);
  EXPECT_EQ(got, (std::vector<int>{3, 4}));
}

TEST(BoundedMpscQueue, BlockingPushBackpressureReleasesOnPop) {
  BoundedMpscQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(q.push(2));  // blocks until the consumer makes space
    second_pushed.store(true);
  });
  std::vector<int> got;
  // Consume one; the blocked producer must wake and complete.
  EXPECT_EQ(q.pop_batch(got, 1), 1u);
  EXPECT_EQ(got.front(), 1);
  got.clear();
  EXPECT_EQ(q.pop_batch(got, 1), 1u);  // waits for the producer if needed
  EXPECT_EQ(got.front(), 2);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
}

TEST(BoundedMpscQueue, CloseDrainsThenReportsExhaustion) {
  BoundedMpscQueue<int> q(8);
  EXPECT_TRUE(q.try_push(7));
  q.close();
  EXPECT_FALSE(q.try_push(8));
  EXPECT_FALSE(q.push(9));
  std::vector<int> got;
  EXPECT_EQ(q.pop_batch(got, 4), 1u);  // pending work still drains
  EXPECT_EQ(got.front(), 7);
  EXPECT_EQ(q.pop_batch(got, 4), 0u);  // closed and empty: exhausted
}

TEST(BoundedMpscQueue, CloseWakesBlockedConsumer) {
  BoundedMpscQueue<int> q(2);
  std::thread closer([&] { q.close(); });
  std::vector<int> got;
  EXPECT_EQ(q.pop_batch(got, 1), 0u);  // must return instead of hanging
  closer.join();
}

TEST(LatencyHistogram, QuantilesAndMerge) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.p50_ns(), 0u);
  for (int i = 0; i < 90; ++i) h.record(100);    // bucket of 100ns
  for (int i = 0; i < 10; ++i) h.record(100000); // tail
  EXPECT_EQ(h.count(), 100u);
  EXPECT_LE(h.p50_ns(), 127u);   // 100 lives in [64, 127]
  EXPECT_GE(h.p50_ns(), 100u);
  EXPECT_GE(h.p99_ns(), 100000u);
  EXPECT_LE(h.p50_ns(), h.p99_ns());
  EXPECT_EQ(h.max_ns(), 100000u);

  LatencyHistogram other;
  for (int i = 0; i < 100; ++i) other.record(1000000);
  h.merge(other);
  EXPECT_EQ(h.count(), 200u);
  EXPECT_GE(h.p99_ns(), 1000000u);  // merged tail dominates p99
  EXPECT_LE(h.p50_ns(), 1048575u);
}

TEST(SvdServer, ServedResultsAreBitwiseDirectSolves) {
  const OrderingPtr ord = make_ordering("round-robin");
  ServeOptions opt;
  opt.rows = 8;
  opt.cols = 6;
  opt.shards = 2;
  opt.queue_capacity = 8;
  opt.batch.lane_width = 4;
  SvdServer server(*ord, opt);
  server.start();

  Rng rng(2024);
  std::vector<Matrix> inputs;
  for (int i = 0; i < 23; ++i) inputs.push_back(random_gaussian(8, 6, rng));
  std::vector<SvdResult> results(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i)
    ASSERT_TRUE(server.submit(inputs[i], &results[i]));
  server.wait_idle();

  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const SvdResult ref = one_sided_jacobi(inputs[i], *ord, opt.batch.jacobi);
    EXPECT_EQ(result_digest(results[i]), result_digest(ref)) << "request " << i;
  }

  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.submitted, inputs.size());
  EXPECT_EQ(stats.completed, inputs.size());
  EXPECT_EQ(stats.batched_lanes, inputs.size());
  EXPECT_GE(stats.batches, (inputs.size() + opt.batch.lane_width - 1) / opt.batch.lane_width /
                               opt.shards);
  EXPECT_EQ(stats.latency.count(), inputs.size());
  EXPECT_LE(stats.latency.p50_ns(), stats.latency.p99_ns());
  server.stop();
  EXPECT_FALSE(server.submit(inputs[0], &results[0]));  // stopped: rejected
}

TEST(SvdServer, ConcurrentProducersUnderBackpressure) {
  const OrderingPtr ord = make_ordering("round-robin");
  ServeOptions opt;
  opt.rows = 8;
  opt.cols = 6;
  opt.shards = 1;
  opt.queue_capacity = 2;  // tiny bound: producers must block and recover
  opt.batch.lane_width = 4;
  SvdServer server(*ord, opt);
  server.start();

  Rng rng(7);
  constexpr std::size_t kPerProducer = 6;
  std::vector<Matrix> inputs;
  for (std::size_t i = 0; i < 3 * kPerProducer; ++i)
    inputs.push_back(random_gaussian(8, 6, rng));
  std::vector<SvdResult> results(inputs.size());
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < 3; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        const std::size_t idx = p * kPerProducer + i;
        ASSERT_TRUE(server.submit(inputs[idx], &results[idx]));
      }
    });
  }
  for (auto& t : producers) t.join();
  server.wait_idle();
  server.stop();

  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const SvdResult ref = one_sided_jacobi(inputs[i], *ord, opt.batch.jacobi);
    EXPECT_EQ(result_digest(results[i]), result_digest(ref)) << "request " << i;
  }
}

// ---------------------------------------------------------------------------
// Fault-tolerant serving: deadlines, bounces, isolation, drain.
// ---------------------------------------------------------------------------

/// Polls `pred` until true or `timeout_ms` elapses (tests must never hang on
/// a broken condition; they fail loudly instead).
template <typename Pred>
bool eventually(Pred pred, int timeout_ms = 20000) {
  const auto t0 = std::chrono::steady_clock::now();
  while (!pred()) {
    if (std::chrono::steady_clock::now() - t0 > std::chrono::milliseconds(timeout_ms))
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(BoundedMpscQueue, CloseDrainContentionLosesNothing) {
  // Producers and a mid-stream close hammer one queue; every accepted item
  // must be popped exactly once and per-producer FIFO must hold. Several
  // close points give TSan distinct interleavings over the close/drain edge.
  for (int close_after : {0, 5, 20, 1000000}) {
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 64;
    BoundedMpscQueue<int> q(8);
    std::vector<std::vector<int>> accepted(kProducers);
    std::atomic<int> popped_count{0};
    std::atomic<int> producers_done{0};

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          const int v = p * 1000 + i;
          bool ok = false;
          if (i % 2 == 0) {
            ok = q.push(v);  // blocking leg: exercises cv_space_ under close
          } else {
            while (!(ok = q.try_push(v)) && !q.closed()) std::this_thread::yield();
          }
          if (!ok) break;  // closed: everything after would also be dropped
          accepted[p].push_back(v);
        }
        producers_done.fetch_add(1);
      });
    }
    // Closes at the cut point — or once every producer finished, so cut
    // points past the total item count still terminate the consumer.
    std::thread closer([&] {
      while (popped_count.load() < close_after && producers_done.load() < kProducers)
        std::this_thread::yield();
      q.close();
    });

    std::vector<int> popped;
    std::vector<int> batch;
    for (;;) {
      batch.clear();
      if (q.pop_batch(batch, 5) == 0) break;  // closed and drained
      for (int v : batch) popped.push_back(v);
      popped_count.store(static_cast<int>(popped.size()));
    }
    for (auto& t : producers) t.join();
    closer.join();
    // close() may have raced the last pushes; drain any residue.
    for (;;) {
      batch.clear();
      if (q.pop_batch(batch, 8) == 0) break;
      for (int v : batch) popped.push_back(v);
    }

    std::multiset<int> in;
    for (const auto& a : accepted) in.insert(a.begin(), a.end());
    std::multiset<int> out(popped.begin(), popped.end());
    EXPECT_EQ(in, out) << "close_after=" << close_after
                       << ": accepted items must be popped exactly once";
    // Per-producer FIFO among the popped.
    for (int p = 0; p < kProducers; ++p) {
      int last = -1;
      for (int v : popped) {
        if (v / 1000 != p) continue;
        EXPECT_LT(last, v) << "producer " << p << " order violated";
        last = v;
      }
    }
  }
}

TEST(SvdServer, StatsSnapshotIsRaceFreeUnderLoad) {
  // Regression for the snapshot race: stats() used to read each shard's
  // histogram without the stats mutex while shards recorded into it. Under
  // TSan this test is the detector; under plain builds it checks the final
  // accounting identities.
  const OrderingPtr ord = make_ordering("round-robin");
  ServeOptions opt;
  opt.rows = 8;
  opt.cols = 6;
  opt.shards = 2;
  opt.queue_capacity = 8;
  opt.batch.lane_width = 4;
  SvdServer server(*ord, opt);
  server.start();

  Rng rng(11);
  constexpr std::size_t kRequests = 48;
  std::vector<Matrix> inputs;
  for (std::size_t i = 0; i < kRequests; ++i) inputs.push_back(random_gaussian(8, 6, rng));
  std::vector<SvdResult> results(inputs.size());

  std::atomic<bool> done{false};
  std::thread poller([&] {
    // Hammer the snapshot path concurrently with shard-side recording. Only
    // monotone bounds hold mid-flight (counters are read at distinct
    // instants); the exact identities are checked on the quiescent snapshot.
    while (!done.load()) {
      const ServeStats s = server.stats();
      EXPECT_LE(s.completed, kRequests);
      EXPECT_LE(s.latency.count(), kRequests);
      EXPECT_LE(s.solved + s.expired + s.failed, kRequests);
    }
  });
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < 3; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = p; i < kRequests; i += 3)
        ASSERT_TRUE(server.submit(inputs[i], &results[i]));
    });
  }
  for (auto& t : producers) t.join();
  server.wait_idle();
  done.store(true);
  poller.join();

  const ServeStats s = server.stats();
  EXPECT_EQ(s.submitted, kRequests);
  EXPECT_EQ(s.completed, kRequests);
  EXPECT_EQ(s.solved, kRequests);
  EXPECT_EQ(s.latency.count(), kRequests);
  std::uint64_t shard_lanes = 0;
  for (const ShardSnapshot& sh : s.shards) shard_lanes += sh.lanes;
  EXPECT_EQ(shard_lanes, kRequests);
  server.stop();
}

TEST(SvdServer, LeastLoadedRoutingStarvesStalledShard) {
  // Shard 0 stalls at startup (fault plan); its queue holds exactly the one
  // request admitted before its load became visible, and every subsequent
  // submission must route to shard 1 — least-loaded admission starves the
  // stalled shard without any explicit health signal. Round-robin would have
  // parked half the work behind the stall.
  const OrderingPtr ord = make_ordering("round-robin");
  constexpr std::size_t kHealthy = 6;  // requests routed while shard 0 stalls
  ServeOptions opt;
  opt.rows = 8;
  opt.cols = 6;
  opt.shards = 2;
  opt.queue_capacity = 16;
  opt.batch.lane_width = 4;
  opt.faults.stall_shard = 0;
  opt.faults.stall_until_submitted = kHealthy + 2;  // released by the final submit
  SvdServer server(*ord, opt);
  server.start();

  Rng rng(13);
  std::vector<Matrix> inputs;
  for (std::size_t i = 0; i < kHealthy + 2; ++i) inputs.push_back(random_gaussian(8, 6, rng));
  std::vector<SvdResult> results(inputs.size());

  // Request 0: both shards idle, ties go to shard 0 — which is stalled, so
  // its load stays pinned at 1 for the rest of the stall window.
  ASSERT_TRUE(server.submit(inputs[0], &results[0]));
  for (std::size_t i = 1; i <= kHealthy; ++i) {
    ASSERT_TRUE(server.submit(inputs[i], &results[i]));
    // Wait for shard 1's load (queued + in-flight) to drain to 0 before the
    // next admission — every pick is then deterministic (0 < 1).
    ASSERT_TRUE(eventually([&] {
      const ServeStats s = server.stats();
      return s.completed >= i && s.shards[1].queued == 0 && s.shards[1].inflight == 0;
    }));
  }
  // The final submission crosses stall_until_submitted and releases shard 0.
  ASSERT_TRUE(server.submit(inputs[kHealthy + 1], &results[kHealthy + 1]));
  server.wait_idle();

  const ServeStats s = server.stats();
  EXPECT_EQ(s.stalls_injected, 1u);
  EXPECT_EQ(s.solved, kHealthy + 2);
  ASSERT_EQ(s.shards.size(), 2u);
  EXPECT_EQ(s.shards[0].lanes, 1u) << "stalled shard must only see the pre-stall request";
  EXPECT_GE(s.shards[1].lanes, kHealthy) << "healthy shard must absorb the stall-window load";
  server.stop();

  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const SvdResult ref = one_sided_jacobi(inputs[i], *ord, opt.batch.jacobi);
    EXPECT_EQ(result_digest(results[i]), result_digest(ref)) << "request " << i;
  }
}

TEST(SvdServer, DeadlineExpiresAtFormationWithoutBurningALane) {
  // Two requests admitted with 1 ns deadlines behind a stalled shard must
  // complete kDeadlineExpired at batch formation, and the lone healthy
  // batchmate must solve in a batch of exactly one lane.
  const OrderingPtr ord = make_ordering("round-robin");
  ServeOptions opt;
  opt.rows = 8;
  opt.cols = 6;
  opt.shards = 1;
  opt.queue_capacity = 8;
  opt.batch.lane_width = 4;
  opt.faults.stall_shard = 0;
  opt.faults.stall_until_submitted = 3;
  SvdServer server(*ord, opt);
  server.start();

  Rng rng(17);
  std::vector<Matrix> inputs;
  for (int i = 0; i < 3; ++i) inputs.push_back(random_gaussian(8, 6, rng));
  std::vector<SvdResult> results(3);

  // 1 ns deadlines expire long before the stall releases.
  ASSERT_TRUE(server.submit(inputs[0], &results[0], /*deadline_ns=*/1));
  ASSERT_TRUE(server.submit(inputs[1], &results[1], /*deadline_ns=*/1));
  ASSERT_TRUE(server.submit(inputs[2], &results[2]));  // releases the stall
  server.wait_idle();

  EXPECT_EQ(results[0].status, SvdStatus::kDeadlineExpired);
  EXPECT_EQ(results[1].status, SvdStatus::kDeadlineExpired);
  EXPECT_FALSE(results[0].converged);
  EXPECT_FALSE(results[0].diagnostics.error.empty());
  const SvdResult ref = one_sided_jacobi(inputs[2], *ord, opt.batch.jacobi);
  EXPECT_EQ(result_digest(results[2]), result_digest(ref));

  const ServeStats s = server.stats();
  EXPECT_EQ(s.expired, 2u);
  EXPECT_EQ(s.solved, 1u);
  EXPECT_EQ(s.batched_lanes, 1u) << "expired requests must not burn SIMD lanes";
  EXPECT_EQ(s.batches, 1u);
  server.stop();
}

TEST(SvdServer, TrySubmitOnFullQueueBouncesAndCounts) {
  // A stalled shard's full queue: try_submit bounces without touching the
  // queued entries, and the bounce is counted in `rejected`. stop() releases
  // the stall — a blocking submit on the full queue would wait out the
  // stall's safety bound instead.
  const OrderingPtr ord = make_ordering("round-robin");
  ServeOptions opt;
  opt.rows = 8;
  opt.cols = 6;
  opt.shards = 1;
  opt.queue_capacity = 2;  // exactly the two queued requests
  opt.batch.lane_width = 4;
  opt.faults.stall_shard = 0;
  opt.faults.stall_until_submitted = 99;  // never reached by submissions
  SvdServer server(*ord, opt);
  server.start();

  Rng rng(19);
  std::vector<Matrix> inputs;
  for (int i = 0; i < 3; ++i) inputs.push_back(random_gaussian(8, 6, rng));
  std::vector<SvdResult> results(3);
  results[2].sweeps = -1;  // sentinel: a bounced request's slot is never written
  ASSERT_TRUE(server.submit(inputs[0], &results[0]));
  ASSERT_TRUE(server.try_submit(inputs[1], &results[1]));

  EXPECT_FALSE(server.try_submit(inputs[2], &results[2]));
  {
    const ServeStats s = server.stats();
    EXPECT_EQ(s.rejected, 1u);
    EXPECT_EQ(s.submitted, 2u);
    EXPECT_EQ(s.completed, 0u);
    EXPECT_EQ(s.shards[0].queued, 2u) << "a bounce must leave the queued entries in place";
  }

  server.stop();  // breaks the stall and drains both queued requests
  const ServeStats s = server.stats();
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.solved, 2u);
  EXPECT_EQ(results[2].sweeps, -1) << "a bounced request must not be served";
  for (int i = 0; i < 2; ++i) {
    const SvdResult ref = one_sided_jacobi(inputs[i], *ord, opt.batch.jacobi);
    EXPECT_EQ(result_digest(results[i]), result_digest(ref)) << "request " << i;
  }
}

TEST(SvdServer, PoisonInputFailsAloneAndBatchmatesStayBitwise) {
  // One NaN input inside a six-lane batch: the batch solve throws, the shard
  // isolates lane by lane, and only the poison request completes kFailed —
  // every batchmate's payload is bitwise the direct sequential solve.
  const OrderingPtr ord = make_ordering("round-robin");
  ServeOptions opt;
  opt.rows = 8;
  opt.cols = 6;
  opt.shards = 1;
  opt.queue_capacity = 8;
  opt.batch.lane_width = 8;  // wide enough to take all six in one batch
  opt.faults.stall_shard = 0;
  opt.faults.stall_until_submitted = 6;  // all six queued before the first pop
  SvdServer server(*ord, opt);
  server.start();

  Rng rng(23);
  std::vector<Matrix> inputs;
  for (int i = 0; i < 6; ++i) inputs.push_back(random_gaussian(8, 6, rng));
  inputs[2](1, 3) = std::numeric_limits<double>::quiet_NaN();
  std::vector<SvdResult> results(6);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(server.submit(inputs[i], &results[i]));
  server.wait_idle();

  EXPECT_EQ(results[2].status, SvdStatus::kFailed);
  EXPECT_FALSE(results[2].converged);
  EXPECT_FALSE(results[2].diagnostics.error.empty());
  const ServeStats s = server.stats();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.solved, 5u);
  server.stop();

  for (int i = 0; i < 6; ++i) {
    if (i == 2) continue;
    const SvdResult ref = one_sided_jacobi(inputs[i], *ord, opt.batch.jacobi);
    EXPECT_EQ(result_digest(results[i]), result_digest(ref)) << "batchmate " << i;
  }
}

TEST(ServeFaultPlan, RequestFaultIsAPureSeededPartition) {
  ServeFaultPlan plan;
  plan.seed = 42;
  plan.poison_prob = 0.15;
  plan.throw_prob = 0.15;
  plan.expire_prob = 0.15;

  // Pure function of (seed, id): identical plans agree on every id.
  ServeFaultPlan copy = plan;
  std::size_t poison = 0, thrown = 0, expire = 0, none = 0;
  for (std::uint64_t id = 0; id < 4096; ++id) {
    const auto f = plan.request_fault(id);
    ASSERT_EQ(f, copy.request_fault(id)) << "id " << id;
    ASSERT_EQ(f, plan.request_fault(id)) << "id " << id;  // and across calls
    switch (f) {
      case ServeFaultPlan::RequestFault::kPoison: ++poison; break;
      case ServeFaultPlan::RequestFault::kThrow: ++thrown; break;
      case ServeFaultPlan::RequestFault::kExpire: ++expire; break;
      case ServeFaultPlan::RequestFault::kNone: ++none; break;
    }
  }
  // Bands roughly match their probabilities (loose: this is a hash, not an
  // exact partition of a finite set).
  EXPECT_NEAR(static_cast<double>(poison) / 4096.0, 0.15, 0.05);
  EXPECT_NEAR(static_cast<double>(thrown) / 4096.0, 0.15, 0.05);
  EXPECT_NEAR(static_cast<double>(expire) / 4096.0, 0.15, 0.05);
  EXPECT_NEAR(static_cast<double>(none) / 4096.0, 0.55, 0.05);

  // A different seed reshuffles the partition.
  ServeFaultPlan other = plan;
  other.seed = 43;
  bool differs = false;
  for (std::uint64_t id = 0; id < 4096 && !differs; ++id)
    differs = other.request_fault(id) != plan.request_fault(id);
  EXPECT_TRUE(differs);

  // A probability-free plan injects nothing.
  const ServeFaultPlan zero;
  for (std::uint64_t id = 0; id < 256; ++id)
    EXPECT_EQ(zero.request_fault(id), ServeFaultPlan::RequestFault::kNone);
}

TEST(SvdServer, StopDrainsEveryAcceptedRequestToATerminalState) {
  // Requests parked behind a stalled shard when stop() arrives must still
  // reach a terminal state — stop() closes, drains solo, and loses nothing.
  const OrderingPtr ord = make_ordering("round-robin");
  ServeOptions opt;
  opt.rows = 8;
  opt.cols = 6;
  opt.shards = 1;
  opt.queue_capacity = 4;
  opt.batch.lane_width = 4;
  opt.faults.stall_shard = 0;
  opt.faults.stall_until_submitted = 99;  // never released by submissions;
                                          // stop() breaks the stall instead
  SvdServer server(*ord, opt);
  server.start();

  Rng rng(43);
  std::vector<Matrix> inputs;
  for (int i = 0; i < 3; ++i) inputs.push_back(random_gaussian(8, 6, rng));
  std::vector<SvdResult> results(3);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(server.submit(inputs[i], &results[i]));
  server.stop();  // queue still full: the drain must finish all three

  const ServeStats s = server.stats();
  EXPECT_EQ(s.completed, 3u);
  EXPECT_EQ(s.solved, 3u);
  for (int i = 0; i < 3; ++i) {
    const SvdResult ref = one_sided_jacobi(inputs[i], *ord, opt.batch.jacobi);
    EXPECT_EQ(result_digest(results[i]), result_digest(ref)) << "request " << i;
  }
}

}  // namespace
}  // namespace treesvd
