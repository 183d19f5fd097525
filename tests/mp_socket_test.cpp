// Multi-process socket backend: every rank its own OS process over
// UNIX-domain sockets, same World API, same bitwise guarantees. These tests
// cover the transport itself (ring traffic, collectives, the durable blob
// board), the cross-backend bit-identity contract for the SPMD engine, the
// error-context contract of TransportError, the exit handshake (a finished
// sender still answers a late NACK; exit never waits for a heartbeat), and
// the physical fault paths:
// injected drops/duplicates/corruption/delays on real connections, a planned
// SIGKILL with respawn + checkpoint rollback, and an *external* SIGKILL of a
// live rank process surfacing as RankKilledError; and the retransmit store's
// lifetime (under message faults a consumed frame leaves its sender's store;
// without them a send keeps no copy at all).
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <chrono>
#include <csignal>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.hpp"
#include "linalg/generators.hpp"
#include "mp/frame.hpp"
#include "mp/message_passing.hpp"
#include "network/topology.hpp"
#include "sim/machine.hpp"
#include "svd/determinism.hpp"
#include "svd/spmd.hpp"

// The backend forks rank processes out of a multithreaded test binary; TSan
// instruments the fork but cannot follow the children, so the suite skips
// itself under TSan (the in-process backend carries the TSan coverage).
#if defined(__SANITIZE_THREAD__)
#define TREESVD_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TREESVD_TSAN 1
#endif
#endif
#ifndef TREESVD_TSAN
#define TREESVD_TSAN 0
#endif

#define SKIP_UNDER_TSAN() \
  if (TREESVD_TSAN) GTEST_SKIP() << "socket backend forks rank processes; skipped under TSan"

#if defined(__SANITIZE_ADDRESS__)
#define TREESVD_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TREESVD_ASAN 1
#endif
#endif
#ifndef TREESVD_ASAN
#define TREESVD_ASAN 0
#endif

namespace treesvd {
namespace {

TEST(SocketBackend, RingExchangeCollectivesAndPublish) {
  SKIP_UNDER_TSAN();
  const int ranks = 4;
  mp::World world(ranks);
  world.set_backend(mp::Backend::kSocket);
  world.run([](mp::Context& ctx) {
    const int next = (ctx.rank() + 1) % ctx.size();
    const int prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
    ctx.send(next, 7, {static_cast<double>(ctx.rank()), 1.5});
    const auto got = ctx.recv(prev, 7);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], static_cast<double>(prev));
    EXPECT_EQ(got[1], 1.5);
    // Collectives are launcher-mediated and summed in rank order, so the
    // result is deterministic (and exact here).
    EXPECT_EQ(ctx.allreduce_sum(static_cast<double>(ctx.rank())), 6.0);
    ctx.barrier();
    // The blob board is the only rank state that survives process exit.
    ctx.publish(100 + static_cast<std::uint64_t>(ctx.rank()),
                {static_cast<double>(ctx.rank()) * 10.0});
  });
  for (int r = 0; r < ranks; ++r) {
    const auto blob = world.published(100 + static_cast<std::uint64_t>(r));
    ASSERT_EQ(blob.size(), 1u);
    EXPECT_EQ(blob[0], r * 10.0);
  }
  EXPECT_EQ(world.delivered(), static_cast<std::size_t>(ranks));
  // No run live: no rank has a process id.
  EXPECT_EQ(world.process_id(0), 0);
}

TEST(SocketBackend, SpmdBitwiseMatchesInproc) {
  SKIP_UNDER_TSAN();
  Rng rng(321);
  const Matrix a = random_gaussian(16, 8, rng);
  const auto ord = make_ordering("new-ring");
  const SvdResult inproc = spmd_jacobi(a, *ord);

  SpmdTransport transport;
  transport.backend = mp::Backend::kSocket;
  SpmdStats stats;
  const SvdResult socket = spmd_jacobi(a, *ord, {}, &stats, &transport);

  ASSERT_TRUE(socket.converged);
  EXPECT_EQ(socket.sweeps, inproc.sweeps);
  for (std::size_t k = 0; k < inproc.sigma.size(); ++k)
    EXPECT_EQ(socket.sigma[k], inproc.sigma[k]);
  EXPECT_EQ(socket.u, inproc.u);
  EXPECT_EQ(socket.v, inproc.v);
  EXPECT_EQ(result_core_digest(socket), result_core_digest(inproc));
  EXPECT_EQ(result_digest(socket), result_digest(inproc));
  // Over rank processes too, every inter-leaf move is one message: the count
  // the abstract cost model prices for the same sweeps.
  const FatTreeTopology topo(4, CapacityProfile::kCm5);
  EXPECT_EQ(stats.messages,
            model_run(*ord, topo, 8, CostParams{}, socket.sweeps).per_sweep_total.messages);
}

TEST(SocketBackend, TransportErrorCarriesContext) {
  SKIP_UNDER_TSAN();
  // Every frame and every resend is dropped, so the receiver must exhaust
  // its retry budget; the error names backend, endpoints, tag, seq and the
  // attempt count — the satellite-1 contract.
  mp::World world(2);
  mp::SocketConfig sc;
  sc.recv_deadline_ms = 5.0;  // keep the retry ladder fast
  world.set_backend(mp::Backend::kSocket, sc);
  mp::FaultPlan plan;
  plan.max_retries = 3;
  plan.seed = 7;
  plan.drop_prob = 1.0;
  plan.resend_drop_prob = 1.0;
  world.set_fault_plan(plan);
  try {
    world.run([](mp::Context& ctx) {
      if (ctx.rank() == 0) ctx.send(1, 42, {1.0});
      if (ctx.rank() == 1) static_cast<void>(ctx.recv(0, 42));
    });
    FAIL() << "expected the retry budget to exhaust";
  } catch (const mp::TransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("mp[socket]"), std::string::npos) << what;
    EXPECT_NE(what.find("src=0"), std::string::npos) << what;
    EXPECT_NE(what.find("dst=1"), std::string::npos) << what;
    EXPECT_NE(what.find("tag=42"), std::string::npos) << what;
    EXPECT_NE(what.find("seq="), std::string::npos) << what;
    EXPECT_NE(what.find("3 attempts"), std::string::npos) << what;
  }
  EXPECT_TRUE(world.aborted());
}

TEST(SocketBackend, LateRetransmissionRecoveredOnBothBackends) {
  SKIP_UNDER_TSAN();
  // Every first transmission is lost and every resend survives. Rank 0
  // sends one frame and returns; rank 1 asks for it only after rank 0's
  // program has finished. The in-process store outlives a finished sender,
  // and over sockets the exit handshake keeps rank 0's process serving
  // NACKs, so both backends must deliver the payload bit for bit.
  const std::vector<double> payload = {1.0, -0.0, 3.5e-310, 0x1.fffffffffffffp+1023};
  for (const mp::Backend backend : {mp::Backend::kInproc, mp::Backend::kSocket}) {
    mp::World world(2);
    mp::SocketConfig sc;
    sc.recv_deadline_ms = 5.0;
    world.set_backend(backend, sc);
    mp::FaultPlan plan;
    plan.max_retries = 4;
    plan.seed = 7;
    plan.drop_prob = 1.0;
    world.set_fault_plan(plan);
    world.run([&payload](mp::Context& ctx) {
      if (ctx.rank() == 0) {
        ctx.send(1, 42, payload);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      // Published, not asserted in place: a rank process's gtest failures
      // would not reach the launcher.
      ctx.publish(1, ctx.recv(0, 42));
    });
    const std::vector<double> got = world.published(1);
    ASSERT_EQ(got.size(), payload.size()) << world.backend_name();
    for (std::size_t k = 0; k < payload.size(); ++k)
      EXPECT_EQ(mp::double_to_bits(got[k]), mp::double_to_bits(payload[k]))
          << world.backend_name() << " word " << k;
    const mp::RecoveryStats stats = world.recovery_stats();
    EXPECT_GE(stats.drops_seen, 1u) << world.backend_name();
    EXPECT_GE(stats.resends, 1u) << world.backend_name();
  }
}

TEST(SocketBackend, ExitDoesNotWaitForHeartbeat) {
  SKIP_UNDER_TSAN();
  // A rank process leaves once every rank has returned, or once the world
  // aborts, not when its IO thread's heartbeat poll times out: with a 2 s
  // heartbeat the world still returns in well under one interval.
  mp::World world(4);
  mp::SocketConfig sc;
  sc.heartbeat_interval_ms = 2000.0;
  world.set_backend(mp::Backend::kSocket, sc);
  const auto elapsed_ms = [](std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
        .count();
  };
  auto start = std::chrono::steady_clock::now();
  world.run([](mp::Context& ctx) {
    const int next = (ctx.rank() + 1) % ctx.size();
    const int prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
    ctx.send(next, 7, {static_cast<double>(ctx.rank())});
    static_cast<void>(ctx.recv(prev, 7));
    static_cast<void>(ctx.allreduce_sum(1.0));
  });
  EXPECT_LT(elapsed_ms(start), 1000.0);
  EXPECT_EQ(world.delivered(), 4u);

  // Abort path: rank 3 throws while ranks 0-2 return and wait for it.
  const auto failing = [](mp::Context& ctx) {
    if (ctx.rank() == 3) throw std::runtime_error("rank 3 fails");
  };
  start = std::chrono::steady_clock::now();
  EXPECT_THROW(world.run(failing), std::runtime_error);
  EXPECT_LT(elapsed_ms(start), 1000.0);
  EXPECT_TRUE(world.aborted());
}

TEST(SocketBackend, PhysicalFaultsStillBitIdentical) {
  SKIP_UNDER_TSAN();
  // Drops close real connections, delays really stall, corruption really
  // flips bytes on the wire — and the result must not move a bit.
  Rng rng(321);
  const Matrix a = random_gaussian(16, 8, rng);
  const auto ord = make_ordering("new-ring");
  const SvdResult reference = spmd_jacobi(a, *ord);

  SpmdTransport transport;
  transport.backend = mp::Backend::kSocket;
  transport.faults.max_retries = 12;
  transport.faults.seed = 2026;
  transport.faults.drop_prob = 0.10;
  transport.faults.duplicate_prob = 0.06;
  transport.faults.corrupt_prob = 0.06;
  transport.faults.delay_prob = 0.02;
  SpmdStats stats;
  const SvdResult chaotic = spmd_jacobi(a, *ord, {}, &stats, &transport);

  EXPECT_EQ(result_digest(chaotic), result_digest(reference));
  // Fault decisions hash the message identity, so with this seed the plan
  // demonstrably fired (exact counts are pinned by the injector, not timing).
  EXPECT_GT(stats.recovery.drops_seen, 0u);
  EXPECT_GT(stats.recovery.corruptions_detected, 0u);
  EXPECT_GT(stats.recovery.resends, 0u);
}

TEST(SocketBackend, KillRespawnRollbackBitIdentical) {
  SKIP_UNDER_TSAN();
  // A planned kill SIGKILLs a live rank process mid-run; the engine respawns
  // the world, rolls back to the last sweep checkpoint every rank committed,
  // and the replay reproduces the fault-free result bit-for-bit.
  Rng rng(321);
  const Matrix a = random_gaussian(16, 8, rng);
  const auto ord = make_ordering("new-ring");
  const SvdResult reference = spmd_jacobi(a, *ord);

  SpmdTransport transport;
  transport.backend = mp::Backend::kSocket;
  transport.faults.kill_rank = 1;
  transport.faults.kill_at_op = 9;
  transport.recovery.checkpoint_sweeps = 1;
  transport.recovery.max_rollbacks = 4;
  SpmdStats stats;
  const SvdResult survived = spmd_jacobi(a, *ord, {}, &stats, &transport);

  EXPECT_EQ(result_digest(survived), result_digest(reference));
  EXPECT_EQ(stats.recovery.kills, 1u);
  EXPECT_GE(stats.recovery.rollbacks, 1u);
  EXPECT_GT(stats.recovery.checkpoints, 0u);
}

TEST(SocketBackend, ExternalSigkillSurfacesAsRankKilled) {
  SKIP_UNDER_TSAN();
  // Not a fault plan: a watcher thread SIGKILLs rank 1's real process from
  // outside. The launcher detects the death (WIFSIGNALED with no kKilled
  // frame), aborts the world, and run() rethrows RankKilledError with the
  // external flag and the terminating signal.
  mp::World world(3);
  world.set_backend(mp::Backend::kSocket);

  std::thread assassin([&world] {
    long pid = 0;
    while ((pid = world.process_id(1)) == 0) std::this_thread::yield();
    ::kill(static_cast<pid_t>(pid), SIGKILL);
  });
  try {
    world.run([](mp::Context& ctx) {
      // Enough rounds that rank 1 cannot finish before the signal lands.
      for (int round = 0; round < 200000; ++round) {
        const int next = (ctx.rank() + 1) % ctx.size();
        const int prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
        ctx.send(next, static_cast<std::uint64_t>(round), {static_cast<double>(round)});
        static_cast<void>(ctx.recv(prev, static_cast<std::uint64_t>(round)));
      }
    });
    FAIL() << "expected the external kill to abort the run";
  } catch (const mp::RankKilledError& e) {
    EXPECT_EQ(e.rank(), 1);
    EXPECT_TRUE(e.external());
    EXPECT_EQ(e.killed_by_signal(), SIGKILL);
    EXPECT_NE(std::string(e.what()).find("killed by signal"), std::string::npos) << e.what();
  }
  assassin.join();
  EXPECT_TRUE(world.aborted());
}

TEST(SocketBackend, ResetForReplayRearmsAfterProcessDeath) {
  SKIP_UNDER_TSAN();
  // The kill latch persists across runs, so calling run() again respawns
  // processes that replay straight past the planned kill — the engine-level
  // rollback protocol in miniature, at the transport layer.
  mp::World world(3);
  world.set_backend(mp::Backend::kSocket);
  mp::FaultPlan plan;
  plan.kill_rank = 2;
  plan.kill_at_op = 3;
  world.set_fault_plan(plan);
  const auto program = [](mp::Context& ctx) {
    for (int round = 0; round < 5; ++round) {
      const int next = (ctx.rank() + 1) % ctx.size();
      const int prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
      ctx.send(next, 100 + static_cast<std::uint64_t>(round), {static_cast<double>(round)});
      EXPECT_EQ(ctx.recv(prev, 100 + static_cast<std::uint64_t>(round))[0],
                static_cast<double>(round));
    }
    ctx.publish(500 + static_cast<std::uint64_t>(ctx.rank()),
                {static_cast<double>(ctx.rank())});
  };
  EXPECT_THROW(world.run(program), mp::RankKilledError);
  ASSERT_TRUE(world.aborted());
  world.run(program);  // fresh processes, latched kill: must complete
  EXPECT_FALSE(world.aborted());
  for (int r = 0; r < 3; ++r)
    EXPECT_EQ(world.published(500 + static_cast<std::uint64_t>(r))[0], static_cast<double>(r));
  EXPECT_EQ(world.recovery_stats().kills, 1u);
}

double peak_rss_kib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

/// Rank 0 streams 512 spmd column messages (64 MiB in all) to rank 1, which
/// answers each after its recv, over sockets under `plan` (none if null).
/// Rank 0's peak RSS may grow by a few frames, not by the whole stream as it
/// would if its process kept every frame.
void expect_stream_rss_bounded(const mp::FaultPlan* plan) {
  SKIP_UNDER_TSAN();
  if (TREESVD_ASAN) GTEST_SKIP() << "ASan's quarantine keeps freed frames from being reused";
  mp::World world(2);
  world.set_backend(mp::Backend::kSocket);
  if (plan != nullptr) world.set_fault_plan(*plan);
  world.run([](mp::Context& ctx) {
    constexpr int kFrames = 512;
    if (ctx.rank() == 0) {
      const std::vector<double> column(16384, 1.0);
      const double before = peak_rss_kib();
      for (int k = 0; k < kFrames; ++k) {
        ctx.send(1, 1, column);
        static_cast<void>(ctx.recv(1, 2));
      }
      ctx.publish(1, {before, peak_rss_kib()});
    } else {
      for (int k = 0; k < kFrames; ++k) {
        static_cast<void>(ctx.recv(0, 1));
        ctx.send(0, 2, {1.0});
      }
    }
  });
  const std::vector<double> rss = world.published(1);
  ASSERT_EQ(rss.size(), 2u);
  EXPECT_LT(rss[1] - rss[0], 16.0 * 1024)
      << "rank 0's peak RSS grew from " << rss[0] << " to " << rss[1] << " KiB";
}

TEST(SocketBackend, PlainSendsKeepNoRetransmitCopy) {
  // Without message faults no NACK can name a frame, so a send writes
  // straight from the caller's vector and keeps no copy.
  expect_stream_rss_bounded(nullptr);
}

TEST(SocketBackend, ConsumedFramesLeaveTheRetransmitStore) {
  // A resend-drop probability turns the reliable transport on, so every
  // frame enters rank 0's retransmit store, yet it faults no first
  // transmission. A frame leaves the store once rank 1 has consumed it and
  // acknowledged it.
  mp::FaultPlan plan;
  plan.resend_drop_prob = 0.1;
  expect_stream_rss_bounded(&plan);
}

}  // namespace
}  // namespace treesvd
