// Message-passing runtime and the SPMD Jacobi program.
#include <gtest/gtest.h>

#include <atomic>
#include <tuple>

#include "core/registry.hpp"
#include "linalg/generators.hpp"
#include "mp/message_passing.hpp"
#include "network/topology.hpp"
#include "sim/machine.hpp"
#include "svd/spmd.hpp"

namespace treesvd {
namespace {

TEST(MessagePassing, PingPong) {
  mp::World world(2);
  world.run([](mp::Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 7, {1.0, 2.0, 3.0});
      const auto back = ctx.recv(1, 8);
      EXPECT_EQ(back, (std::vector<double>{6.0}));
    } else {
      const auto msg = ctx.recv(0, 7);
      EXPECT_EQ(msg, (std::vector<double>{1.0, 2.0, 3.0}));
      ctx.send(0, 8, {msg[0] + msg[1] + msg[2]});
    }
  });
  EXPECT_EQ(world.delivered(), 2u);
}

TEST(MessagePassing, TaggedMessagesDoNotCross) {
  mp::World world(2);
  world.run([](mp::Context& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 100, {100.0});
      ctx.send(1, 200, {200.0});
      ctx.send(1, 100, {101.0});
    } else {
      // Receive out of send order by tag; FIFO within a tag.
      EXPECT_EQ(ctx.recv(0, 200), (std::vector<double>{200.0}));
      EXPECT_EQ(ctx.recv(0, 100), (std::vector<double>{100.0}));
      EXPECT_EQ(ctx.recv(0, 100), (std::vector<double>{101.0}));
    }
  });
}

TEST(MessagePassing, RingPass) {
  const int ranks = 8;
  mp::World world(ranks);
  world.run([ranks](mp::Context& ctx) {
    // Pass a token around the ring twice, incrementing at each hop.
    double value = 0.0;
    for (int round = 0; round < 2 * ranks; ++round) {
      const int holder = round % ranks;
      if (ctx.rank() == holder) {
        ctx.send((holder + 1) % ranks, static_cast<std::uint64_t>(round), {value + 1.0});
      }
      if (ctx.rank() == (holder + 1) % ranks) {
        value = ctx.recv(holder, static_cast<std::uint64_t>(round))[0];
      }
    }
    if (ctx.rank() == 0) {
      EXPECT_DOUBLE_EQ(value, 2.0 * ranks);
    }
  });
}

TEST(MessagePassing, BarrierSynchronises) {
  const int ranks = 6;
  mp::World world(ranks);
  std::atomic<int> before{0};
  std::atomic<bool> violation{false};
  world.run([&](mp::Context& ctx) {
    before.fetch_add(1);
    ctx.barrier();
    if (before.load() != ranks) violation.store(true);
  });
  EXPECT_FALSE(violation.load());
}

TEST(MessagePassing, AllreduceSum) {
  const int ranks = 5;
  mp::World world(ranks);
  world.run([](mp::Context& ctx) {
    for (int round = 1; round <= 3; ++round) {
      const double sum = ctx.allreduce_sum(static_cast<double>(ctx.rank() * round));
      EXPECT_DOUBLE_EQ(sum, round * (0 + 1 + 2 + 3 + 4));
    }
  });
}

TEST(MessagePassing, ExceptionsPropagate) {
  mp::World world(3);
  EXPECT_THROW(world.run([](mp::Context& ctx) {
                 if (ctx.rank() == 1) throw std::runtime_error("rank 1 died");
                 // Other ranks return without collectives so nothing hangs.
               }),
               std::runtime_error);
}

TEST(MessagePassing, LowestRankFailureWins) {
  // When several ranks fail, run() joins everyone and rethrows the failure
  // from the lowest rank — the documented deterministic tie-break.
  mp::World world(4);
  try {
    world.run([](mp::Context& ctx) {
      if (ctx.rank() == 1) throw std::runtime_error("rank 1 boom");
      if (ctx.rank() == 3) throw std::logic_error("rank 3 boom");
    });
    FAIL() << "expected a rank failure to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 1 boom");
  }
}

TEST(MessagePassing, SecondarySurfacesOnlyWithoutPrimary) {
  // Rank 0 dies; rank 1, blocked on a message rank 0 never sends, unwinds
  // with the secondary WorldAbortedError — but run() reports the primary.
  mp::World world(2);
  try {
    world.run([](mp::Context& ctx) {
      if (ctx.rank() == 0) throw std::runtime_error("primary");
      ctx.recv(0, 1);  // never satisfiable
    });
    FAIL() << "expected the primary failure to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "primary");
  }
}

TEST(MessagePassing, SelfTrafficAndRangeChecksThrow) {
  EXPECT_THROW(
      mp::World(2).run([](mp::Context& ctx) {
        if (ctx.rank() == 0) ctx.send(0, 1, {1.0});  // send-to-self
      }),
      std::invalid_argument);
  EXPECT_THROW(
      mp::World(2).run([](mp::Context& ctx) {
        if (ctx.rank() == 1) static_cast<void>(ctx.recv(1, 1));  // recv-from-self
      }),
      std::invalid_argument);
  EXPECT_THROW(
      mp::World(2).run([](mp::Context& ctx) {
        if (ctx.rank() == 0) static_cast<void>(ctx.recv(-1, 1));  // src out of range
      }),
      std::invalid_argument);
}

TEST(MessagePassing, RunOnAbortedWorldStartsFromAnEmptyTransport) {
  // Rank 0's frame is queued before rank 1 throws without receiving it. The
  // next run on the same world, with no call in between, must see only its
  // own frame: a run starts from an empty transport and a cleared abort flag.
  mp::World world(2);
  EXPECT_THROW(world.run([](mp::Context& ctx) {
                 if (ctx.rank() == 0) ctx.send(1, 7, {1.0});
                 ctx.barrier();
                 if (ctx.rank() == 1) throw std::runtime_error("rank 1 fails");
               }),
               std::runtime_error);
  ASSERT_TRUE(world.aborted());
  std::vector<double> got;
  world.run([&got](mp::Context& ctx) {
    if (ctx.rank() == 0) ctx.send(1, 7, {2.0});
    if (ctx.rank() == 1) got = ctx.recv(0, 7);
  });
  EXPECT_FALSE(world.aborted());
  EXPECT_EQ(got, std::vector<double>{2.0});
}

TEST(MessagePassing, CompletedRunCountsFramesLeftQueued) {
  // Every frame is delivered twice and rank 1 receives each once: two stale
  // copies are suppressed by recv, and the last one is still queued when the
  // run completes, so run() counts it. The second run starts from sequence
  // number 0 again, with no copy of the first run's frames.
  mp::World world(2);
  mp::FaultPlan plan;
  plan.duplicate_prob = 1.0;
  world.set_fault_plan(plan);
  const auto program = [](mp::Context& ctx) {
    for (int k = 0; k < 3; ++k) {
      const std::vector<double> frame = {static_cast<double>(k)};
      if (ctx.rank() == 0) {
        ctx.send(1, 7, frame);
      } else {
        EXPECT_EQ(ctx.recv(0, 7), frame);
      }
    }
  };
  for (std::size_t run = 1; run <= 2; ++run) {
    world.run(program);
    const mp::RecoveryStats stats = world.recovery_stats();
    EXPECT_EQ(stats.duplicates_injected, 3 * run);
    EXPECT_EQ(stats.duplicates_suppressed, 3 * run);
    EXPECT_EQ(stats.retries, 0u);
  }
}

using Param = std::tuple<std::string, int>;

class SpmdAcrossOrderings : public ::testing::TestWithParam<Param> {};

TEST_P(SpmdAcrossOrderings, BitwiseMatchesSerialEngine) {
  const auto& [name, n] = GetParam();
  const auto ord = make_ordering(name);
  if (!ord->supports(n)) GTEST_SKIP();
  Rng rng(321);
  const Matrix a = random_gaussian(static_cast<std::size_t>(n + 8), static_cast<std::size_t>(n),
                                   rng);
  SpmdStats stats;
  const SvdResult spmd = spmd_jacobi(a, *ord, {}, &stats);
  const SvdResult serial = one_sided_jacobi(a, *ord);
  ASSERT_TRUE(spmd.converged);
  EXPECT_EQ(spmd.sweeps, serial.sweeps);
  EXPECT_EQ(spmd.rotations, serial.rotations);
  EXPECT_EQ(spmd.swaps, serial.swaps);
  for (std::size_t k = 0; k < serial.sigma.size(); ++k)
    EXPECT_EQ(spmd.sigma[k], serial.sigma[k]);
  EXPECT_EQ(spmd.u, serial.u);
  EXPECT_EQ(spmd.v, serial.v);
  EXPECT_GT(stats.messages, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Orderings, SpmdAcrossOrderings,
    ::testing::Combine(::testing::Values("round-robin", "odd-even", "fat-tree", "llb-fat-tree",
                                         "new-ring", "modified-ring", "hybrid-g2", "hybrid-g4"),
                       ::testing::Values(8, 16, 32)),
    [](const ::testing::TestParamInfo<Param>& param_info) {
      std::string name = std::get<0>(param_info.param) + "_n" + std::to_string(std::get<1>(param_info.param));
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(Spmd, MessageCountMatchesSchedule) {
  // Every inter-leaf move of every executed sweep is exactly one message:
  // the engine sends what the abstract cost model prices for the same
  // sweeps, for every registered ordering.
  Rng rng(322);
  const int n = 16;
  const Matrix a = random_gaussian(24, static_cast<std::size_t>(n), rng);
  const FatTreeTopology topo(n / 2, CapacityProfile::kCm5);
  int checked = 0;
  for (const std::string& name : ordering_names({2, 4})) {
    const auto ord = make_ordering(name);
    if (!ord->supports(n)) continue;
    SCOPED_TRACE(name);
    SpmdStats stats;
    const SvdResult r = spmd_jacobi(a, *ord, {}, &stats);
    ASSERT_TRUE(r.converged);
    EXPECT_EQ(stats.messages,
              model_run(*ord, topo, n, CostParams{}, r.sweeps).per_sweep_total.messages);
    ++checked;
  }
  EXPECT_GE(checked, 8);
}

TEST(Spmd, PaddedWidthStillWorks) {
  Rng rng(323);
  const Matrix a = random_gaussian(14, 6, rng);  // fat-tree pads 6 -> 8
  const SvdResult r = spmd_jacobi(a, *make_ordering("fat-tree"));
  ASSERT_TRUE(r.converged);
  EXPECT_LT(reconstruction_error(a, r.u, r.sigma, r.v) / a.frobenius_norm(), 1e-12);
}

}  // namespace
}  // namespace treesvd
