// Chaos tolerance: deterministic fault injection against the SPMD Jacobi
// and the distributed tree machine. The central contract (the ISSUE's
// acceptance bar): under a seeded plan mixing drops, duplicates, corruption
// and a rank kill, the reliable transport + sweep-checkpoint recovery make
// the run *bit-identical* to the fault-free one, with exactly reproducible
// RecoveryStats across repeated runs.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/registry.hpp"
#include "linalg/generators.hpp"
#include "sim/distributed.hpp"
#include "svd/spmd.hpp"

namespace treesvd {
namespace {

void expect_bit_identical(const SvdResult& got, const SvdResult& want) {
  EXPECT_EQ(got.sweeps, want.sweeps);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(got.rotations, want.rotations);
  EXPECT_EQ(got.swaps, want.swaps);
  ASSERT_EQ(got.sigma.size(), want.sigma.size());
  for (std::size_t k = 0; k < want.sigma.size(); ++k) EXPECT_EQ(got.sigma[k], want.sigma[k]);
  EXPECT_EQ(got.u, want.u);
  EXPECT_EQ(got.v, want.v);
  EXPECT_EQ(got.kernel_stats.pairs, want.kernel_stats.pairs);
  EXPECT_EQ(got.kernel_stats.dot_passes, want.kernel_stats.dot_passes);
  EXPECT_EQ(got.kernel_stats.gram_passes, want.kernel_stats.gram_passes);
  EXPECT_EQ(got.kernel_stats.rotate_passes, want.kernel_stats.rotate_passes);
  EXPECT_EQ(got.kernel_stats.norm_refreshes, want.kernel_stats.norm_refreshes);
}

/// The acceptance plan: >=10% drops plus duplication, corruption and one
/// rank kill, all from one seed.
SpmdTransport acceptance_transport() {
  SpmdTransport t;
  t.reliable.enabled = true;
  t.faults.enabled = true;
  t.faults.seed = 42;
  t.faults.drop_prob = 0.12;
  t.faults.duplicate_prob = 0.08;
  t.faults.corrupt_prob = 0.06;
  t.faults.delay_prob = 0.04;
  t.faults.kill_rank = 2;
  t.faults.kill_at_op = 31;
  t.recovery.checkpoint_sweeps = 1;
  t.recovery.max_rollbacks = 8;
  return t;
}

TEST(SpmdChaos, SurvivingPlanIsBitIdenticalToFaultFree) {
  Rng rng(901);
  const Matrix a = random_gaussian(12, 8, rng);
  const auto ord = make_ordering("new-ring");
  const SvdResult baseline = spmd_jacobi(a, *ord);

  const SpmdTransport t = acceptance_transport();
  mp::RecoveryStats first_stats;
  for (int run = 0; run < 3; ++run) {
    SpmdStats stats;
    const SvdResult r = spmd_jacobi(a, *ord, {}, &stats, &t);
    expect_bit_identical(r, baseline);
    if (run == 0) {
      first_stats = stats.recovery;
      // The plan actually bit: every fault class fired and was recovered.
      EXPECT_GT(stats.recovery.drops_seen, 0u);
      EXPECT_GT(stats.recovery.duplicates_injected, 0u);
      EXPECT_GE(stats.recovery.corruptions_injected, 1u);
      EXPECT_GE(stats.recovery.corruptions_detected, 1u);
      EXPECT_GT(stats.recovery.retries, 0u);
      EXPECT_GT(stats.recovery.resends, 0u);
      EXPECT_GT(stats.recovery.virtual_backoff, 0.0);
      EXPECT_EQ(stats.recovery.kills, 1u);
      EXPECT_GE(stats.recovery.rollbacks, 1u);
      EXPECT_GT(stats.recovery.checkpoints, 0u);
      EXPECT_GT(stats.recovery.duplicates_suppressed, 0u);
    } else {
      // Same seed => exactly the same counters, bit for bit.
      EXPECT_TRUE(stats.recovery == first_stats);
    }
  }
}

TEST(SpmdChaos, ReliableTransportAloneIsTransparent) {
  Rng rng(902);
  const Matrix a = random_gaussian(14, 8, rng);
  const auto ord = make_ordering("fat-tree");
  const SvdResult baseline = spmd_jacobi(a, *ord);
  SpmdTransport t;
  t.reliable.enabled = true;
  SpmdStats stats;
  const SvdResult r = spmd_jacobi(a, *ord, {}, &stats, &t);
  expect_bit_identical(r, baseline);
  EXPECT_EQ(stats.recovery.drops_seen, 0u);
  EXPECT_EQ(stats.recovery.retries, 0u);
  EXPECT_EQ(stats.recovery.rollbacks, 0u);
  EXPECT_GT(stats.recovery.checkpoints, 0u);  // checkpointing defaults on
}

TEST(SpmdChaos, MessageFaultsAloneAreBitIdentical) {
  // No kill: exercises the pure transport story (drop/dup/corrupt/delay)
  // without any rollback.
  Rng rng(903);
  const Matrix a = random_gaussian(12, 8, rng);
  const auto ord = make_ordering("round-robin");
  const SvdResult baseline = spmd_jacobi(a, *ord);
  SpmdTransport t;
  t.reliable.enabled = true;
  t.faults.enabled = true;
  t.faults.seed = 7;
  t.faults.drop_prob = 0.15;
  t.faults.duplicate_prob = 0.1;
  t.faults.corrupt_prob = 0.08;
  SpmdStats stats;
  const SvdResult r = spmd_jacobi(a, *ord, {}, &stats, &t);
  expect_bit_identical(r, baseline);
  EXPECT_EQ(stats.recovery.kills, 0u);
  EXPECT_EQ(stats.recovery.rollbacks, 0u);
  EXPECT_GT(stats.recovery.drops_seen, 0u);
}

TEST(SpmdChaos, KillWithoutCheckpointingIsFatal) {
  Rng rng(904);
  const Matrix a = random_gaussian(12, 8, rng);
  SpmdTransport t;
  t.faults.enabled = true;
  t.faults.kill_rank = 1;
  t.faults.kill_at_op = 5;
  t.recovery.checkpoint_sweeps = 0;  // recovery disabled
  EXPECT_THROW(spmd_jacobi(a, *make_ordering("new-ring"), {}, nullptr, &t),
               mp::RankKilledError);
}

TEST(SpmdChaos, RetryBudgetExhaustionThrowsTransportError) {
  Rng rng(905);
  const Matrix a = random_gaussian(12, 8, rng);
  SpmdTransport t;
  t.reliable.enabled = true;
  t.reliable.max_retries = 2;
  t.faults.enabled = true;
  t.faults.drop_prob = 1.0;         // every first transmission lost
  t.faults.resend_drop_prob = 1.0;  // every retransmission lost too
  EXPECT_THROW(spmd_jacobi(a, *make_ordering("new-ring"), {}, nullptr, &t), mp::TransportError);
}

TEST(DistributedChaosTest, KillRollbackReplayIsBitIdentical) {
  Rng rng(907);
  const Matrix a = random_gaussian(16, 8, rng);
  const auto ord = make_ordering("fat-tree");
  const FatTreeTopology topo(4, CapacityProfile::kCm5);
  const DistributedResult baseline = distributed_jacobi(a, *ord, topo);

  DistributedChaos chaos;
  chaos.faults.enabled = true;
  chaos.faults.kill_rank = 1;
  chaos.faults.kill_at_op = 9;
  const DistributedResult r = distributed_jacobi(a, *ord, topo, {}, {}, &chaos);
  expect_bit_identical(r.svd, baseline.svd);
  // The machine costs replay identically too (the checkpoint restores them).
  EXPECT_EQ(r.cost.total_time, baseline.cost.total_time);
  EXPECT_EQ(r.cost.comm_words, baseline.cost.comm_words);
  EXPECT_EQ(r.delivered_messages, baseline.delivered_messages);
  EXPECT_EQ(r.delivered_words, baseline.delivered_words);
  EXPECT_EQ(r.recovery.kills, 1u);
  EXPECT_EQ(r.recovery.rollbacks, 1u);
  EXPECT_GT(r.recovery.checkpoints, 0u);
}

TEST(DistributedChaosTest, KillWithoutCheckpointingIsFatal) {
  Rng rng(909);
  const Matrix a = random_gaussian(16, 8, rng);
  const FatTreeTopology topo(4, CapacityProfile::kCm5);
  DistributedChaos chaos;
  chaos.faults.enabled = true;
  chaos.faults.kill_rank = 0;
  chaos.faults.kill_at_op = 3;
  chaos.recovery.checkpoint_sweeps = 0;
  EXPECT_THROW(distributed_jacobi(a, *make_ordering("fat-tree"), topo, {}, {}, &chaos),
               mp::RankKilledError);
}

TEST(DistributedChaosTest, RejectsFaultsNeedingRealTransport) {
  Rng rng(910);
  const Matrix a = random_gaussian(16, 8, rng);
  const FatTreeTopology topo(4, CapacityProfile::kCm5);
  DistributedChaos chaos;
  chaos.faults.enabled = true;
  chaos.faults.drop_prob = 0.1;
  EXPECT_THROW(distributed_jacobi(a, *make_ordering("fat-tree"), topo, {}, {}, &chaos),
               std::invalid_argument);
  chaos.faults.drop_prob = 0.0;
  chaos.faults.corrupt_prob = 0.3;  // corruption needs the real transport too
  EXPECT_THROW(distributed_jacobi(a, *make_ordering("fat-tree"), topo, {}, {}, &chaos),
               std::invalid_argument);
  chaos.faults.corrupt_prob = 0.0;
  chaos.faults.stall_rank = 1;
  EXPECT_THROW(distributed_jacobi(a, *make_ordering("fat-tree"), topo, {}, {}, &chaos),
               std::invalid_argument);
  chaos.faults.stall_rank = -1;
  chaos.faults.kill_rank = 99;  // out of range for 4 leaves
  EXPECT_THROW(distributed_jacobi(a, *make_ordering("fat-tree"), topo, {}, {}, &chaos),
               std::invalid_argument);
}

TEST(SpmdChaos, StallIsHarmlessAndCounted) {
  Rng rng(911);
  const Matrix a = random_gaussian(12, 8, rng);
  const auto ord = make_ordering("new-ring");
  const SvdResult baseline = spmd_jacobi(a, *ord);
  SpmdTransport t;
  t.faults.enabled = true;
  t.faults.stall_rank = 0;
  t.faults.stall_at_op = 4;
  t.faults.stall_micros = 500;
  SpmdStats stats;
  const SvdResult r = spmd_jacobi(a, *ord, {}, &stats, &t);
  expect_bit_identical(r, baseline);
  EXPECT_EQ(stats.recovery.stalls, 1u);
}

}  // namespace
}  // namespace treesvd
