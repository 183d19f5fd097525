// Chaos tolerance: a deterministic rank kill against the SPMD Jacobi. The
// central contract: sweep-checkpoint recovery makes a run whose rank is
// killed mid-sweep *bit-identical* to the fault-free one, with exactly
// reproducible RecoveryStats across repeated runs.
#include <gtest/gtest.h>

#include "core/registry.hpp"
#include "linalg/generators.hpp"
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

TEST(SpmdChaos, SurvivingPlanIsBitIdenticalToFaultFree) {
  Rng rng(901);
  const Matrix a = random_gaussian(12, 8, rng);
  const auto ord = make_ordering("new-ring");
  const SvdResult baseline = spmd_jacobi(a, *ord);

  // Rank 2 dies at its 32nd transport op, mid-sweep.
  SpmdTransport t;
  t.faults.kill_rank = 2;
  t.faults.kill_at_op = 31;
  mp::RecoveryStats first_stats;
  for (int run = 0; run < 3; ++run) {
    SpmdStats stats;
    const SvdResult r = spmd_jacobi(a, *ord, {}, &stats, &t);
    expect_bit_identical(r, baseline);
    if (run == 0) {
      first_stats = stats.recovery;
      // The kill fired, and a rollback to a committed checkpoint replayed
      // past it.
      EXPECT_EQ(stats.recovery.kills, 1u);
      EXPECT_GE(stats.recovery.rollbacks, 1u);
      EXPECT_GT(stats.recovery.checkpoints, 0u);
    } else {
      // Same plan => exactly the same counters, bit for bit.
      EXPECT_TRUE(stats.recovery == first_stats);
    }
  }
}

TEST(SpmdChaos, CheckpointsAloneAreTransparent) {
  // The default transport: no fault plan, so only the sweep checkpoints
  // run.
  Rng rng(902);
  const Matrix a = random_gaussian(14, 8, rng);
  const auto ord = make_ordering("fat-tree");
  const SvdResult baseline = spmd_jacobi(a, *ord);
  const SpmdTransport t;
  SpmdStats stats;
  const SvdResult r = spmd_jacobi(a, *ord, {}, &stats, &t);
  expect_bit_identical(r, baseline);
  EXPECT_EQ(stats.recovery.kills, 0u);
  EXPECT_EQ(stats.recovery.rollbacks, 0u);
  EXPECT_GT(stats.recovery.checkpoints, 0u);  // a transport turns checkpoints on
}

}  // namespace
}  // namespace treesvd
