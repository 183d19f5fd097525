// Block one-sided Jacobi and the QR-preconditioned path.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/registry.hpp"
#include "engines.hpp"
#include "linalg/generators.hpp"
#include "linalg/golub_kahan.hpp"
#include "svd/block_jacobi.hpp"
#include "svd/preconditioned.hpp"

namespace treesvd {
namespace {

using Param = std::tuple<std::string, int>;  // ordering, block width

class BlockJacobi : public ::testing::TestWithParam<Param> {};

TEST_P(BlockJacobi, FactorisationAccurateAndSorted) {
  const auto& [name, width] = GetParam();
  Rng rng(808);
  const Matrix a = random_gaussian(64, 32, rng);
  BlockJacobiOptions opt;
  opt.block_width = width;
  const SvdResult r = block_one_sided_jacobi(a, *make_ordering(name), opt);
  ASSERT_TRUE(r.converged) << name << " b=" << width;
  EXPECT_LT(reconstruction_error(a, r.u, r.sigma, r.v) / a.frobenius_norm(), 1e-11);
  EXPECT_LT(orthonormality_defect(r.v), 1e-11);
  for (std::size_t k = 1; k < r.sigma.size(); ++k)
    EXPECT_GE(r.sigma[k - 1], r.sigma[k] - 1e-10);
  const auto sv = golub_kahan_singular_values(a);
  for (std::size_t k = 0; k < sv.size(); ++k) EXPECT_NEAR(r.sigma[k], sv[k], 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    OrderingsTimesWidths, BlockJacobi,
    ::testing::Combine(::testing::Values("round-robin", "fat-tree", "new-ring", "hybrid-g2"),
                       ::testing::Values(2, 4, 8)),
    [](const ::testing::TestParamInfo<Param>& param_info) {
      std::string name = std::get<0>(param_info.param) + "_b" + std::to_string(std::get<1>(param_info.param));
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(BlockJacobiExtra, FewerOuterSweepsThanElementwise) {
  Rng rng(809);
  const Matrix a = random_gaussian(96, 48, rng);
  const auto ord = make_ordering("round-robin");
  BlockJacobiOptions opt;
  opt.block_width = 8;
  const SvdResult blocked = block_one_sided_jacobi(a, *ord, opt);
  const SvdResult plain = one_sided_jacobi(a, *ord);
  ASSERT_TRUE(blocked.converged);
  ASSERT_TRUE(plain.converged);
  EXPECT_LT(blocked.sweeps, plain.sweeps);
}

TEST(BlockJacobiExtra, WidthOneMatchesElementwiseBehaviour) {
  Rng rng(810);
  const Matrix a = random_gaussian(24, 16, rng);
  BlockJacobiOptions opt;
  opt.block_width = 1;
  const SvdResult r = block_one_sided_jacobi(a, *make_ordering("round-robin"), opt);
  ASSERT_TRUE(r.converged);
  const auto sv = golub_kahan_singular_values(a);
  for (std::size_t k = 0; k < sv.size(); ++k) EXPECT_NEAR(r.sigma[k], sv[k], 1e-8);
}

TEST(BlockJacobiExtra, NonDividingWidthPadsCleanly) {
  Rng rng(811);
  const Matrix a = random_gaussian(30, 18, rng);  // 18 cols, width 4 -> 5 blocks -> pad
  BlockJacobiOptions opt;
  opt.block_width = 4;
  const SvdResult r = block_one_sided_jacobi(a, *make_ordering("round-robin"), opt);
  ASSERT_TRUE(r.converged);
  ASSERT_EQ(r.sigma.size(), 18u);
  EXPECT_LT(reconstruction_error(a, r.u, r.sigma, r.v) / a.frobenius_norm(), 1e-11);
}

TEST(BlockJacobiExtra, RankDeficient) {
  Rng rng(812);
  const Matrix a = rank_deficient(40, 16, 6, rng);
  BlockJacobiOptions opt;
  opt.block_width = 4;
  const SvdResult r = block_one_sided_jacobi(a, *make_ordering("fat-tree"), opt);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.rank(1e-9), 6u);
}

TEST(BlockJacobiExtra, RejectsBadOptions) {
  Rng rng(813);
  const Matrix a = random_gaussian(8, 4, rng);
  BlockJacobiOptions opt;
  opt.block_width = 0;
  EXPECT_THROW(block_one_sided_jacobi(a, *make_ordering("round-robin"), opt),
               std::invalid_argument);
}

TEST(BlockJacobiGram, AgreesWithElementwiseAcrossAllOrderings) {
  // The Gram block driver and the elementwise serial engine must agree on
  // the factorisation to numerical tolerance on every registered ordering.
  Rng rng(820);
  const Matrix a = random_gaussian(96, 32, rng);
  const auto oracle = golub_kahan_singular_values(a);
  for (const auto& name : ordering_names({2, 4})) {
    const auto ord = make_ordering(name);
    BlockJacobiOptions gram;
    gram.block_width = 4;
    const SvdResult rg = block_one_sided_jacobi(a, *ord, gram);
    const SvdResult re = one_sided_jacobi(a, *ord);
    ASSERT_TRUE(rg.converged) << name;
    ASSERT_TRUE(re.converged) << name;
    const double smax = oracle[0];
    for (std::size_t k = 0; k < oracle.size(); ++k) {
      EXPECT_NEAR(rg.sigma[k], re.sigma[k], 1e-10 * smax) << name << " sigma[" << k << "]";
      EXPECT_NEAR(rg.sigma[k], oracle[k], 1e-8 * smax) << name << " sigma[" << k << "]";
    }
    // Same order of magnitude on the quality measures.
    const double dg = orthonormality_defect(rg.v);
    const double de = orthonormality_defect(re.v);
    EXPECT_LT(dg, 1e-11) << name;
    EXPECT_LT(de, 1e-11) << name;
    EXPECT_LT(reconstruction_error(a, rg.u, rg.sigma, rg.v) / a.frobenius_norm(), 1e-11) << name;
  }
}

TEST(BlockJacobiGram, CountersShowOneGramOnePairOfAppliesPerEncounter) {
  // The one-GEMM-per-encounter contract, via the kernel_stats counters: no
  // pair kernels run at all under kGram, every encounter builds exactly one
  // Gram matrix, and at most one blocked apply per panel (H and V) follows.
  Rng rng(821);
  const Matrix a = random_gaussian(80, 32, rng);
  BlockJacobiOptions opt;
  opt.block_width = 8;
  const SvdResult r = block_one_sided_jacobi(a, *make_ordering("round-robin"), opt);
  ASSERT_TRUE(r.converged);
  const KernelStats& ks = r.kernel_stats;
  EXPECT_EQ(ks.pairs, 0u);
  EXPECT_EQ(ks.dot_passes, 0u);
  EXPECT_EQ(ks.gram_passes, 0u);
  EXPECT_EQ(ks.rotate_passes, 0u);
  EXPECT_GT(ks.gram_builds, 0u);
  EXPECT_EQ(ks.accum_rotations, r.rotations);
  // compute_v: one H apply + one V apply per non-clean encounter, none for
  // clean ones — so an even count bounded by twice the builds.
  EXPECT_EQ(ks.blocked_applies % 2, 0u);
  EXPECT_LE(ks.blocked_applies, 2 * ks.gram_builds);
  EXPECT_GT(ks.blocked_applies, 0u);
  // Encounters per outer sweep are fixed by the ordering: nb/2 pairs per
  // step, nb-1 steps for round-robin over nb = 4 blocks.
  EXPECT_EQ(ks.gram_builds % 6, 0u);

  BlockJacobiOptions no_v = opt;
  no_v.compute_v = false;
  const SvdResult rn = block_one_sided_jacobi(a, *make_ordering("round-robin"), no_v);
  EXPECT_LE(rn.kernel_stats.blocked_applies, rn.kernel_stats.gram_builds);
}

TEST(PairKernel, EveryEngineMakesOneGramPassPerPair) {
  // Every column engine handles a column pair the same way: one fresh
  // gram_pair pass, then the decision, then the rotation. No engine keeps
  // column norms, so no dot pass or norm re-reduction is ever counted.
  // The bitwise-serial entries of the engine table are the pair-kernel
  // engines.
  Rng rng(103);
  const Matrix a = random_gaussian(32, 16, rng);
  const auto ord = make_ordering("round-robin");
  for (const EngineEntry& e : kEngines) {
    if (!e.bitwise_serial) continue;
    const KernelStats ks = e.solve(a, *ord, {}, 3).kernel_stats;
    EXPECT_GT(ks.pairs, 0u) << e.name;
    EXPECT_EQ(ks.gram_passes, ks.pairs) << e.name;
    EXPECT_EQ(ks.dot_passes, 0u) << e.name;
    EXPECT_EQ(ks.norm_refreshes, 0u) << e.name;
  }
}

TEST(BlockJacobiBlockCount, NonPowerOfTwoAndPaddedWidthsConverge) {
  // Regression for the block-count search: widths that do not divide n and
  // orderings that only support particular counts (fat-tree: powers of two)
  // must land on a supported count within the documented bound and still
  // produce the right factorisation.
  Rng rng(824);
  for (const auto& [n, width] : std::vector<std::pair<std::size_t, int>>{
           {18, 4}, {18, 16}, {19, 5}, {10, 3}, {33, 8}}) {
    const Matrix a = random_gaussian(2 * n + 5, n, rng);
    const auto oracle = golub_kahan_singular_values(a);
    for (const char* name : {"round-robin", "fat-tree", "new-ring", "hybrid-g2"}) {
      BlockJacobiOptions opt;
      opt.block_width = width;
      const SvdResult r = block_one_sided_jacobi(a, *make_ordering(name), opt);
      ASSERT_TRUE(r.converged) << name << " n=" << n << " b=" << width;
      ASSERT_EQ(r.sigma.size(), n);
      for (std::size_t k = 0; k < oracle.size(); ++k)
        EXPECT_NEAR(r.sigma[k], oracle[k], 1e-7 * (1.0 + oracle[0])) << name;
    }
  }
}

TEST(BlockJacobiBlockCount, UnsupportableCountThrowsWithPreciseRange) {
  // hybrid-g16 needs a block count divisible into 16 groups; with n=8, b=4
  // the search range [2, 8] holds no supported count. The error must name
  // the ordering, the searched range, and the offending parameters.
  Rng rng(825);
  const Matrix a = random_gaussian(16, 8, rng);
  BlockJacobiOptions opt;
  opt.block_width = 4;
  try {
    block_one_sided_jacobi(a, *make_ordering("hybrid-g16"), opt);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("supports no block count in [2, 8]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("n=8"), std::string::npos) << msg;
    EXPECT_NE(msg.find("block_width=4"), std::string::npos) << msg;
  }
}

TEST(Preconditioned, MatchesDirectJacobi) {
  Rng rng(814);
  const Matrix a = random_gaussian(200, 24, rng);
  const auto ord = make_ordering("fat-tree");
  const SvdResult direct = one_sided_jacobi(a, *ord);
  const SvdResult pre = qr_preconditioned_jacobi(a, *ord);
  ASSERT_TRUE(pre.converged);
  for (std::size_t k = 0; k < direct.sigma.size(); ++k)
    EXPECT_NEAR(pre.sigma[k], direct.sigma[k], 1e-9);
  EXPECT_LT(reconstruction_error(a, pre.u, pre.sigma, pre.v) / a.frobenius_norm(), 1e-12);
  EXPECT_LT(orthonormality_defect(pre.u), 1e-10);
}

TEST(Preconditioned, TallAndSkinny) {
  Rng rng(815);
  const Matrix a = with_spectrum(500, 12, geometric_spectrum(12, 1e5), rng);
  const SvdResult r = qr_preconditioned_jacobi(a, *make_ordering("new-ring"));
  ASSERT_TRUE(r.converged);
  const auto sv = golub_kahan_singular_values(a);
  for (std::size_t k = 0; k < sv.size(); ++k)
    EXPECT_NEAR(r.sigma[k], sv[k], 1e-7 * sv[0]);
}

TEST(Preconditioned, RankDeficientTall) {
  Rng rng(816);
  const Matrix a = rank_deficient(120, 16, 4, rng);
  const SvdResult r = qr_preconditioned_jacobi(a, *make_ordering("round-robin"));
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.rank(1e-9), 4u);
  EXPECT_LT(reconstruction_error(a, r.u, r.sigma, r.v) / a.frobenius_norm(), 1e-11);
}

}  // namespace
}  // namespace treesvd
