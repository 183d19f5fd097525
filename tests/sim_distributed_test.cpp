// Distributed machine: physical column ownership, message-based movement,
// and bitwise agreement with the shared-memory engine.
#include <gtest/gtest.h>

#include <tuple>

#include "core/registry.hpp"
#include "linalg/generators.hpp"
#include "sim/distributed.hpp"
#include "sim/machine.hpp"

namespace treesvd {
namespace {

using Param = std::tuple<std::string, int>;

class DistributedAcrossOrderings : public ::testing::TestWithParam<Param> {};

TEST_P(DistributedAcrossOrderings, BitwiseMatchesSharedMemoryEngine) {
  const auto& [name, n] = GetParam();
  const auto ord = make_ordering(name);
  if (!ord->supports(n)) GTEST_SKIP();
  Rng rng(99);
  const Matrix a = random_gaussian(static_cast<std::size_t>(2 * n), static_cast<std::size_t>(n),
                                   rng);
  const FatTreeTopology topo(n / 2, CapacityProfile::kCm5);
  const DistributedResult d = distributed_jacobi(a, *ord, topo);
  const SvdResult shared = one_sided_jacobi(a, *ord);

  ASSERT_TRUE(d.svd.converged);
  EXPECT_EQ(d.svd.sweeps, shared.sweeps);
  EXPECT_EQ(d.svd.rotations, shared.rotations);
  EXPECT_EQ(d.svd.swaps, shared.swaps);
  ASSERT_EQ(d.svd.sigma.size(), shared.sigma.size());
  for (std::size_t k = 0; k < shared.sigma.size(); ++k)
    EXPECT_EQ(d.svd.sigma[k], shared.sigma[k]) << "k=" << k;
  EXPECT_EQ(d.svd.u, shared.u);
  EXPECT_EQ(d.svd.v, shared.v);
}

INSTANTIATE_TEST_SUITE_P(
    Orderings, DistributedAcrossOrderings,
    ::testing::Combine(::testing::Values("round-robin", "odd-even", "fat-tree", "llb-fat-tree",
                                         "new-ring", "modified-ring", "hybrid-g4"),
                       ::testing::Values(16, 32)),
    [](const ::testing::TestParamInfo<Param>& param_info) {
      std::string name =
          std::get<0>(param_info.param) + "_n" + std::to_string(std::get<1>(param_info.param));
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(Distributed, FactorisationAccurate) {
  Rng rng(100);
  const Matrix a = with_spectrum(64, 32, geometric_spectrum(32, 1e4), rng);
  const FatTreeTopology topo(16, CapacityProfile::kPerfect);
  const DistributedResult d = distributed_jacobi(a, *make_ordering("fat-tree"), topo);
  ASSERT_TRUE(d.svd.converged);
  EXPECT_LT(reconstruction_error(a, d.svd.u, d.svd.sigma, d.svd.v) / a.frobenius_norm(), 1e-12);
  EXPECT_LT(orthonormality_defect(d.svd.v), 1e-12);
}

TEST(Distributed, CostMatchesTheAbstractModel) {
  // The distributed execution must incur exactly the communication the
  // abstract model predicts for the same number of sweeps.
  Rng rng(101);
  const int n = 16;
  const Matrix a = random_gaussian(32, static_cast<std::size_t>(n), rng);
  const FatTreeTopology topo(n / 2, CapacityProfile::kCm5);
  const auto ord = make_ordering("hybrid-g4");
  const DistributedResult d = distributed_jacobi(a, *ord, topo);
  const ModeledRun m = model_run(*ord, topo, n, CostParams{}, d.svd.sweeps);
  EXPECT_DOUBLE_EQ(d.cost.comm_words, m.per_sweep_total.comm_words);
  EXPECT_EQ(d.cost.messages, m.per_sweep_total.messages);
  EXPECT_DOUBLE_EQ(d.cost.comm_time, m.per_sweep_total.comm_time);
  EXPECT_DOUBLE_EQ(d.cost.max_contention, m.per_sweep_total.max_contention);
}

TEST(Distributed, RejectsUnsupportedConfigurations) {
  Rng rng(102);
  const Matrix a = random_gaussian(12, 6, rng);
  const FatTreeTopology topo3(2, CapacityProfile::kPerfect);
  // fat-tree needs a power of two and the machine does not pad
  EXPECT_THROW(distributed_jacobi(a, *make_ordering("fat-tree"), topo3),
               std::invalid_argument);
  // topology size mismatch
  const Matrix b = random_gaussian(16, 8, rng);
  const FatTreeTopology topo2(2, CapacityProfile::kPerfect);
  EXPECT_THROW(distributed_jacobi(b, *make_ordering("fat-tree"), topo2),
               std::invalid_argument);
}

TEST(Distributed, DeliveredTrafficIsCounted) {
  Rng rng(103);
  const int n = 16;
  const Matrix a = random_gaussian(20, static_cast<std::size_t>(n), rng);
  const FatTreeTopology topo(n / 2, CapacityProfile::kConstant);
  CostParams p;
  p.words_per_column = 20.0;
  const DistributedResult d =
      distributed_jacobi(a, *make_ordering("round-robin"), topo, JacobiOptions{}, p);
  EXPECT_GT(d.cost.messages, 0u);
  EXPECT_DOUBLE_EQ(d.cost.comm_words, static_cast<double>(d.cost.messages) * 20.0);
}

TEST(Distributed, RankDeficientInput) {
  Rng rng(104);
  const Matrix a = rank_deficient(32, 16, 5, rng);
  const FatTreeTopology topo(8, CapacityProfile::kPerfect);
  const DistributedResult d = distributed_jacobi(a, *make_ordering("new-ring"), topo);
  ASSERT_TRUE(d.svd.converged);
  EXPECT_EQ(d.svd.rank(1e-9), 5u);
}

}  // namespace
}  // namespace treesvd
