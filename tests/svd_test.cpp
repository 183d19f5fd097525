// One-sided Jacobi SVD: correctness across orderings and matrix families.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "core/registry.hpp"
#include "linalg/generators.hpp"
#include "linalg/golub_kahan.hpp"
#include "svd/jacobi.hpp"
#include "util/thread_pool.hpp"

namespace treesvd {
namespace {

struct Family {
  const char* name;
  Matrix (*make)(Rng&);
};

Matrix make_square(Rng& rng) { return random_gaussian(32, 32, rng); }
Matrix make_tall(Rng& rng) { return random_gaussian(80, 24, rng); }
Matrix make_graded(Rng& rng) {
  return with_spectrum(40, 16, geometric_spectrum(16, 1e6), rng);
}
Matrix make_lowrank(Rng& rng) { return rank_deficient(30, 16, 5, rng); }
Matrix make_repeated(Rng& rng) {
  std::vector<double> s = {3, 3, 3, 2, 2, 1, 1, 1};
  return with_spectrum(20, 8, s, rng);
}

const Family kFamilies[] = {
    {"square", make_square}, {"tall", make_tall},         {"graded", make_graded},
    {"lowrank", make_lowrank}, {"repeated", make_repeated},
};

using Param = std::tuple<std::string, int>;  // ordering name, family id

class SvdAcrossOrderings : public ::testing::TestWithParam<Param> {};

TEST_P(SvdAcrossOrderings, FactorisationIsAccurate) {
  Rng rng(1234);
  const auto& fam = kFamilies[static_cast<std::size_t>(std::get<1>(GetParam()))];
  const Matrix a = fam.make(rng);
  const auto ord = make_ordering(std::get<0>(GetParam()));
  const SvdResult r = one_sided_jacobi(a, *ord);
  ASSERT_TRUE(r.converged) << "did not converge in max_sweeps";
  const double scale = std::max(a.frobenius_norm(), 1.0);
  EXPECT_LT(reconstruction_error(a, r.u, r.sigma, r.v) / scale, 1e-12);
  EXPECT_LT(orthonormality_defect(r.v), 1e-12);
  // Sorted singular values.
  for (std::size_t k = 1; k < r.sigma.size(); ++k)
    EXPECT_GE(r.sigma[k - 1], r.sigma[k] - 1e-12 * scale);
  // Against the independent oracle.
  const auto sv = golub_kahan_singular_values(a);
  for (std::size_t k = 0; k < sv.size(); ++k)
    EXPECT_NEAR(r.sigma[k], sv[k], 1e-7 * scale) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    OrderingsTimesFamilies, SvdAcrossOrderings,
    ::testing::Combine(::testing::Values("round-robin", "odd-even", "fat-tree", "llb-fat-tree",
                                         "new-ring", "modified-ring", "hybrid-g4"),
                       ::testing::Values(0, 1, 2, 3, 4)),
    [](const ::testing::TestParamInfo<Param>& param_info) {
      std::string name = std::get<0>(param_info.param) + std::string("_") +
                         kFamilies[static_cast<std::size_t>(std::get<1>(param_info.param))].name;
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(Svd, PaddingHandlesUnsupportedWidths) {
  // n = 6 with the fat-tree ordering pads to 8 internally.
  Rng rng(7);
  const Matrix a = random_gaussian(12, 6, rng);
  const SvdResult r = one_sided_jacobi(a, *make_ordering("fat-tree"));
  ASSERT_TRUE(r.converged);
  ASSERT_EQ(r.sigma.size(), 6u);
  EXPECT_LT(reconstruction_error(a, r.u, r.sigma, r.v) / a.frobenius_norm(), 1e-12);
}

TEST(Svd, OddColumnCountsWork) {
  Rng rng(8);
  const Matrix a = random_gaussian(15, 7, rng);
  const SvdResult r = one_sided_jacobi(a, *make_ordering("round-robin"));
  ASSERT_TRUE(r.converged);
  EXPECT_LT(reconstruction_error(a, r.u, r.sigma, r.v) / a.frobenius_norm(), 1e-12);
}

TEST(Svd, RankDetection) {
  Rng rng(9);
  const Matrix a = rank_deficient(24, 12, 4, rng);
  const SvdResult r = one_sided_jacobi(a, *make_ordering("fat-tree"));
  EXPECT_EQ(r.rank(1e-9), 4u);
  // Zero singular values sorted to the tail; their U columns are zero.
  for (std::size_t j = 4; j < 12; ++j) {
    for (std::size_t i = 0; i < r.u.rows(); ++i) EXPECT_EQ(r.u(i, j), 0.0);
  }
}

TEST(Svd, HilbertIllConditioned) {
  const Matrix h = hilbert(10);
  const SvdResult r = one_sided_jacobi(h, *make_ordering("new-ring"));
  ASSERT_TRUE(r.converged);
  EXPECT_LT(reconstruction_error(h, r.u, r.sigma, r.v) / h.frobenius_norm(), 1e-12);
  EXPECT_GT(r.sigma[0] / r.sigma[8], 1e9);  // severely ill-conditioned
}

TEST(Svd, SortModeNoneStillConverges) {
  Rng rng(10);
  const Matrix a = random_gaussian(20, 12, rng);
  JacobiOptions opt;
  opt.sort = SortMode::kNone;
  const SvdResult r = one_sided_jacobi(a, *make_ordering("round-robin"), opt);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.swaps, 0u);
  EXPECT_LT(reconstruction_error(a, r.u, r.sigma, r.v) / a.frobenius_norm(), 1e-12);
  // Without sorting sigma need not be ordered, but the multiset must match.
  auto sorted = r.sigma;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  const auto sv = golub_kahan_singular_values(a);
  for (std::size_t k = 0; k < sv.size(); ++k) EXPECT_NEAR(sorted[k], sv[k], 1e-8);
}

TEST(Svd, OffDiagonalDecreasesMonotonicallyNearConvergence) {
  Rng rng(11);
  const Matrix a = random_gaussian(40, 24, rng);
  JacobiOptions opt;
  opt.track_off = true;
  const SvdResult r = one_sided_jacobi(a, *make_ordering("fat-tree"), opt);
  ASSERT_TRUE(r.converged);
  ASSERT_GE(r.off_history.size(), 3u);
  // The tail of the history must decrease (quadratic convergence region).
  for (std::size_t k = r.off_history.size() - 1; k >= r.off_history.size() - 2; --k)
    EXPECT_LE(r.off_history[k], r.off_history[k - 1] + 1e-16);
}

TEST(Svd, QuadraticConvergenceTail) {
  // Once off is small, one sweep should square it (up to a modest factor).
  Rng rng(12);
  const Matrix a = random_gaussian(48, 32, rng);
  JacobiOptions opt;
  opt.track_off = true;
  const SvdResult r = one_sided_jacobi(a, *make_ordering("round-robin"), opt);
  ASSERT_TRUE(r.converged);
  bool quadratic_step_seen = false;
  for (std::size_t k = 1; k < r.off_history.size(); ++k) {
    const double prev = r.off_history[k - 1];
    const double cur = r.off_history[k];
    if (prev < 1e-2 && prev > 1e-14 && cur < 10 * prev * prev) quadratic_step_seen = true;
  }
  EXPECT_TRUE(quadratic_step_seen);
}

TEST(Svd, CyclicBaselineMatchesOrderingDriven) {
  // The ordering-driven sigma against the independent Golub-Kahan-Reinsch
  // reference (bidiagonalisation + implicit-shift QR, no Jacobi rotations).
  Rng rng(13);
  const Matrix a = random_gaussian(24, 16, rng);
  const std::vector<double> ref = golub_kahan_singular_values(a);
  const SvdResult ro = one_sided_jacobi(a, *make_ordering("fat-tree"));
  ASSERT_TRUE(ro.converged);
  ASSERT_EQ(ro.sigma.size(), ref.size());
  for (std::size_t k = 0; k < ref.size(); ++k) EXPECT_NEAR(ro.sigma[k], ref[k], 1e-10);
}

TEST(Svd, ThreadedMatchesSerialBitwise) {
  // Rotations within a step touch disjoint columns, so the execution order
  // cannot change the result: the threaded driver must agree bit for bit.
  Rng rng(14);
  const Matrix a = random_gaussian(40, 32, rng);
  const auto ord = make_ordering("new-ring");
  const SvdResult serial = one_sided_jacobi(a, *ord);
  const SvdResult threaded = one_sided_jacobi_threaded(a, *ord, {}, 4);
  ASSERT_EQ(serial.sigma.size(), threaded.sigma.size());
  for (std::size_t k = 0; k < serial.sigma.size(); ++k)
    EXPECT_EQ(serial.sigma[k], threaded.sigma[k]);
  EXPECT_EQ(serial.sweeps, threaded.sweeps);
  EXPECT_EQ(serial.u, threaded.u);
  EXPECT_EQ(serial.v, threaded.v);
}

TEST(Svd, OffDiagonalMeasurePoolMatchesSerial) {
  // The track_off measure spreads its O(n^2 m) pair products over a pool in
  // the threaded driver; it must agree with the serial form.
  Rng rng(149);
  const Matrix a = random_gaussian(40, 12, rng);
  const double serial = off_diagonal_measure(a);
  ThreadPool pool(3);
  const double with_pool = off_diagonal_measure(a, &pool);
  EXPECT_GT(serial, 0.0);
  EXPECT_NEAR(with_pool, serial, 1e-12 * (1.0 + serial));
}

TEST(Svd, NoVComputationWhenDisabled) {
  Rng rng(15);
  const Matrix a = random_gaussian(16, 8, rng);
  JacobiOptions opt;
  opt.compute_v = false;
  const SvdResult r = one_sided_jacobi(a, *make_ordering("round-robin"), opt);
  EXPECT_TRUE(r.v.empty());
  const auto sv = golub_kahan_singular_values(a);
  for (std::size_t k = 0; k < sv.size(); ++k) EXPECT_NEAR(r.sigma[k], sv[k], 1e-8);
}

TEST(Svd, WideMatrixRejected) {
  Rng rng(16);
  const Matrix a = random_gaussian(4, 8, rng);
  EXPECT_THROW(one_sided_jacobi(a, *make_ordering("round-robin")), std::invalid_argument);
}

TEST(Svd, ThresholdAffectsRotationCount) {
  Rng rng(17);
  const Matrix a = random_gaussian(20, 12, rng);
  JacobiOptions loose;
  loose.tol = 1e-4;
  JacobiOptions tight;
  tight.tol = 1e-14;
  const SvdResult rl = one_sided_jacobi(a, *make_ordering("round-robin"), loose);
  const SvdResult rt = one_sided_jacobi(a, *make_ordering("round-robin"), tight);
  EXPECT_LT(rl.rotations, rt.rotations);
}

TEST(Svd, IdentityMatrixConvergesImmediately) {
  const Matrix i = Matrix::identity(8);
  const SvdResult r = one_sided_jacobi(i, *make_ordering("fat-tree"));
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.sweeps, 1);  // first sweep finds nothing to do
  for (double s : r.sigma) EXPECT_NEAR(s, 1.0, 1e-14);
}

TEST(Svd, MaxSweepsCapRespected) {
  Rng rng(18);
  const Matrix a = random_gaussian(30, 20, rng);
  JacobiOptions opt;
  opt.max_sweeps = 2;
  const SvdResult r = one_sided_jacobi(a, *make_ordering("round-robin"), opt);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.sweeps, 2);
}

}  // namespace
}  // namespace treesvd
