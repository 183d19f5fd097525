// Kogbetliantz two-sided Jacobi SVD (the method of reference [2]'s arrays).
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/registry.hpp"
#include "linalg/generators.hpp"
#include "linalg/golub_kahan.hpp"
#include "linalg/qr.hpp"
#include "svd/kogbetliantz.hpp"

namespace treesvd {
namespace {

TEST(Kogbetliantz, TwoByTwoKernelDiagonalisesRandomBlocks) {
  Rng rng(911);
  for (int rep = 0; rep < 500; ++rep) {
    const double w = rng.normal();
    const double x = rng.normal();
    const double y = rng.normal();
    const double z = rng.normal();
    const TwoSidedRotation r = two_sided_rotation(w, x, y, z);
    const double p11 = r.cl * w + r.sl * y;
    const double p12 = r.cl * x + r.sl * z;
    const double p21 = -r.sl * w + r.cl * y;
    const double p22 = -r.sl * x + r.cl * z;
    EXPECT_NEAR(-p11 * r.sr + p12 * r.cr, 0.0, 1e-12);
    EXPECT_NEAR(p21 * r.cr + p22 * r.sr, 0.0, 1e-12);
    // Rotations are orthogonal: Frobenius norm preserved.
    const double q11 = p11 * r.cr + p12 * r.sr;
    const double q22 = -p21 * r.sr + p22 * r.cr;
    EXPECT_NEAR(q11 * q11 + q22 * q22, w * w + x * x + y * y + z * z, 1e-10);
  }
}

TEST(Kogbetliantz, KernelEdgeCases) {
  // Already diagonal.
  const TwoSidedRotation d = two_sided_rotation(3.0, 0.0, 0.0, 1.0);
  EXPECT_NEAR(std::fabs(d.cl), 1.0, 1e-15);
  EXPECT_NEAR(std::fabs(d.cr), 1.0, 1e-15);
  // Antidiagonal ([[0,1],[1,0]]): must still produce a diagonalisation.
  const TwoSidedRotation a = two_sided_rotation(0.0, 1.0, 1.0, 0.0);
  const double p11 = a.cl * 0 + a.sl * 1;
  const double p12 = a.cl * 1 + a.sl * 0;
  const double q12 = -p11 * a.sr + p12 * a.cr;
  EXPECT_NEAR(q12, 0.0, 1e-14);
  // Zero block: identity.
  const TwoSidedRotation z = two_sided_rotation(0.0, 0.0, 0.0, 0.0);
  EXPECT_NEAR(z.cl, 1.0, 1e-15);
  EXPECT_NEAR(z.cr, 1.0, 1e-15);
}

using Param = std::tuple<std::string, int>;

class KogbetliantzAcrossOrderings : public ::testing::TestWithParam<Param> {};

TEST_P(KogbetliantzAcrossOrderings, DecomposesSquareMatrices) {
  const auto& [name, n] = GetParam();
  const auto ord = make_ordering(name);
  Rng rng(912);
  const Matrix a = random_gaussian(static_cast<std::size_t>(n), static_cast<std::size_t>(n), rng);
  const SvdResult r = kogbetliantz_svd(a, *ord);
  ASSERT_TRUE(r.converged) << name;
  EXPECT_LT(reconstruction_error(a, r.u, r.sigma, r.v) / a.frobenius_norm(), 1e-12);
  EXPECT_LT(orthonormality_defect(r.u), 1e-12);
  EXPECT_LT(orthonormality_defect(r.v), 1e-12);
  for (std::size_t k = 1; k < r.sigma.size(); ++k) EXPECT_GE(r.sigma[k - 1], r.sigma[k]);
  const auto sv = golub_kahan_singular_values(a);
  for (std::size_t k = 0; k < sv.size(); ++k) EXPECT_NEAR(r.sigma[k], sv[k], 1e-10 * sv[0]);
}

INSTANTIATE_TEST_SUITE_P(
    Orderings, KogbetliantzAcrossOrderings,
    ::testing::Combine(::testing::Values("round-robin", "odd-even", "fat-tree", "new-ring",
                                         "hybrid-g2"),
                       ::testing::Values(16, 23, 32)),
    [](const ::testing::TestParamInfo<Param>& param_info) {
      std::string name = std::get<0>(param_info.param) + "_n" + std::to_string(std::get<1>(param_info.param));
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(Kogbetliantz, TallMatrixViaQr) {
  Rng rng(913);
  const Matrix a = random_gaussian(60, 20, rng);
  const HouseholderQr qr(a);
  const SvdResult r = kogbetliantz_svd(qr.r(), *make_ordering("fat-tree"));
  ASSERT_TRUE(r.converged);
  const auto sv = golub_kahan_singular_values(a);
  for (std::size_t k = 0; k < sv.size(); ++k) EXPECT_NEAR(r.sigma[k], sv[k], 1e-10 * sv[0]);
}

TEST(Kogbetliantz, RankDeficientAndNegativeDeterminant) {
  Rng rng(914);
  Matrix a = rank_deficient(12, 12, 5, rng);
  const SvdResult r = kogbetliantz_svd(a, *make_ordering("round-robin"));
  ASSERT_TRUE(r.converged);
  int rank = 0;
  for (double s : r.sigma)
    if (s > 1e-9) ++rank;
  EXPECT_EQ(rank, 5);
  for (double s : r.sigma) EXPECT_GE(s, 0.0);  // signs folded into U
}

TEST(Kogbetliantz, OffDecaysMonotonicallyAtTheTail) {
  Rng rng(915);
  const Matrix a = random_gaussian(24, 24, rng);
  JacobiOptions opt;
  opt.track_off = true;
  const SvdResult r = kogbetliantz_svd(a, *make_ordering("new-ring"), opt);
  ASSERT_TRUE(r.converged);
  ASSERT_GE(r.off_history.size(), 3u);
  EXPECT_LT(r.off_history.back(), 1e-10);
}

TEST(Kogbetliantz, NonConvergedRunCarriesQualityDiagnostics) {
  // A run cut off by the sweep budget still returns a best-effort
  // factorization under the one status contract: its status says why it
  // stopped, and the heavy diagnostics say how far to trust it.
  Rng rng(917);
  const Matrix a = random_gaussian(16, 16, rng);
  JacobiOptions opt;
  opt.max_sweeps = 1;
  const SvdResult r = kogbetliantz_svd(a, *make_ordering("fat-tree"), opt);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.status, SvdStatus::kMaxSweeps);
  EXPECT_EQ(r.sweeps, 1);
  EXPECT_GE(r.diagnostics.scaled_residual, 0.0);
  // U and V are products of plane rotations after any number of sweeps.
  EXPECT_GE(r.diagnostics.u_defect, 0.0);
  EXPECT_LT(r.diagnostics.u_defect, 1e-12);
  EXPECT_GE(r.diagnostics.v_defect, 0.0);
  EXPECT_LT(r.diagnostics.v_defect, 1e-12);
}

TEST(Kogbetliantz, RejectsNonSquare) {
  EXPECT_THROW(kogbetliantz_svd(Matrix(4, 3), *make_ordering("round-robin")),
               std::invalid_argument);
}

TEST(Kogbetliantz, MatchesOneSidedHestenes) {
  Rng rng(916);
  const Matrix a = with_spectrum(20, 20, geometric_spectrum(20, 1e4), rng);
  const SvdResult two = kogbetliantz_svd(a, *make_ordering("fat-tree"));
  const SvdResult one = one_sided_jacobi(a, *make_ordering("fat-tree"));
  ASSERT_TRUE(two.converged);
  ASSERT_TRUE(one.converged);
  for (std::size_t k = 0; k < one.sigma.size(); ++k)
    EXPECT_NEAR(two.sigma[k], one.sigma[k], 1e-10 * one.sigma[0]);
}

}  // namespace
}  // namespace treesvd
