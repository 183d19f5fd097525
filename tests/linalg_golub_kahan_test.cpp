// Golub-Kahan bidiagonalization SVD (the non-squaring reference), checked
// against spectra known by construction and against one-sided Jacobi.
#include <gtest/gtest.h>

#include <cmath>

#include "core/registry.hpp"
#include "linalg/generators.hpp"
#include "linalg/golub_kahan.hpp"
#include "svd/jacobi.hpp"

namespace treesvd {
namespace {

TEST(GolubKahan, BidiagonalizePreservesSingularValues) {
  Rng rng(81);
  const auto spec = geometric_spectrum(8, 1e3);
  const Matrix a = with_spectrum(20, 8, spec, rng);
  const Bidiagonal b = bidiagonalize(a);
  // Rebuild the bidiagonal as a dense matrix and take its spectrum from a
  // different algorithm family, one-sided Jacobi.
  Matrix dense(8, 8);
  for (std::size_t k = 0; k < 8; ++k) {
    dense(k, k) = b.diag[k];
    if (k > 0) dense(k - 1, k) = b.super[k];
  }
  const SvdResult r = one_sided_jacobi(dense, *make_ordering("fat-tree"));
  ASSERT_TRUE(r.converged);
  for (std::size_t k = 0; k < 8; ++k) EXPECT_NEAR(r.sigma[k], spec[k], 1e-10);
}

TEST(GolubKahan, DiagonalMatrixIsExact) {
  Matrix d(5, 5);
  const double vals[5] = {7, 3, 2, 0.5, 0.125};
  for (int i = 0; i < 5; ++i) d(static_cast<std::size_t>(i), static_cast<std::size_t>(i)) = vals[i];
  const auto sv = golub_kahan_singular_values(d);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(sv[static_cast<std::size_t>(i)], vals[i]);
}

TEST(GolubKahan, NegativeDiagonalEntriesYieldPositiveSigma) {
  Matrix d(3, 3);
  d(0, 0) = -4;
  d(1, 1) = 2;
  d(2, 2) = -1;
  const auto sv = golub_kahan_singular_values(d);
  EXPECT_NEAR(sv[0], 4.0, 1e-14);
  EXPECT_NEAR(sv[1], 2.0, 1e-14);
  EXPECT_NEAR(sv[2], 1.0, 1e-14);
}

TEST(GolubKahan, MatchesPrescribedSpectrumAtModerateConditioning) {
  Rng rng(82);
  const auto spec = geometric_spectrum(16, 1e4);
  const Matrix a = with_spectrum(40, 16, spec, rng);
  const auto gk = golub_kahan_singular_values(a);
  for (std::size_t k = 0; k < 16; ++k) EXPECT_NEAR(gk[k], spec[k], 1e-10);
}

TEST(GolubKahan, ResolvesTinySingularValuesWhereTheSquaredOracleCannot) {
  Rng rng(83);
  const auto spec = geometric_spectrum(12, 1e12);
  const Matrix a = with_spectrum(24, 12, spec, rng);
  const auto gk = golub_kahan_singular_values(a);
  // The squaring route: square roots of the singular values of fl(A^T A).
  auto squared = golub_kahan_singular_values(a.transposed() * a);
  for (double& s : squared) s = std::sqrt(s);
  // At sigma ~ 1e-9 (below sqrt(eps)) the squaring route has O(1) relative
  // error while Golub-Kahan on A itself still resolves the value.
  const std::size_t k = 8;  // spec[8] ~ 1.9e-9
  EXPECT_LT(std::fabs(gk[k] - spec[k]) / spec[k], 1e-4);
  EXPECT_GT(std::fabs(squared[k] - spec[k]) / spec[k], 1e-2);
}

TEST(GolubKahan, JacobiMatchesGolubKahanOnGradedSpectra) {
  // The classical high-relative-accuracy property of one-sided Jacobi:
  // it tracks the non-squaring reference far below sqrt(eps).
  Rng rng(84);
  const auto spec = geometric_spectrum(12, 1e12);
  const Matrix a = with_spectrum(24, 12, spec, rng);
  const auto gk = golub_kahan_singular_values(a);
  const SvdResult j = one_sided_jacobi(a, *make_ordering("fat-tree"));
  for (std::size_t k = 0; k < 12; ++k)
    EXPECT_LT(std::fabs(j.sigma[k] - gk[k]) / gk[k], 1e-5) << "k=" << k;
}

TEST(GolubKahan, RankDeficient) {
  Rng rng(85);
  const Matrix a = rank_deficient(20, 10, 4, rng);
  const auto sv = golub_kahan_singular_values(a);
  for (std::size_t k = 4; k < 10; ++k) EXPECT_LT(sv[k], 1e-12);
  EXPECT_GT(sv[3], 1e-3);
}

TEST(GolubKahan, SquareAndSingleColumn) {
  Rng rng(86);
  const Matrix sq = random_gaussian(9, 9, rng);
  const auto s1 = golub_kahan_singular_values(sq);
  const SvdResult r = one_sided_jacobi(sq, *make_ordering("round-robin"));
  ASSERT_TRUE(r.converged);
  for (std::size_t k = 0; k < 9; ++k) EXPECT_NEAR(s1[k], r.sigma[k], 1e-10);

  Matrix col(5, 1);
  for (std::size_t i = 0; i < 5; ++i) col(i, 0) = 2.0;
  const auto sv = golub_kahan_singular_values(col);
  ASSERT_EQ(sv.size(), 1u);
  EXPECT_NEAR(sv[0], 2.0 * std::sqrt(5.0), 1e-13);
}

TEST(GolubKahan, RejectsWide) {
  EXPECT_THROW(bidiagonalize(Matrix(3, 5)), std::invalid_argument);
}

}  // namespace
}  // namespace treesvd
