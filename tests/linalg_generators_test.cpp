// Tests for the test-matrix generators.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/generators.hpp"
#include "linalg/golub_kahan.hpp"

namespace treesvd {
namespace {

TEST(Generators, GaussianShapeAndVariation) {
  Rng rng(41);
  const Matrix a = random_gaussian(30, 20, rng);
  EXPECT_EQ(a.rows(), 30u);
  EXPECT_EQ(a.cols(), 20u);
  EXPECT_GT(a.frobenius_norm(), 0.0);
  // Mean of entries should be near zero for iid normals.
  double sum = 0.0;
  for (double v : a.data()) sum += v;
  EXPECT_NEAR(sum / static_cast<double>(a.data().size()), 0.0, 0.2);
}

TEST(Generators, GaussianRejectsZeroDims) {
  Rng rng(41);
  EXPECT_THROW(random_gaussian(0, 3, rng), std::invalid_argument);
  EXPECT_THROW(random_gaussian(3, 0, rng), std::invalid_argument);
}

TEST(Generators, OrthonormalColumns) {
  Rng rng(42);
  const Matrix q = random_orthonormal(25, 10, rng);
  EXPECT_LT(orthonormality_defect(q), 1e-12);
}

TEST(Generators, OrthonormalRequiresTall) {
  Rng rng(42);
  EXPECT_THROW(random_orthonormal(5, 10, rng), std::invalid_argument);
}

TEST(Generators, GeometricSpectrumEndpointsAndRatio) {
  const auto s = geometric_spectrum(6, 1000.0);
  ASSERT_EQ(s.size(), 6u);
  EXPECT_DOUBLE_EQ(s[0], 1.0);
  EXPECT_NEAR(s[5], 1.0 / 1000.0, 1e-12);
  for (std::size_t k = 1; k < 6; ++k) EXPECT_LT(s[k], s[k - 1]);
  // Constant ratio between consecutive values.
  const double r0 = s[1] / s[0];
  for (std::size_t k = 2; k < 6; ++k) EXPECT_NEAR(s[k] / s[k - 1], r0, 1e-12);
}

TEST(Generators, GeometricSpectrumEdgeCases) {
  EXPECT_EQ(geometric_spectrum(1, 100.0).size(), 1u);
  EXPECT_DOUBLE_EQ(geometric_spectrum(1, 100.0)[0], 1.0);
  EXPECT_THROW(geometric_spectrum(0, 10.0), std::invalid_argument);
  EXPECT_THROW(geometric_spectrum(4, 0.5), std::invalid_argument);
}

TEST(Generators, WithSpectrumReproducesSigma) {
  Rng rng(43);
  const std::vector<double> sigma = {4.0, 2.0, 1.0, 0.1};
  const Matrix a = with_spectrum(10, 4, sigma, rng);
  const auto sv = golub_kahan_singular_values(a);
  for (std::size_t k = 0; k < 4; ++k) EXPECT_NEAR(sv[k], sigma[k], 1e-8);
}

TEST(Generators, WithSpectrumValidatesArguments) {
  Rng rng(43);
  EXPECT_THROW(with_spectrum(4, 8, std::vector<double>(8, 1.0), rng), std::invalid_argument);
  EXPECT_THROW(with_spectrum(8, 4, std::vector<double>(3, 1.0), rng), std::invalid_argument);
}

TEST(Generators, RankDeficientRank) {
  Rng rng(44);
  const Matrix a = rank_deficient(20, 10, 4, rng);
  const auto sv = golub_kahan_singular_values(a);
  // Exact zeros surface as rounding noise; use a threshold far above it and
  // far below the smallest nonzero singular value.
  int rank = 0;
  for (double s : sv)
    if (s > 1e-6) ++rank;
  EXPECT_EQ(rank, 4);
}

TEST(Generators, RankDeficientRejectsRankAboveN) {
  Rng rng(44);
  EXPECT_THROW(rank_deficient(10, 5, 6, rng), std::invalid_argument);
}

TEST(Generators, HilbertEntries) {
  const Matrix h = hilbert(4);
  EXPECT_DOUBLE_EQ(h(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(h(1, 2), 1.0 / 4.0);
  EXPECT_DOUBLE_EQ(h(3, 3), 1.0 / 7.0);
  // Symmetric and positive definite: all singular values positive.
  const auto sv = golub_kahan_singular_values(h);
  for (double s : sv) EXPECT_GT(s, 0.0);
}

}  // namespace
}  // namespace treesvd
