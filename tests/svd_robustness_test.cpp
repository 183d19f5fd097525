// Numerical robustness: extreme scales, duplicate columns, degenerate
// matrices — inputs that break naive Jacobi implementations.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/registry.hpp"
#include "engines.hpp"
#include "linalg/blas1.hpp"
#include "linalg/generators.hpp"

namespace treesvd {
namespace {

TEST(SvdRobustness, HugeUniformScale) {
  Rng rng(71);
  Matrix a = random_gaussian(16, 8, rng);
  for (auto& v : a.data()) v *= 1e100;
  const SvdResult r = one_sided_jacobi(a, *make_ordering("fat-tree"));
  ASSERT_TRUE(r.converged);
  for (double s : r.sigma) EXPECT_TRUE(std::isfinite(s));
  EXPECT_LT(reconstruction_error(a, r.u, r.sigma, r.v) / a.frobenius_norm(), 1e-12);
}

TEST(SvdRobustness, TinyUniformScale) {
  Rng rng(72);
  Matrix a = random_gaussian(16, 8, rng);
  for (auto& v : a.data()) v *= 1e-100;
  const SvdResult r = one_sided_jacobi(a, *make_ordering("new-ring"));
  ASSERT_TRUE(r.converged);
  EXPECT_GT(r.sigma[0], 0.0);
  EXPECT_LT(reconstruction_error(a, r.u, r.sigma, r.v) / a.frobenius_norm(), 1e-12);
}

TEST(SvdRobustness, WildlyMixedColumnScales) {
  Rng rng(73);
  Matrix a = random_gaussian(20, 8, rng);
  for (std::size_t j = 0; j < 8; ++j) {
    const double scale = std::pow(10.0, 20.0 - 5.0 * static_cast<double>(j));
    for (double& v : a.col(j)) v *= scale;
  }
  const SvdResult r = one_sided_jacobi(a, *make_ordering("round-robin"));
  ASSERT_TRUE(r.converged);
  for (std::size_t k = 1; k < r.sigma.size(); ++k) EXPECT_GE(r.sigma[k - 1], r.sigma[k]);
  EXPECT_LT(reconstruction_error(a, r.u, r.sigma, r.v) / a.frobenius_norm(), 1e-12);
}

TEST(SvdRobustness, DuplicateColumns) {
  Rng rng(74);
  Matrix a = random_gaussian(16, 8, rng);
  for (std::size_t j = 4; j < 8; ++j) {
    const auto src = a.col(j - 4);
    const auto dst = a.col(j);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  const SvdResult r = one_sided_jacobi(a, *make_ordering("odd-even"));
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.rank(1e-9), 4u);  // duplicated pairs are rank-degenerate
  EXPECT_LT(reconstruction_error(a, r.u, r.sigma, r.v) / a.frobenius_norm(), 1e-12);
}

TEST(SvdRobustness, ZeroMatrix) {
  const Matrix z(10, 6);
  const SvdResult r = one_sided_jacobi(z, *make_ordering("round-robin"));
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.sweeps, 1);
  for (double s : r.sigma) EXPECT_EQ(s, 0.0);
  EXPECT_EQ(r.rank(), 0u);
}

TEST(SvdRobustness, SingleNonzeroEntry) {
  Matrix a(8, 4);
  a(3, 2) = -5.0;
  const SvdResult r = one_sided_jacobi(a, *make_ordering("fat-tree"));
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.sigma[0], 5.0, 1e-14);
  for (std::size_t k = 1; k < 4; ++k) EXPECT_EQ(r.sigma[k], 0.0);
}

TEST(SvdRobustness, NearlyParallelColumns) {
  // Columns differing by 1e-10 perturbations: severe cancellation territory.
  Rng rng(75);
  Matrix a(32, 6);
  std::vector<double> base(32);
  for (auto& v : base) v = rng.normal();
  for (std::size_t j = 0; j < 6; ++j) {
    const auto dst = a.col(j);
    for (std::size_t i = 0; i < 32; ++i) dst[i] = base[i] + 1e-10 * rng.normal();
  }
  const SvdResult r = one_sided_jacobi(a, *make_ordering("new-ring"));
  ASSERT_TRUE(r.converged);
  EXPECT_GT(r.sigma[0], 1.0);
  EXPECT_LT(r.sigma[1] / r.sigma[0], 1e-8);
  EXPECT_LT(reconstruction_error(a, r.u, r.sigma, r.v) / a.frobenius_norm(), 1e-12);
}

TEST(SvdRobustness, AlreadyOrthogonalColumnsButUnsorted) {
  // Orthogonal columns with increasing norms: no rotations, only fused swaps.
  Matrix a(8, 4);
  for (int j = 0; j < 4; ++j) a(static_cast<std::size_t>(j), static_cast<std::size_t>(j)) = j + 1.0;
  const SvdResult r = one_sided_jacobi(a, *make_ordering("round-robin"));
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.rotations, 0u);
  EXPECT_GT(r.swaps, 0u);
  EXPECT_DOUBLE_EQ(r.sigma[0], 4.0);
  EXPECT_DOUBLE_EQ(r.sigma[3], 1.0);
}

TEST(SvdRobustness, MinimalSizeTwoColumns) {
  const Matrix a = Matrix::from_rows({{3, 1}, {1, 3}, {0, 0}});
  const SvdResult r = one_sided_jacobi(a, *make_ordering("round-robin"));
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.sigma[0], 4.0, 1e-12);
  EXPECT_NEAR(r.sigma[1], 2.0, 1e-12);
}

TEST(SvdRobustness, NanInputFailsFastNamingTheColumn) {
  // A poisoned input must fail precisely at entry — naming the offending
  // column — instead of iterating to max_sweeps on IEEE-propagated garbage.
  Rng rng(76);
  Matrix a = random_gaussian(16, 8, rng);
  a(5, 2) = std::numeric_limits<double>::quiet_NaN();
  try {
    one_sided_jacobi(a, *make_ordering("fat-tree"));
    FAIL() << "expected the payload guard to throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("one_sided_jacobi"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("column 2"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Degenerate inputs across every engine of the engine table that takes tall
// inputs, under three orderings. Zero and duplicate columns must yield finite
// sorted sigma, the exact rank, and — because the trailing U columns carry no
// information — exactly-zero U columns for the zero singular values.

constexpr const char* kDegenerateOrderings[] = {"fat-tree", "new-ring", "round-robin"};

void check_degenerate(const SvdResult& r, std::size_t rank) {
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.status, SvdStatus::kConverged);
  for (const double s : r.sigma) EXPECT_TRUE(std::isfinite(s));
  for (std::size_t k = 1; k < r.sigma.size(); ++k) EXPECT_GE(r.sigma[k - 1], r.sigma[k]);
  EXPECT_EQ(r.rank(1e-9), rank);
  // U columns for the zero singular values are exactly zero, never garbage
  // left over from dividing a near-zero column by a near-zero sigma.
  for (std::size_t k = rank; k < r.sigma.size(); ++k)
    for (const double v : r.u.col(k)) EXPECT_EQ(v, 0.0) << "U col " << k;
}

TEST(SvdRobustness, ZeroColumnsAcrossEveryEngine) {
  Rng rng(78);
  const std::vector<double> spec = geometric_spectrum(6, 1e6);
  const Matrix b = with_spectrum(12, 6, spec, rng);
  Matrix a(12, 8);
  for (std::size_t j = 0; j < 6; ++j)
    std::copy(b.col(j).begin(), b.col(j).end(), a.col(j).begin());
  for (const EngineEntry& e : kEngines) {
    if (e.square_only) continue;
    for (const char* ordering : kDegenerateOrderings) {
      SCOPED_TRACE(std::string(e.name) + " x " + ordering);
      check_degenerate(e.solve(a, *make_ordering(ordering), {}, 0), 6);
    }
  }
}

TEST(SvdRobustness, DuplicateColumnsAcrossEveryEngine) {
  Rng rng(79);
  const std::vector<double> spec = geometric_spectrum(4, 1e3);
  const Matrix b = with_spectrum(12, 4, spec, rng);
  Matrix a(12, 8);
  for (std::size_t j = 0; j < 4; ++j) {
    std::copy(b.col(j).begin(), b.col(j).end(), a.col(j).begin());
    std::copy(b.col(j).begin(), b.col(j).end(), a.col(4 + j).begin());
  }
  for (const EngineEntry& e : kEngines) {
    if (e.square_only) continue;
    for (const char* ordering : kDegenerateOrderings) {
      SCOPED_TRACE(std::string(e.name) + " x " + ordering);
      const SvdResult r = e.solve(a, *make_ordering(ordering), {}, 0);
      check_degenerate(r, 4);
      // [B | B] has sigma = sqrt(2) * sigma(B) for the nonzero half.
      for (std::size_t k = 0; k < 4; ++k)
        EXPECT_NEAR(r.sigma[k], std::sqrt(2.0) * spec[k], 1e-12 * spec[0]);
    }
  }
}

TEST(SvdRobustness, KogbetliantzDegenerateInputsStayOrthogonal) {
  // The two-sided engine keeps a fully orthogonal U: zero singular values do
  // NOT zero U columns there — instead the whole factor must stay orthonormal.
  Rng rng(80);
  const std::vector<double> spec = geometric_spectrum(6, 1e6);
  const Matrix b = with_spectrum(8, 6, spec, rng);
  Matrix a(8, 8);
  for (std::size_t j = 0; j < 6; ++j)
    std::copy(b.col(j).begin(), b.col(j).end(), a.col(j).begin());
  const SvdResult r = kogbetliantz_svd(a, *make_ordering("fat-tree"));
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.status, SvdStatus::kConverged);
  for (const double s : r.sigma) EXPECT_TRUE(std::isfinite(s));
  std::size_t rank = 0;
  for (const double s : r.sigma)
    if (s > 1e-9 * r.sigma[0]) ++rank;
  EXPECT_EQ(rank, 6u);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      const double uij = dot(r.u.col(i), r.u.col(j));
      EXPECT_NEAR(uij, i == j ? 1.0 : 0.0, 1e-12) << "U^T U (" << i << "," << j << ")";
    }
  }
}

TEST(SvdRobustness, InfInputRejectedByEveryEngine) {
  Rng rng(77);
  Matrix a = random_gaussian(16, 8, rng);
  a(0, 7) = std::numeric_limits<double>::infinity();
  const auto ord = make_ordering("fat-tree");
  EXPECT_THROW(one_sided_jacobi(a, *ord), std::invalid_argument);
  EXPECT_THROW(one_sided_jacobi_threaded(a, *ord), std::invalid_argument);
}

}  // namespace
}  // namespace treesvd
