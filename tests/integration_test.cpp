// End-to-end integration tests across modules: consistent singular values
// across all orderings, SVD-based least squares and low-rank approximation.
#include <gtest/gtest.h>

#include <cmath>

#include "treesvd.hpp"

namespace treesvd {
namespace {

TEST(Integration, AllOrderingsAgreeOnSigma) {
  Rng rng(777);
  const Matrix a = random_gaussian(48, 32, rng);
  std::vector<double> reference;
  for (const auto& name : ordering_names({2, 4, 8})) {
    const auto ord = make_ordering(name);
    const SvdResult r = one_sided_jacobi(a, *ord);
    ASSERT_TRUE(r.converged) << name;
    if (reference.empty()) {
      reference = r.sigma;
      continue;
    }
    for (std::size_t k = 0; k < reference.size(); ++k)
      EXPECT_NEAR(r.sigma[k], reference[k], 1e-9) << name << " k=" << k;
  }
}

TEST(Integration, LeastSquaresViaPseudoinverse) {
  // Solve min ||Ax - b|| through the SVD and check the normal equations.
  Rng rng(778);
  const Matrix a = random_gaussian(30, 10, rng);
  std::vector<double> b(30);
  for (auto& v : b) v = rng.normal();

  const SvdResult r = one_sided_jacobi(a, *make_ordering("fat-tree"));
  ASSERT_TRUE(r.converged);
  // x = V diag(1/sigma) U^T b
  std::vector<double> utb(10, 0.0);
  for (std::size_t j = 0; j < 10; ++j) utb[j] = dot(r.u.col(j), b);
  std::vector<double> x(10, 0.0);
  for (std::size_t j = 0; j < 10; ++j) {
    if (r.sigma[j] <= 1e-12) continue;
    const double coef = utb[j] / r.sigma[j];
    axpy(coef, r.v.col(j), x);
  }
  // Residual must be orthogonal to the column space: ||A^T (Ax - b)|| ~ 0.
  std::vector<double> res(30, 0.0);
  for (std::size_t j = 0; j < 10; ++j) axpy(x[j], a.col(j), res);
  for (std::size_t i = 0; i < 30; ++i) res[i] -= b[i];
  for (std::size_t j = 0; j < 10; ++j)
    EXPECT_NEAR(dot(a.col(j), res), 0.0, 1e-9);
}

TEST(Integration, LowRankApproximationErrorIsTailNorm) {
  // Truncating the SVD to rank k gives error sqrt(sum_{i>k} sigma_i^2)
  // (Eckart-Young, Frobenius norm).
  Rng rng(779);
  const std::vector<double> sigma = {10, 7, 5, 2, 1, 0.5, 0.2, 0.1};
  const Matrix a = with_spectrum(20, 8, sigma, rng);
  const SvdResult r = one_sided_jacobi(a, *make_ordering("new-ring"));
  ASSERT_TRUE(r.converged);
  const int k = 3;
  Matrix ak(20, 8);
  for (int j = 0; j < k; ++j) {
    for (std::size_t row = 0; row < 20; ++row)
      for (std::size_t col = 0; col < 8; ++col)
        ak(row, col) += r.sigma[static_cast<std::size_t>(j)] *
                        r.u(row, static_cast<std::size_t>(j)) *
                        r.v(col, static_cast<std::size_t>(j));
  }
  double tail = 0.0;
  for (std::size_t j = k; j < 8; ++j) tail += sigma[j] * sigma[j];
  EXPECT_NEAR((a - ak).frobenius_norm(), std::sqrt(tail), 1e-8);
}

TEST(Integration, ModeledRunAndRealRunAgreeOnSweepCounts) {
  // The modeled machine executes the same schedule the SVD engine uses; the
  // rotation totals must line up: steps * leaves-ish rotations per sweep.
  Rng rng(780);
  const int n = 16;
  const Matrix a = random_gaussian(24, n, rng);
  const auto ord = make_ordering("fat-tree");
  const SvdResult r = one_sided_jacobi(a, *ord);
  ASSERT_TRUE(r.converged);
  const FatTreeTopology topo(n / 2, CapacityProfile::kCm5);
  const auto run = model_run(*ord, topo, n, CostParams{}, r.sweeps);
  EXPECT_EQ(run.sweeps, r.sweeps);
  EXPECT_GT(run.per_sweep_total.total_time, 0.0);
}

TEST(Integration, SymmetricEigenproblemViaSvd) {
  // For a symmetric positive semidefinite matrix (a graph Laplacian, say)
  // the singular values are the eigenvalues and V holds the eigenvectors, so
  // one_sided_jacobi solves the eigenproblem. S = Q diag(lambda) Q^T with
  // eigenvalues 9 down to 0.25 and one exact zero.
  Rng rng(781);
  const std::size_t n = 12;
  std::vector<double> lambda(n, 0.0);
  for (std::size_t k = 0; k + 1 < n; ++k) lambda[k] = 9.0 - 0.875 * static_cast<double>(k);
  const Matrix q = random_orthonormal(n, n, rng);
  Matrix q_lambda = q;
  for (std::size_t k = 0; k < n; ++k)
    for (double& x : q_lambda.col(k)) x *= lambda[k];
  const Matrix s = q_lambda * q.transposed();
  const SvdResult r = one_sided_jacobi(s, *make_ordering("hybrid-g2"));
  ASSERT_TRUE(r.converged);
  const double tol = 1e-8 * lambda[0];
  const Matrix s_v = s * r.v;
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(r.sigma[k], lambda[k], tol) << "k=" << k;
    double defect = 0.0;  // ||S v_k - sigma_k v_k||
    for (std::size_t i = 0; i < n; ++i) {
      const double d = s_v(i, k) - r.sigma[k] * r.v(i, k);
      defect += d * d;
    }
    EXPECT_LE(std::sqrt(defect), tol) << "k=" << k;
  }
}

TEST(Integration, LargerProblemAllPiecesTogether) {
  Rng rng(782);
  const int n = 64;
  const Matrix a = with_spectrum(96, static_cast<std::size_t>(n),
                                 geometric_spectrum(static_cast<std::size_t>(n), 1e4), rng);
  JacobiOptions opt;
  opt.track_off = true;
  const SvdResult r = one_sided_jacobi_threaded(a, *make_ordering("hybrid-g8"), opt, 2);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(reconstruction_error(a, r.u, r.sigma, r.v) / a.frobenius_norm(), 1e-11);
  EXPECT_NEAR(r.sigma[0] / r.sigma[static_cast<std::size_t>(n - 1)], 1e4, 1.0);
}

}  // namespace
}  // namespace treesvd
