// Rank-aware least squares through the SVD pseudoinverse: fit a polynomial
// to noisy data with a (deliberately ill-conditioned) Vandermonde basis. The
// sorted singular values make the truncation decision a simple prefix scan.
//
//   ./least_squares [--points=200] [--degree=12] [--ordering=new-ring]
#include <cmath>
#include <cstdio>

#include "treesvd.hpp"

namespace {

using namespace treesvd;

int run(int argc, const char* const* argv) {
  const Cli cli(argc, argv);
  cli.require_known({"points", "degree", "ordering"});
  const auto points = static_cast<std::size_t>(cli.get_int("points", 200));
  const auto degree = static_cast<std::size_t>(cli.get_int("degree", 12));
  const std::string ordering_name = cli.get("ordering", "new-ring");

  // Ground truth: f(x) = sin(3x) on [-1, 1], sampled with noise.
  Rng rng(7);
  std::vector<double> xs(points);
  std::vector<double> b(points);
  for (std::size_t i = 0; i < points; ++i) {
    xs[i] = -1.0 + 2.0 * static_cast<double>(i) / static_cast<double>(points - 1);
    b[i] = std::sin(3.0 * xs[i]) + 0.01 * rng.normal();
  }

  // Vandermonde design matrix (monomials: condition number grows fast).
  const std::size_t n = degree + 1;
  Matrix a(points, n);
  for (std::size_t i = 0; i < points; ++i) {
    double p = 1.0;
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = p;
      p *= xs[i];
    }
  }

  const SvdResult r = one_sided_jacobi(a, *make_ordering(ordering_name));
  std::printf("least squares: %zu points, degree %zu, %s ordering, %d sweeps\n", points, degree,
              ordering_name.c_str(), r.sweeps);
  std::printf("  condition number sigma_1/sigma_n = %.2e\n", r.sigma.front() / r.sigma.back());

  // Truncated pseudoinverse solve: x = V diag(1/sigma) U^T b, dropping
  // singular values below tau * sigma_1.
  auto solve = [&](double tau) {
    std::vector<double> x(n, 0.0);
    std::size_t used = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (r.sigma[j] < tau * r.sigma[0]) break;  // sorted: a prefix suffices
      const double coef = dot(r.u.col(j), b) / r.sigma[j];
      axpy(coef, r.v.col(j), x);
      ++used;
    }
    return std::pair{x, used};
  };

  Table table({"truncation tau", "modes used", "residual ||Ax-b||", "max |coef|"});
  for (double tau : {0.0, 1e-12, 1e-8, 1e-4}) {
    const auto [x, used] = solve(tau);
    std::vector<double> res(b);
    for (std::size_t j = 0; j < n; ++j) axpy(-x[j], a.col(j), res);
    double maxc = 0.0;
    for (double c : x) maxc = std::max(maxc, std::fabs(c));
    char taubuf[32];
    std::snprintf(taubuf, sizeof taubuf, "%.0e", tau);
    table.row().cell(taubuf).cell(used).cell(nrm2(res), 4).cell(maxc, 2);
  }
  std::printf("%s", table.str().c_str());
  std::printf("\nModest truncation trades a tiny residual increase for far smaller (more\n"
              "stable) coefficients — the standard rank-revealing use of a sorted SVD.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return treesvd::run_tool("least_squares", argc, argv, run); }
