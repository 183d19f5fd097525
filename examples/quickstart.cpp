// Quickstart: compute the SVD of a random matrix with the fat-tree ordering
// and verify the factorisation.
//
//   ./quickstart [--m=200] [--n=64] [--ordering=fat-tree]
#include <cstdio>

#include "treesvd.hpp"

namespace {

using namespace treesvd;

int run(int argc, const char* const* argv) {
  const Cli cli(argc, argv);
  cli.require_known({"m", "n", "ordering"});
  const std::size_t m = cli.get_count("m", 200);
  const std::size_t n = cli.get_count("n", 64);
  const std::string ordering_name = cli.get("ordering", "fat-tree");

  Rng rng(42);
  const Matrix a = random_gaussian(m, n, rng);

  const auto ordering = make_ordering(ordering_name);
  const SvdResult r = one_sided_jacobi(a, *ordering);

  std::printf("treesvd quickstart: %zu x %zu Gaussian matrix, %s ordering\n", m, n,
              ordering_name.c_str());
  std::printf("  converged: %s after %d sweeps (%zu rotations, %zu fused swaps)\n",
              r.converged ? "yes" : "no", r.sweeps, r.rotations, r.swaps);
  std::printf("  largest singular values: ");
  for (std::size_t k = 0; k < 5 && k < r.sigma.size(); ++k) std::printf("%.4f ", r.sigma[k]);
  std::printf("\n  smallest singular value: %.4f\n", r.sigma.back());

  const double rec = reconstruction_error(a, r.u, r.sigma, r.v) / a.frobenius_norm();
  std::printf("  ||A - U S V^T|| / ||A||   = %.2e\n", rec);
  std::printf("  ||V^T V - I||             = %.2e\n", orthonormality_defect(r.v));
  std::printf("  ||U^T U - I|| (first r)   = %.2e\n", orthonormality_defect(r.u));
  return rec < 1e-10 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return treesvd::run_tool("quickstart", argc, argv, run); }
