// Ablation A3: the threshold strategy (Section 1 cites it for avoiding
// cycling). Sweep the relative threshold: rotations skipped, sweeps needed,
// final accuracy.
#include <cmath>
#include <cstdio>

#include "core/registry.hpp"
#include "linalg/generators.hpp"
#include "linalg/golub_kahan.hpp"
#include "svd/jacobi.hpp"
#include "util/table.hpp"

int main() {
  using namespace treesvd;
  std::printf("A3 — threshold strategy ablation (fat-tree ordering, 96x48, cond 1e4)\n\n");

  Rng rng(7777);
  const Matrix a = with_spectrum(96, 48, geometric_spectrum(48, 1e4), rng);
  const auto oracle = golub_kahan_singular_values(a);
  const auto ord = make_ordering("fat-tree");

  Table t({"tol", "sweeps", "rotations", "max |sigma-oracle|/sigma_1", "converged"});
  for (double tol : {1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-13, 1e-15}) {
    JacobiOptions opt;
    opt.tol = tol;
    const SvdResult r = one_sided_jacobi(a, *ord, opt);
    double err = 0.0;
    for (std::size_t k = 0; k < oracle.size(); ++k)
      err = std::max(err, std::fabs(r.sigma[k] - oracle[k]));
    char tolbuf[32];
    std::snprintf(tolbuf, sizeof tolbuf, "%.0e", tol);
    char errbuf[32];
    std::snprintf(errbuf, sizeof errbuf, "%.2e", err / oracle[0]);
    t.row()
        .cell(tolbuf)
        .cell(static_cast<long long>(r.sweeps))
        .cell(r.rotations)
        .cell(errbuf)
        .cell(r.converged ? "yes" : "no");
  }
  std::printf("%s\n", t.str().c_str());
  std::printf(
      "Loose thresholds stop early with accuracy proportional to the threshold;\n"
      "tight ones cost only a few extra rotations once the quadratic regime is\n"
      "reached — skipping near-orthogonal pairs is almost free in sweeps.\n");
  return 0;
}
