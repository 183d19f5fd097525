// Principal component analysis of a tall synthetic dataset via the
// QR-preconditioned parallel Jacobi SVD: samples >> features is exactly the
// aspect ratio where the QR preprocessing pays off.
//
//   ./pca [--samples=2000] [--features=16] [--ordering=fat-tree]
#include <cmath>
#include <cstdio>

#include "treesvd.hpp"

namespace {

using namespace treesvd;

int run(int argc, const char* const* argv) {
  const Cli cli(argc, argv);
  cli.require_known({"samples", "features", "ordering"});
  const std::size_t samples = cli.get_count("samples", 2000);
  const std::size_t features = cli.get_count("features", 16);
  const std::string name = cli.get("ordering", "fat-tree");

  // Synthetic data: 3 latent factors + noise, so the spectrum has a visible
  // elbow after 3 components.
  Rng rng(77);
  const std::size_t latent = 3;
  Matrix factors(features, latent);
  for (auto& v : factors.data()) v = rng.normal();
  Matrix x(samples, features);
  for (std::size_t i = 0; i < samples; ++i) {
    double z[3] = {2.0 * rng.normal(), 1.2 * rng.normal(), 0.7 * rng.normal()};
    for (std::size_t f = 0; f < features; ++f) {
      double v = 0.15 * rng.normal();
      for (std::size_t k = 0; k < latent; ++k) v += z[k] * factors(f, k);
      x(i, f) = v;
    }
  }
  // Centre the columns.
  for (std::size_t f = 0; f < features; ++f) {
    double mean = 0.0;
    for (double v : x.col(f)) mean += v;
    mean /= static_cast<double>(samples);
    for (double& v : x.col(f)) v -= mean;
  }

  Timer timer;
  const SvdResult r = qr_preconditioned_jacobi(x, *make_ordering(name));
  std::printf("PCA: %zu samples x %zu features, %s ordering, %.1f ms (%d Jacobi sweeps on R)\n\n",
              samples, features, name.c_str(), timer.millis(), r.sweeps);

  double total_var = 0.0;
  for (double s : r.sigma) total_var += s * s;
  Table t({"component", "sigma", "variance %", "cumulative %"});
  double cum = 0.0;
  for (std::size_t k = 0; k < std::min<std::size_t>(8, features); ++k) {
    const double var = r.sigma[k] * r.sigma[k] / total_var;
    cum += var;
    t.row()
        .cell(static_cast<long long>(k + 1))
        .cell(r.sigma[k], 3)
        .cell(100.0 * var, 1)
        .cell(100.0 * cum, 1);
  }
  std::printf("%s", t.str().c_str());
  std::printf("\n(three latent factors planted; the explained-variance elbow after\n"
              " component 3 recovers them — the sorted sigma makes the scree plot free)\n");
  return cum > 0.9 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return treesvd::run_tool("pca", argc, argv, run); }
