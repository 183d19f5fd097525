// Spectral clustering on a planted-partition graph: build the graph
// Laplacian, take the eigenvectors of its smallest nontrivial eigenvalues,
// embed the vertices and cluster with a few Lloyd iterations. The Laplacian
// is symmetric positive semidefinite, so its singular values are its
// eigenvalues and V holds its eigenvectors: one_sided_jacobi solves the
// eigenproblem, and the sorted output puts the smallest eigenpairs in the
// tail columns.
//
//   ./spectral_clustering [--vertices=60] [--clusters=3] [--ordering=fat-tree]
//
// Requires 2 <= clusters < vertices.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "treesvd.hpp"

namespace {

using namespace treesvd;

struct Planted {
  Matrix laplacian;
  std::vector<int> truth;
};

Planted planted_partition(int vertices, int clusters, double p_in, double p_out, Rng& rng) {
  Matrix adj(static_cast<std::size_t>(vertices), static_cast<std::size_t>(vertices));
  std::vector<int> truth(static_cast<std::size_t>(vertices));
  for (int v = 0; v < vertices; ++v) truth[static_cast<std::size_t>(v)] = v % clusters;
  for (int i = 0; i < vertices; ++i) {
    for (int j = i + 1; j < vertices; ++j) {
      const double p = truth[static_cast<std::size_t>(i)] == truth[static_cast<std::size_t>(j)]
                           ? p_in
                           : p_out;
      if (rng.uniform() < p) {
        adj(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) = 1.0;
        adj(static_cast<std::size_t>(j), static_cast<std::size_t>(i)) = 1.0;
      }
    }
  }
  Matrix lap(static_cast<std::size_t>(vertices), static_cast<std::size_t>(vertices));
  for (int i = 0; i < vertices; ++i) {
    double deg = 0.0;
    for (int j = 0; j < vertices; ++j) deg += adj(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
    lap(static_cast<std::size_t>(i), static_cast<std::size_t>(i)) = deg;
    for (int j = 0; j < vertices; ++j)
      lap(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) -=
          adj(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
  }
  return {std::move(lap), std::move(truth)};
}

/// Few-iteration Lloyd k-means on k-dimensional points.
std::vector<int> kmeans(const std::vector<std::vector<double>>& pts, int k, Rng& rng) {
  const std::size_t n = pts.size();
  const std::size_t dim = pts.front().size();
  std::vector<std::vector<double>> centers;
  for (int c = 0; c < k; ++c) centers.push_back(pts[rng.below(n)]);
  std::vector<int> assign(n, 0);
  for (int iter = 0; iter < 25; ++iter) {
    for (std::size_t i = 0; i < n; ++i) {
      double best = 1e300;
      for (int c = 0; c < k; ++c) {
        double d = 0.0;
        for (std::size_t a = 0; a < dim; ++a) {
          const double t = pts[i][a] - centers[static_cast<std::size_t>(c)][a];
          d += t * t;
        }
        if (d < best) {
          best = d;
          assign[i] = c;
        }
      }
    }
    std::vector<std::vector<double>> sums(static_cast<std::size_t>(k),
                                          std::vector<double>(dim, 0.0));
    std::vector<int> counts(static_cast<std::size_t>(k), 0);
    for (std::size_t i = 0; i < n; ++i) {
      ++counts[static_cast<std::size_t>(assign[i])];
      for (std::size_t a = 0; a < dim; ++a) sums[static_cast<std::size_t>(assign[i])][a] += pts[i][a];
    }
    for (int c = 0; c < k; ++c) {
      if (counts[static_cast<std::size_t>(c)] == 0) continue;
      for (std::size_t a = 0; a < dim; ++a)
        centers[static_cast<std::size_t>(c)][a] =
            sums[static_cast<std::size_t>(c)][a] / counts[static_cast<std::size_t>(c)];
    }
  }
  return assign;
}

/// Clustering accuracy under the best label permutation (k <= 3: brute force).
double purity(const std::vector<int>& got, const std::vector<int>& truth, int k) {
  std::vector<int> perm(static_cast<std::size_t>(k));
  for (int c = 0; c < k; ++c) perm[static_cast<std::size_t>(c)] = c;
  double best = 0.0;
  do {
    int hits = 0;
    for (std::size_t i = 0; i < got.size(); ++i)
      if (perm[static_cast<std::size_t>(got[i])] == truth[i]) ++hits;
    best = std::max(best, static_cast<double>(hits) / static_cast<double>(got.size()));
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

int run(int argc, const char* const* argv) {
  const Cli cli(argc, argv);
  cli.require_known({"vertices", "clusters", "ordering"});
  const int vertices = cli.get_size("vertices", 60);
  const int clusters = cli.get_size("clusters", 3);
  const std::string ordering_name = cli.get("ordering", "fat-tree");
  if (clusters < 2) throw CliError("--clusters must be at least 2");
  if (vertices <= clusters) throw CliError("--vertices must exceed --clusters");

  Rng rng(2718);
  const Planted g = planted_partition(vertices, clusters, 0.65, 0.05, rng);

  const SvdResult r = one_sided_jacobi(g.laplacian, *make_ordering(ordering_name));
  std::printf("spectral clustering: %d vertices, %d planted clusters, %s ordering\n", vertices,
              clusters, ordering_name.c_str());
  std::printf("  Laplacian eigendecomposition: %d sweeps, converged=%s\n", r.sweeps,
              r.converged ? "yes" : "no");

  // Eigenvalues are sorted descending, so the smallest live at the tail; the
  // very last is ~0 (the constant vector). Embed with the next `clusters-1`.
  const std::size_t nn = static_cast<std::size_t>(vertices);
  std::printf("  smallest eigenvalues: ");
  for (int k = 0; k < clusters + 1; ++k)
    std::printf("%.4f ", r.sigma[nn - 1 - static_cast<std::size_t>(k)]);
  std::printf("(the ~0 one is the constant vector; the next %d are the cluster gap)\n",
              clusters - 1);

  std::vector<std::vector<double>> pts(nn, std::vector<double>(static_cast<std::size_t>(clusters - 1)));
  for (std::size_t i = 0; i < nn; ++i)
    for (int a = 0; a < clusters - 1; ++a)
      pts[i][static_cast<std::size_t>(a)] = r.v(i, nn - 2 - static_cast<std::size_t>(a));

  const std::vector<int> assign = kmeans(pts, clusters, rng);
  const double acc = purity(assign, g.truth, clusters);
  std::printf("  clustering accuracy vs planted partition: %.1f%%\n", 100.0 * acc);
  return acc > 0.9 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return treesvd::run_tool("spectral_clustering", argc, argv, run);
}
