// Low-rank image compression via the parallel SVD — the classical "keep the
// top-k singular triplets" application the sorted output of the tree
// orderings makes trivial (the triplets arrive ordered).
//
// A synthetic grayscale test image (smooth gradients + shapes + texture) is
// generated in-process, so the example needs no input files.
//
//   ./image_compression [--size=128] [--ordering=hybrid-g4]
#include <cmath>
#include <cstdio>
#include <iostream>

#include "treesvd.hpp"

namespace {

using treesvd::Matrix;

/// Synthetic test image: radial gradient + rectangles + diagonal stripes.
Matrix make_image(std::size_t size) {
  Matrix img(size, size);
  const double c = static_cast<double>(size) / 2.0;
  for (std::size_t i = 0; i < size; ++i) {
    for (std::size_t j = 0; j < size; ++j) {
      const double x = (static_cast<double>(i) - c) / c;
      const double y = (static_cast<double>(j) - c) / c;
      double v = 0.55 - 0.35 * std::sqrt(x * x + y * y);                  // radial vignette
      v += 0.20 * std::sin(12.0 * (x + y));                               // diagonal stripes
      if (std::fabs(x) < 0.45 && std::fabs(y) < 0.2) v += 0.25;           // bar
      if (std::fabs(x - 0.3) < 0.12 && std::fabs(y + 0.4) < 0.12) v -= 0.3;  // square
      img(i, j) = std::min(1.0, std::max(0.0, v));
    }
  }
  return img;
}

int run(int argc, const char* const* argv) {
  using namespace treesvd;
  const Cli cli(argc, argv);
  cli.require_known({"size", "ordering"});
  const std::size_t size = cli.get_count("size", 128);
  const std::string ordering_name = cli.get("ordering", "hybrid-g4");

  const Matrix img = make_image(size);
  const auto ordering = make_ordering(ordering_name);
  Timer timer;
  const SvdResult r = one_sided_jacobi(img, *ordering);
  const double svd_ms = timer.millis();

  std::printf("image compression: %zux%zu synthetic image, %s ordering, SVD in %.1f ms"
              " (%d sweeps)\n\n",
              size, size, ordering_name.c_str(), svd_ms, r.sweeps);

  Table table({"rank k", "storage (vs raw)", "rel. error", "PSNR (dB)"});
  for (std::size_t k : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    if (k > size) break;
    // Rank-k reconstruction: A_k = sum_{j<k} sigma_j u_j v_j^T.
    Matrix ak(size, size);
    for (std::size_t j = 0; j < k; ++j) {
      const auto u = r.u.col(j);
      const auto v = r.v.col(j);
      for (std::size_t col = 0; col < size; ++col) {
        const double s = r.sigma[j] * v[col];
        const auto dst = ak.col(col);
        for (std::size_t row = 0; row < size; ++row) dst[row] += s * u[row];
      }
    }
    double mse = 0.0;
    for (std::size_t idx = 0; idx < img.data().size(); ++idx) {
      const double d = img.data()[idx] - ak.data()[idx];
      mse += d * d;
    }
    mse /= static_cast<double>(img.data().size());
    const double psnr = 10.0 * std::log10(1.0 / mse);
    const double storage =
        static_cast<double>(k) * (2.0 * static_cast<double>(size) + 1.0) /
        (static_cast<double>(size) * static_cast<double>(size));
    const double rel = (img - ak).frobenius_norm() / img.frobenius_norm();
    table.row()
        .cell(k)
        .cell(storage * 100.0, 1)
        .cell(rel, 4)
        .cell(psnr, 1);
  }
  table.print(std::cout);
  std::printf("\n(The sorted singular values mean the best rank-k approximation is always\n"
              " the first k columns — no post-hoc sorting required.)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return treesvd::run_tool("image_compression", argc, argv, run);
}
