// Ablation A4: zero-column padding. The fat-tree ordering needs n a power of
// two; other widths are padded internally. What does the padding cost?
#include <cmath>
#include <cstdio>

#include "core/registry.hpp"
#include "linalg/generators.hpp"
#include "linalg/golub_kahan.hpp"
#include "svd/jacobi.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main() {
  using namespace treesvd;
  std::printf("A4 — padding overhead for the fat-tree ordering (m = 2n rows)\n\n");

  const auto ord = make_ordering("fat-tree");
  Table t({"n", "padded to", "sweeps", "rotations", "wall ms", "rel. sigma err"});
  for (int n : {63, 64, 65, 96, 127, 128}) {
    Rng rng(4242);
    const Matrix a = random_gaussian(static_cast<std::size_t>(2 * n),
                                     static_cast<std::size_t>(n), rng);
    int padded = n;
    while (!ord->supports(padded)) ++padded;
    Timer timer;
    const SvdResult r = one_sided_jacobi(a, *ord);
    const double ms = timer.millis();
    const auto oracle = golub_kahan_singular_values(a);
    double err = 0.0;
    for (std::size_t k = 0; k < oracle.size(); ++k)
      err = std::max(err, std::fabs(r.sigma[k] - oracle[k]) / oracle[0]);
    char errbuf[32];
    std::snprintf(errbuf, sizeof errbuf, "%.2e", err);
    t.row()
        .cell(static_cast<long long>(n))
        .cell(static_cast<long long>(padded))
        .cell(static_cast<long long>(r.sweeps))
        .cell(r.rotations)
        .cell(ms, 1)
        .cell(errbuf);
  }
  std::printf("%s\n", t.str().c_str());
  std::printf(
      "Padding never hurts accuracy (zero columns are inert under the threshold);\n"
      "the cost is the unused fraction of each sweep's rotations — worst just\n"
      "above a power of two (n = 65 pays for 128), amortised as n grows toward\n"
      "the next power. Widths the ring orderings support directly (any even n)\n"
      "avoid the padding entirely.\n");
  return 0;
}
