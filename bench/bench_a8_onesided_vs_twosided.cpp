// Ablation A8: why the paper prefers the one-sided Hestenes method (Section
// 1, "the best approach may be to adopt the Hestenes one-sided transformation
// method [7] as advocated in [2]"). The two-sided Kogbetliantz iteration of
// [2]'s arrays must rotate rows AND columns: on a column-distributed machine
// every rotation needs the pair's rows gathered across all processors (or a
// two-dimensional data layout with twice the exchanges). Here: convergence is
// comparable, but the per-sweep data that must cross the machine doubles.
#include <cstdio>

#include "core/registry.hpp"
#include "linalg/generators.hpp"
#include "svd/jacobi.hpp"
#include "svd/kogbetliantz.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main() {
  using namespace treesvd;
  std::printf("A8 — one-sided Hestenes vs two-sided Kogbetliantz (square matrices)\n\n");

  Table t({"n", "ordering", "sweeps 1-sided", "sweeps 2-sided", "wall ms 1-sided",
           "wall ms 2-sided", "words moved/rotation"});
  for (int n : {32, 64, 128}) {
    for (const char* name : {"fat-tree", "new-ring"}) {
      Rng rng(1001);
      const Matrix a = random_gaussian(static_cast<std::size_t>(n), static_cast<std::size_t>(n),
                                       rng);
      const auto ord = make_ordering(name);
      Timer t1;
      const SvdResult one = one_sided_jacobi(a, *ord);
      const double ms1 = t1.millis();
      Timer t2;
      const SvdResult two = kogbetliantz_svd(a, *ord);
      const double ms2 = t2.millis();
      // Data touched per rotation: one-sided reads/writes two columns (2m);
      // two-sided reads/writes two rows AND two columns (4n) plus both U and
      // V instead of V alone — the distributed cost driver.
      char ratio[48];
      std::snprintf(ratio, sizeof ratio, "2m=%d vs 4n=%d", 2 * n, 4 * n);
      t.row()
          .cell(static_cast<long long>(n))
          .cell(name)
          .cell(static_cast<long long>(one.sweeps))
          .cell(static_cast<long long>(two.sweeps))
          .cell(ms1, 1)
          .cell(ms2, 1)
          .cell(ratio);
    }
  }
  std::printf("%s\n", t.str().c_str());
  std::printf(
      "Sweeps are comparable; the two-sided method moves twice the data per\n"
      "rotation (rows and columns, U and V) and on a column-distributed machine\n"
      "the row updates are non-local — the reason the paper builds on the\n"
      "one-sided Hestenes transformation.\n");
  return 0;
}
