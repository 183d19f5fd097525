#pragma once
// Level 0 of the three-level engine hierarchy (DESIGN.md §14): rotate (and
// optionally sort-swap) one column pair. Every column engine handles a pair
// this way — the serial, thread-parallel, cyclic, SPMD and distributed
// drivers call PairKernel::process, and the batched engine mirrors the same
// decisions across lanes. The block driver instead solves each met block
// pair on its small Gram matrix (svd/block_jacobi.hpp).
//
// The PairKernel class binds the options to a resolved CPU-dispatch kernel
// table (linalg/dispatch.hpp) once per driver run, so the per-pair cost pays
// no dispatch resolution at all. One pair is one fresh gram_pair pass (the
// three accumulations app, aqq, apq of the pair's 2x2 Gram matrix), then the
// rotation decision, then one rotation pass through the table's fused
// rotate_and_norms kernel (its two sums are ignored; its rotated values are
// bitwise those of apply_rotation, linalg/rotation.hpp).

#include <span>

#include "linalg/blas1.hpp"
#include "linalg/dispatch.hpp"
#include "linalg/matrix.hpp"
#include "linalg/rotation.hpp"
#include "svd/jacobi.hpp"
#include "svd/kernel_stats.hpp"

namespace treesvd::detail {

struct PairOutcome {
  bool rotated = false;
  bool swapped = false;
};

/// One column-pair rotation engine: options plus a resolved kernel table.
/// Copyable and cheap (two pointers); thread-safe across disjoint pairs —
/// concurrent drivers share one instance. The bound table fixes the ISA tier
/// for the whole run; results are bitwise identical on every tier.
class PairKernel {
 public:
  PairKernel(const KernelTable& table, const JacobiOptions& opt) noexcept
      : table_(&table), opt_(&opt) {}

  /// Binds the process-wide resolved table (after any TREESVD_ISA /
  /// set_isa_override adjustment).
  explicit PairKernel(const JacobiOptions& opt) noexcept : PairKernel(kernels(), opt) {}

  const KernelTable& table() const noexcept { return *table_; }
  IsaTier tier() const noexcept { return table_->tier; }
  const JacobiOptions& options() const noexcept { return *opt_; }

  /// Rotates one pair of raw column views. `x` must be the column of the
  /// smaller index, `y` of the larger (the sort rule keeps the larger norm
  /// at the smaller index). vx/vy are the matching V columns, or empty spans.
  PairOutcome process(std::span<double> x, std::span<double> y, std::span<double> vx,
                      std::span<double> vy, KernelCounters* counters = nullptr) const {
    GramPair g;
    table_->gram_pair(x.data(), y.data(), x.size(), &g.app, &g.aqq, &g.apq);
    if (counters != nullptr) {
      counters->add_pair();
      counters->add_gram();
    }
    const JacobiRotation rot = compute_rotation(g, opt_->tol);
    const bool want_swap = opt_->sort == SortMode::kDescending && g.app < g.aqq;

    PairOutcome out;
    if (rot.identity && !want_swap) return out;

    const double c = rot.identity ? 1.0 : rot.c;
    const double s = rot.identity ? 0.0 : rot.s;
    if (counters != nullptr) counters->add_rotate();
    // The fused kernels run at the bound tier; their sums are not needed.
    double xx = 0.0;
    double yy = 0.0;
    if (want_swap) {
      // Paper eq. (3): fused rotate-and-swap — the interchange costs nothing.
      table_->rotate_and_norms_swapped(x.data(), y.data(), x.size(), c, s, &xx, &yy);
      if (!vx.empty()) apply_rotation_swapped(vx, vy, c, s);
      out.swapped = true;
      out.rotated = !rot.identity;
    } else {
      table_->rotate_and_norms(x.data(), y.data(), x.size(), c, s, &xx, &yy);
      if (!vx.empty()) apply_rotation(vx, vy, c, s);
      out.rotated = true;
    }
    return out;
  }

  /// Matrix-column convenience wrapper: rotates columns (i, j), i < j, of A
  /// (and V when non-null). Thread-safe across disjoint pairs.
  PairOutcome process(Matrix& a, Matrix* v, int i, int j,
                      KernelCounters* counters = nullptr) const {
    const std::span<double> none;
    return process(a.col(static_cast<std::size_t>(i)), a.col(static_cast<std::size_t>(j)),
                   v != nullptr ? v->col(static_cast<std::size_t>(i)) : none,
                   v != nullptr ? v->col(static_cast<std::size_t>(j)) : none, counters);
  }

 private:
  const KernelTable* table_;
  const JacobiOptions* opt_;
};

}  // namespace treesvd::detail
