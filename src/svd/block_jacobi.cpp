#include "svd/block_jacobi.hpp"

#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/sweep_plan.hpp"
#include "linalg/blas1.hpp"
#include "linalg/dispatch.hpp"
#include "linalg/gemm.hpp"
#include "linalg/rotation.hpp"
#include "svd/driver_detail.hpp"
#include "svd/equilibrate.hpp"
#include "svd/recovery.hpp"
#include "util/require.hpp"
#include "util/thread_pool.hpp"

namespace treesvd {
namespace detail {
namespace {

/// Inner cyclic sweeps over a met block pair's 2b columns per encounter.
constexpr int kInnerSweeps = 2;

/// Two-sided update G <- JᵀGJ for the plane rotation (c, s) in plane (a, b),
/// preserving symmetry. The rotated diagonal uses the same stable
/// norm-transfer form as the column kernels (rotated_norms); the pivot
/// off-diagonal is zero by construction of the Jacobi rotation.
void rotate_gram(Matrix& g, std::size_t a, std::size_t b, const JacobiRotation& rot) {
  const double c = rot.c;
  const double s = rot.s;
  const GramPair gp{g(a, a), g(b, b), g(a, b)};
  const std::size_t kw = g.rows();
  for (std::size_t k = 0; k < kw; ++k) {
    if (k == a || k == b) continue;
    const double gka = g(k, a);
    const double gkb = g(k, b);
    const double na = c * gka - s * gkb;
    const double nb = s * gka + c * gkb;
    g(k, a) = na;
    g(a, k) = na;
    g(k, b) = nb;
    g(b, k) = nb;
  }
  const RotatedNorms rn = rotated_norms(gp, rot);
  g(a, a) = rn.app;
  g(b, b) = rn.aqq;
  g(a, b) = 0.0;
  g(b, a) = 0.0;
}

/// Symmetric interchange of indices a and b of G (columns, then rows).
void swap_gram(Matrix& g, std::size_t a, std::size_t b) {
  swap(g.col(a), g.col(b));
  for (std::size_t k = 0; k < g.rows(); ++k) {
    const double t = g(a, k);
    g(a, k) = g(b, k);
    g(b, k) = t;
  }
}

}  // namespace

InnerPanelStats inner_orthogonalise_gram(Matrix& h, Matrix* v, const std::vector<int>& cols,
                                         const BlockJacobiOptions& opt,
                                         KernelCounters& counters, ThreadPool* pool) {
  const std::size_t kw = cols.size();
  // One Gram build per encounter: every rotate/skip/swap decision below
  // reads this small matrix, never the m-length columns.
  Matrix g = gram_panel(h, cols, pool);
  counters.add_gram_build();
  Matrix w = Matrix::identity(kw);

  InnerPanelStats stats;
  for (int sweep = 0; sweep < kInnerSweeps; ++sweep) {
    std::size_t pass_rot = 0;
    std::size_t pass_swap = 0;
    for (std::size_t a = 0; a < kw; ++a) {
      for (std::size_t b = a + 1; b < kw; ++b) {
        const GramPair gp{g(a, a), g(b, b), g(a, b)};
        const JacobiRotation rot = compute_rotation(gp, opt.tol);
        const bool want_swap = opt.sort == SortMode::kDescending && gp.app < gp.aqq;
        if (rot.identity && !want_swap) continue;
        if (!rot.identity) {
          rotate_gram(g, a, b, rot);
          // W <- W·J: same column convention as the data-side kernel.
          apply_rotation(w.col(a), w.col(b), rot.c, rot.s);
          ++pass_rot;
        }
        if (want_swap) {
          // Fused rotate-and-swap of paper eq. (3), in accumulator form:
          // interchange the two local indices of G and W.
          swap_gram(g, a, b);
          swap(w.col(a), w.col(b));
          ++pass_swap;
        }
      }
    }
    stats.rotations += pass_rot;
    stats.swaps += pass_swap;
    if (pass_rot == 0 && pass_swap == 0) break;  // panel already orthogonal
  }
  counters.add_accum_rotations(stats.rotations);
  if (stats.rotations == 0 && stats.swaps == 0) return stats;  // W == I: skip the apply

  // The only O(m) work of the encounter: one blocked P·W per panel (the
  // column norms the apply also returns are not needed here).
  apply_panel_update(h, cols, w, pool);
  counters.add_blocked_apply();
  if (v != nullptr) {
    apply_panel_update(*v, cols, w, pool);
    counters.add_blocked_apply();
  }
  return stats;
}

}  // namespace detail

SvdResult block_one_sided_jacobi(const Matrix& a, const Ordering& ordering,
                                 const BlockJacobiOptions& options) {
  TREESVD_REQUIRE(a.rows() >= a.cols() && a.cols() >= 2,
                  "block_one_sided_jacobi expects m >= n >= 2");
  require_finite_columns(a, "block_one_sided_jacobi");
  TREESVD_REQUIRE(options.block_width >= 1, "block width must be >= 1");
  const IsaTier isa_tier = kernels().tier;

  const int n = static_cast<int>(a.cols());
  const int b = options.block_width;

  // Number of blocks the ordering will drive: the smallest supported count
  // in [ceil(n/b), 2*ceil(n/b) + 4] (padded_width, core/ordering.hpp). The
  // matrix is padded with zero columns to nb * b.
  const int nb_min = (n + b - 1) / b;
  const int nb = padded_width(ordering, nb_min);
  TREESVD_REQUIRE(nb > 0, ordering.name() + " supports no block count in [" +
                              std::to_string(nb_min) + ", " + std::to_string(2 * nb_min + 4) +
                              "] (n=" + std::to_string(n) +
                              ", block_width=" + std::to_string(b) + ")");
  const int padded_n = nb * b;

  Matrix h = detail::pad_columns(a, padded_n);
  detail::SweepGuards guards;
  guards.eq = equilibrate(h, options.equilibrate);
  Matrix v = options.compute_v ? Matrix::identity(static_cast<std::size_t>(padded_n)) : Matrix();
  Matrix* vp = options.compute_v ? &v : nullptr;

  KernelCounters counters;
  ThreadPool* pool = gemm_pool();

  SvdResult r;
  {
    // Block sweeps run in subtree order like the column drivers
    // (core/sweep_plan.hpp): the encounters of one step touch disjoint
    // blocks, and each block meets its partners in step order, so the
    // result is bitwise that of the step-major sweep. Scoped, as in
    // jacobi.cpp, so the plans die before finalize.
    const std::vector<SweepPlan> plans = plan_sweeps(ordering, nb);
    std::vector<int> layout(static_cast<std::size_t>(nb));
    std::iota(layout.begin(), layout.end(), 0);
    std::vector<int> next_layout(layout.size());
    // The met pair's 2b columns: block k owns global columns [k*b, (k+1)*b).
    std::vector<int> cols(2 * static_cast<std::size_t>(b));

    for (int sweep = 0; sweep < options.max_outer_sweeps; ++sweep) {
      const SweepPlan& plan = plans[static_cast<std::size_t>(sweep) % plans.size()];
      std::size_t sweep_rot = 0;
      std::size_t sweep_swap = 0;
      for (const IndexPair& p : plan.pairs()) {
        const auto [lo, hi] = detail::plan_columns(layout, p);
        for (int i = 0; i < b; ++i) {
          cols[static_cast<std::size_t>(i)] = lo * b + i;
          cols[static_cast<std::size_t>(b + i)] = hi * b + i;
        }
        const detail::InnerPanelStats stats =
            detail::inner_orthogonalise_gram(h, vp, cols, options, counters, pool);
        sweep_rot += stats.rotations;
        sweep_swap += stats.swaps;
      }
      plan.advance(layout, next_layout);
      layout.swap(next_layout);
      if (detail::end_sweep(r, sweep, sweep_rot, sweep_swap, guards.stall)) break;
    }
  }

  r.kernel_stats = counters.snapshot();
  r.kernel_stats.isa_tier = static_cast<int>(isa_tier);
  return detail::finalize(h, v, a, options.rank_tol, options.full_diagnostics, guards,
                          std::move(r));
}

}  // namespace treesvd
