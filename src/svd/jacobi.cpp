#include "svd/jacobi.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <span>
#include <string>

#include "analysis/hooks.hpp"
#include "core/sweep_plan.hpp"
#include "linalg/blas1.hpp"
#include "linalg/rotation.hpp"
#include "svd/driver_detail.hpp"
#include "svd/equilibrate.hpp"
#include "svd/pair_kernel.hpp"
#include "svd/recovery.hpp"
#include "util/require.hpp"
#include "util/thread_pool.hpp"

namespace treesvd {
namespace {

using detail::PairKernel;
using detail::PairOutcome;

// Padding, the per-run robustness guards (SweepGuards), the convergence rule
// (end_sweep) and finalisation live in svd/driver_detail.hpp, shared
// bit-for-bit with every other column engine.
using detail::end_sweep;
using detail::finalize;
using detail::SweepGuards;

}  // namespace

std::size_t SvdResult::rank(double rank_tol) const {
  if (sigma.empty()) return 0;
  const double smax = *std::max_element(sigma.begin(), sigma.end());
  std::size_t r = 0;
  for (double s : sigma)
    if (s > rank_tol * smax && s > 0.0) ++r;
  return r;
}

double off_diagonal_measure(const Matrix& a) { return off_diagonal_measure(a, nullptr); }

double off_diagonal_measure(const Matrix& a, ThreadPool* pool) {
  const std::size_t n = a.cols();
  // Column j's task owns all pairs (i, j), i < j — disjoint writes into the
  // partial-sum slots, so the parallel path needs no synchronisation.
  std::vector<double> off_partial(n, 0.0);
  std::vector<double> diag_partial(n, 0.0);
  const auto column_task = [&](std::size_t j) {
    const auto cj = a.col(j);
    double off = 0.0;
    for (std::size_t i = 0; i < j; ++i) {
      const double d = dot(a.col(i), cj);
      off += 2.0 * d * d;
    }
    off_partial[j] = off;
    const double djj = dot(cj, cj);
    diag_partial[j] = djj * djj;
  };
  if (pool != nullptr) {
    // Grain 1: task cost grows linearly with j, so fine-grained dynamic
    // scheduling is what balances the triangle.
    pool->parallel_for(n, column_task, 1);
  } else {
    for (std::size_t j = 0; j < n; ++j) column_task(j);
  }
  double off = 0.0;
  double diag = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    off += off_partial[j];
    diag += diag_partial[j];
  }
  // Relative measure: off(G) / ||G||_F with G = A^T A.
  const double norm_g = std::sqrt(diag + off);
  return norm_g == 0.0 ? 0.0 : std::sqrt(off) / norm_g;
}

namespace {

/// Tree depth of the threaded driver's plans: each phase runs its 2^d
/// subtrees as pool tasks, at least two per thread so the dynamic schedule
/// can balance unequal subtrees and pools whose size is not a power of two
/// (3 threads finish 4 equal tasks in 2 rounds, 8 in 3 rounds of half the
/// size). Subtrees keep at least one leaf; a one-thread pool runs the serial
/// plan.
int plan_depth(unsigned threads, int leaves) {
  if (threads <= 1) return 0;
  int d = 0;
  while ((1U << d) < 2 * threads && (2 << d) <= leaves) ++d;
  return d;
}

/// The serial (pool == nullptr) and thread-parallel drivers. Both run the
/// same subtree-ordered plans (core/sweep_plan.hpp); the pool runs each
/// phase's subtrees concurrently, which is bitwise neutral because they
/// touch disjoint columns.
SvdResult solve_one_sided(const Matrix& a, const Ordering& ordering,
                          const JacobiOptions& options, ThreadPool* pool, const std::string& who) {
  TREESVD_REQUIRE(a.rows() >= a.cols() && a.cols() >= 2, who + " expects m >= n >= 2");
  require_finite_columns(a, who);
  // Level 0 of the engine hierarchy: one PairKernel, bound once to the
  // resolved dispatch table, drives every pair of the run.
  const PairKernel kernel(options);
  const int padded_n = detail::require_padded_width(ordering, static_cast<int>(a.cols()));
  Matrix h = detail::pad_columns(a, padded_n);
  SweepGuards guards;
  guards.eq = equilibrate(h, options.equilibrate);
  Matrix v = options.compute_v ? Matrix::identity(static_cast<std::size_t>(padded_n)) : Matrix();
  Matrix* vp = options.compute_v ? &v : nullptr;

  KernelCounters counters;

  SvdResult r;
  {
    // The plans and layouts die before finalize: left alive, their small
    // blocks fragment the heap under finalize's m x n allocations, which
    // costs about one more such matrix of peak memory.
    const std::vector<SweepPlan> plans = plan_sweeps(
        ordering, padded_n, pool != nullptr ? plan_depth(pool->size(), padded_n / 2) : 0);
    std::vector<int> layout(static_cast<std::size_t>(padded_n));
    std::iota(layout.begin(), layout.end(), 0);
    std::vector<int> next_layout(layout.size());

    for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
      const SweepPlan& plan = plans[static_cast<std::size_t>(sweep) % plans.size()];
      std::atomic<std::size_t> sweep_rot{0};
      std::atomic<std::size_t> sweep_swap{0};
      // Rotates a run of plan entries, mapped through the sweep's opening
      // layout, and tallies its outcomes.
      const auto run = [&](std::span<const IndexPair> pairs) {
        std::size_t rot = 0;
        std::size_t swap = 0;
        for (const IndexPair& p : pairs) {
          const auto [i, j] = detail::plan_columns(layout, p);
          // The pair's two H columns, declared to the race detector: two
          // concurrent tasks sharing a column (a plan that failed to cut a
          // phase) race here.
          TREESVD_HB_WRITE(&h, static_cast<std::size_t>(i), "H column");
          TREESVD_HB_WRITE(&h, static_cast<std::size_t>(j), "H column");
          const PairOutcome o = kernel.process(h, vp, i, j, &counters);
          rot += o.rotated ? 1 : 0;
          swap += o.swapped ? 1 : 0;
        }
        sweep_rot.fetch_add(rot, std::memory_order_relaxed);
        sweep_swap.fetch_add(swap, std::memory_order_relaxed);
      };
      if (pool == nullptr) {
        run(plan.pairs());
      } else {
        TREESVD_HB_SCOPED_FRAME(sweep_frame, [&] { return "sweep " + std::to_string(sweep); });
        for (std::size_t ph = 0; ph < plan.phases(); ++ph) {
          TREESVD_HB_SCOPED_FRAME(phase_frame, [&] { return "phase " + std::to_string(ph); });
          pool->parallel_for(plan.tasks(), [&](std::size_t k) { run(plan.task(ph, k)); }, 1);
        }
      }
      plan.advance(layout, next_layout);
      layout.swap(next_layout);
      if (options.track_off) r.off_history.push_back(off_diagonal_measure(h, pool));
      if (end_sweep(r, sweep, sweep_rot.load(), sweep_swap.load(), guards.stall)) break;
    }
  }
  r.kernel_stats = counters.snapshot();
  r.kernel_stats.isa_tier = static_cast<int>(kernel.tier());
  return finalize(h, v, a, options.rank_tol, options.full_diagnostics, guards, std::move(r));
}

}  // namespace

SvdResult one_sided_jacobi(const Matrix& a, const Ordering& ordering,
                           const JacobiOptions& options) {
  return solve_one_sided(a, ordering, options, nullptr, "one_sided_jacobi");
}

SvdResult one_sided_jacobi_threaded(const Matrix& a, const Ordering& ordering,
                                    const JacobiOptions& options, unsigned threads) {
  ThreadPool pool(threads);
  return solve_one_sided(a, ordering, options, &pool, "one_sided_jacobi_threaded");
}

SvdResult cyclic_jacobi(const Matrix& a, const JacobiOptions& options) {
  TREESVD_REQUIRE(a.rows() >= a.cols() && a.cols() >= 2,
                  "cyclic_jacobi expects m >= n >= 2");
  require_finite_columns(a, "cyclic_jacobi");
  const PairKernel kernel(options);
  const int n = static_cast<int>(a.cols());
  Matrix h = a;
  SweepGuards guards;
  guards.eq = equilibrate(h, options.equilibrate);
  Matrix v = options.compute_v ? Matrix::identity(static_cast<std::size_t>(n)) : Matrix();
  Matrix* vp = options.compute_v ? &v : nullptr;

  KernelCounters counters;

  SvdResult r;
  for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
    std::size_t sweep_rot = 0;
    std::size_t sweep_swap = 0;
    for (int i = 0; i < n - 1; ++i) {
      for (int j = i + 1; j < n; ++j) {
        const PairOutcome o = kernel.process(h, vp, i, j, &counters);
        sweep_rot += o.rotated ? 1 : 0;
        sweep_swap += o.swapped ? 1 : 0;
      }
    }
    if (options.track_off) r.off_history.push_back(off_diagonal_measure(h));
    if (end_sweep(r, sweep, sweep_rot, sweep_swap, guards.stall)) break;
  }
  r.kernel_stats = counters.snapshot();
  r.kernel_stats.isa_tier = static_cast<int>(kernel.tier());
  return finalize(h, v, a, options.rank_tol, options.full_diagnostics, guards, std::move(r));
}

}  // namespace treesvd
