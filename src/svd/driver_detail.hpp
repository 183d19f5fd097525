#pragma once
// Shared internals of the one-sided Jacobi column engines.
//
// Every column engine — serial/threaded (jacobi.cpp), batched (batch.cpp),
// block (block_jacobi.cpp) and spmd (spmd.cpp) — must agree bit-for-bit on
// everything outside its sweep loop: column padding, the per-run robustness
// guards, the convergence rule that ends a sweep, and the finalisation that
// turns the final H and V columns into (U, sigma, V) plus the status
// contract. Keeping
// one definition here is what makes "batched lane b == sequential run b" or
// "spmd == serial" a structural property instead of a maintenance promise.
// The two-sided engine (kogbetliantz.cpp) ends its sweeps and its run through
// the same end_sweep and finish_status, so every engine shares one status
// contract.

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/ordering.hpp"
#include "linalg/blas1.hpp"
#include "linalg/matrix.hpp"
#include "svd/equilibrate.hpp"
#include "svd/jacobi.hpp"
#include "svd/recovery.hpp"
#include "util/require.hpp"

namespace treesvd::detail {

/// The columns, smaller index first, that plan entry `p` rotates in a sweep
/// that opened in `layout` (core/sweep_plan.hpp).
inline std::pair<int, int> plan_columns(std::span<const int> layout, IndexPair p) noexcept {
  const int x = layout[static_cast<std::size_t>(p.even)];
  const int y = layout[static_cast<std::size_t>(p.odd)];
  return {std::min(x, y), std::max(x, y)};
}

/// padded_width (core/ordering.hpp), throwing when nothing in [n, 2n+4] is
/// supported.
inline int require_padded_width(const Ordering& ordering, int n) {
  const int w = padded_width(ordering, n);
  TREESVD_REQUIRE(w > 0, ordering.name() + " supports no width in [n, 2n+4] for n=" +
                             std::to_string(n));
  return w;
}

/// A copy of A padded with zero columns to `width` >= a.cols() columns.
inline Matrix pad_columns(const Matrix& a, int width) {
  if (static_cast<std::size_t>(width) == a.cols()) return a;
  Matrix p(a.rows(), static_cast<std::size_t>(width));
  for (std::size_t j = 0; j < a.cols(); ++j) std::ranges::copy(a.col(j), p.col(j).begin());
  return p;
}

/// Per-driver robustness state: the equilibration record plus the (purely
/// observational) stall classifier over the last kStallWindow sweeps,
/// threaded through finalize so every result carries the status contract.
struct SweepGuards {
  Equilibration eq;
  StallDetector stall;
};

/// The convergence rule of every column engine: a sweep with zero activity
/// (rotations + swaps) ends the run, and any other sweep feeds the stall
/// classifier. Returns whether the run converged. spmd ranks apply it to
/// the allreduced activity.
inline bool sweep_converged(double activity, StallDetector& stall) noexcept {
  if (activity == 0.0) return true;
  stall.observe(activity);
  return false;
}

/// Ends sweep `sweep` (0-based) of a run: adds its tallies to the partial
/// result and applies the convergence rule. Returns r.converged.
inline bool end_sweep(SvdResult& r, int sweep, std::size_t rotations, std::size_t swaps,
                      StallDetector& stall) noexcept {
  r.rotations += rotations;
  r.swaps += swaps;
  r.sweeps = sweep + 1;
  r.converged = sweep_converged(static_cast<double>(rotations + swaps), stall);
  return r.converged;
}

/// The tail of every engine's run, once sigma (still at the equilibrated
/// scale), U and V are formed: unscales sigma, sets the status and the cheap
/// diagnostics, and assesses quality when the run did not converge or
/// `full_diagnostics` asks for it.
inline void finish_status(SvdResult& r, const Matrix& a, double rank_tol, bool full_diagnostics,
                          const SweepGuards& guards) {
  unscale_sigma(r.sigma, guards.eq);
  r.status = r.converged ? SvdStatus::kConverged
                         : (guards.stall.stalled() ? SvdStatus::kStalled
                                                   : SvdStatus::kMaxSweeps);
  r.diagnostics.input_scale = guards.eq.stats;
  r.diagnostics.equilibrated = guards.eq.applied;
  r.diagnostics.equilibration_exponent = guards.eq.exponent;
  r.diagnostics.stalled_sweeps = guards.stall.streak();
  if (!r.converged || full_diagnostics) assess_quality(a, r, guards.eq.exponent, rank_tol);
}

/// Columns of a final working matrix, in input order.
using ColumnViews = std::span<const std::span<const double>>;

/// The one epilogue of every column engine. `h` holds the final H columns of
/// the n = a.cols() input columns (padding excluded); `v` the final V
/// columns, of which the first n entries are kept, or nothing when V is not
/// computed. Forms sigma, U and V, unscales sigma, sets the status and fills
/// the diagnostics of the partial result (sweep tallies, kernel stats).
inline SvdResult finalize(ColumnViews h, ColumnViews v, const Matrix& a, double rank_tol,
                          bool full_diagnostics, const SweepGuards& guards, SvdResult partial) {
  const std::size_t n = a.cols();
  SvdResult r = std::move(partial);
  // Sigma, smax and the U division all happen at the equilibrated scale (h
  // still carries the 2^e factor, and so do the norms); the common factor
  // cancels bitwise in every ratio, and sigma is unscaled exactly at the end.
  r.sigma.resize(n);
  for (std::size_t j = 0; j < n; ++j) r.sigma[j] = nrm2(h[j]);
  const double smax = *std::max_element(r.sigma.begin(), r.sigma.end());

  r.u = Matrix(a.rows(), n);
  for (std::size_t j = 0; j < n; ++j) {
    if (r.sigma[j] > rank_tol * smax && r.sigma[j] > 0.0) copy_div(h[j], r.sigma[j], r.u.col(j));
  }
  if (!v.empty()) {
    r.v = Matrix(n, n);
    for (std::size_t j = 0; j < n; ++j)
      std::copy(v[j].begin(), v[j].begin() + static_cast<std::ptrdiff_t>(n), r.v.col(j).begin());
  }
  finish_status(r, a, rank_tol, full_diagnostics, guards);
  return r;
}

/// finalize over the leading columns of working matrices; `v` is empty when
/// V is not computed.
inline SvdResult finalize(const Matrix& h, const Matrix& v, const Matrix& a, double rank_tol,
                          bool full_diagnostics, const SweepGuards& guards, SvdResult partial) {
  const std::size_t n = a.cols();
  std::vector<std::span<const double>> hc(n);
  std::vector<std::span<const double>> vc(v.empty() ? 0 : n);
  for (std::size_t j = 0; j < n; ++j) hc[j] = h.col(j);
  for (std::size_t j = 0; j < vc.size(); ++j) vc[j] = v.col(j);
  return finalize(hc, vc, a, rank_tol, full_diagnostics, guards, std::move(partial));
}

}  // namespace treesvd::detail
