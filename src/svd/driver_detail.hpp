#pragma once
// Shared internals of the one-sided Jacobi drivers.
//
// The serial/threaded/cyclic drivers (jacobi.cpp) and the batched many-SVD
// engine (batch.cpp) must agree bit-for-bit on everything outside the sweep
// loop: column padding, the per-run robustness guards, and the finalisation
// that turns the rotated working matrix into (U, sigma, V) plus the status
// contract. Keeping one definition here is what makes "batched lane b ==
// sequential run b" a structural property instead of a maintenance promise.

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

/// Pads A with zero columns to the nearest width the ordering supports.
inline Matrix pad_columns(const Matrix& a, const Ordering& ordering, int* padded_n) {
  const int n = static_cast<int>(a.cols());
  const int w = require_padded_width(ordering, n);
  *padded_n = w;
  if (w == n) return a;
  Matrix p(a.rows(), static_cast<std::size_t>(w));
  for (std::size_t j = 0; j < a.cols(); ++j) {
    const auto src = a.col(j);
    const auto dst = p.col(j);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  return p;
}

/// Per-driver robustness state: the equilibration record plus the (purely
/// observational) stall classifier, threaded through finalize so every
/// result carries the status contract.
struct SweepGuards {
  Equilibration eq;
  StallDetector stall;

  explicit SweepGuards(const JacobiOptions& opt) : stall(opt.stall_window) {}
};

inline SvdResult finalize(Matrix h, Matrix v, const Matrix& a, const JacobiOptions& opt,
                          const SweepGuards& guards, SvdResult partial) {
  const std::size_t n = a.cols();
  SvdResult r = std::move(partial);
  // Sigma, smax and the U division all happen at the equilibrated scale (h
  // still carries the 2^e factor, and so do the norms); the common factor
  // cancels bitwise in every ratio, and sigma is unscaled exactly at the end.
  r.sigma.resize(n);
  for (std::size_t j = 0; j < n; ++j) r.sigma[j] = nrm2(h.col(j));
  const double smax = *std::max_element(r.sigma.begin(), r.sigma.end());

  r.u = Matrix(h.rows(), n);
  for (std::size_t j = 0; j < n; ++j) {
    if (r.sigma[j] > opt.rank_tol * smax && r.sigma[j] > 0.0)
      copy_div(h.col(j), r.sigma[j], r.u.col(j));
  }
  if (opt.compute_v) {
    r.v = Matrix(n, n);
    for (std::size_t j = 0; j < n; ++j) {
      const auto src = v.col(j);
      const auto dst = r.v.col(j);
      std::copy(src.begin(), src.begin() + static_cast<std::ptrdiff_t>(n), dst.begin());
    }
  }
  unscale_sigma(r.sigma, guards.eq);

  r.status = r.converged ? SvdStatus::kConverged
                         : (guards.stall.stalled() ? SvdStatus::kStalled
                                                   : SvdStatus::kMaxSweeps);
  r.diagnostics.input_scale = guards.eq.stats;
  r.diagnostics.equilibrated = guards.eq.applied;
  r.diagnostics.equilibration_exponent = guards.eq.exponent;
  r.diagnostics.stalled_sweeps = guards.stall.streak();
  if (!r.converged || opt.full_diagnostics)
    assess_quality(a, r, guards.eq.exponent, opt.rank_tol);
  return r;
}

}  // namespace treesvd::detail
