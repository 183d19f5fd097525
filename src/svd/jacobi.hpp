#pragma once
// Hestenes one-sided Jacobi SVD driven by a parallel ordering.
//
// The method generates an orthogonal V as a product of plane rotations with
// A V = H, H's nonzero columns orthogonal; normalising H gives U and the
// singular values. Rotations are organised in sweeps drawn from an Ordering
// (treesvd::core).

#include <cstddef>
#include <optional>
#include <vector>

#include "core/ordering.hpp"
#include "linalg/matrix.hpp"
#include "svd/kernel_stats.hpp"
#include "svd/status.hpp"

namespace treesvd {

class ThreadPool;

/// Sorting behaviour during the iteration.
enum class SortMode {
  kNone,        ///< leave the singular values wherever they converge
  kDescending,  ///< keep the larger-norm column at the smaller index: the
                ///< singular values emerge in nonincreasing order (using the
                ///< fused rotate-and-swap of eq. (3), never an explicit
                ///< column interchange)
};

struct JacobiOptions {
  /// Relative orthogonality threshold: a pair with
  /// |a_i.a_j| <= tol*||a_i||*||a_j|| is skipped (threshold strategy).
  double tol = 1e-13;
  int max_sweeps = 60;
  SortMode sort = SortMode::kDescending;
  bool compute_v = true;
  /// Record off(A^T A) = sqrt(sum_{i<j} (a_i.a_j)^2) after every sweep
  /// (costs an extra O(n^2 m) pass per sweep).
  bool track_off = false;
  /// Singular values below rank_tol * sigma_max are treated as zero when
  /// forming U (their U columns are left zero).
  double rank_tol = 1e-12;
  /// Exact power-of-two input equilibration (svd/equilibrate.hpp). kAuto
  /// rescales only when the entry magnitudes endanger the squared-norm
  /// pipeline (a no-op on well-scaled inputs); the scaling is bitwise
  /// transparent — sigma, U, V and sweep counts match the unequilibrated run
  /// exactly whenever that run stays in range.
  EquilibrateMode equilibrate = EquilibrateMode::kAuto;
  /// Compute the heavy quality diagnostics (scaled residual, orthonormality
  /// defects; an extra O(mn^2)) even when the run converged. They are always
  /// computed for non-converged runs.
  bool full_diagnostics = false;
};

struct SvdResult {
  Matrix u;                  ///< m x n; columns with sigma ~ 0 are zero
  std::vector<double> sigma; ///< n singular values (descending when sorted)
  Matrix v;                  ///< n x n (empty when compute_v is false)
  int sweeps = 0;            ///< sweeps actually performed
  bool converged = false;    ///< a full sweep passed with no rotation/swap
  std::size_t rotations = 0; ///< rotations above the threshold
  std::size_t swaps = 0;     ///< sorting interchanges (fused into rotations)
  std::vector<double> off_history;  ///< off(A^T A) per sweep when tracked
  KernelStats kernel_stats;  ///< debug pass counters from the pair kernels
  /// Machine-readable classification of how the iteration ended; kConverged
  /// iff `converged`. Non-converged results are still best-effort
  /// factorizations — consult `diagnostics` for how much to trust them.
  SvdStatus status = SvdStatus::kMaxSweeps;
  /// Quality/provenance diagnostics (see svd/status.hpp for which fields are
  /// filled in when).
  SvdDiagnostics diagnostics;

  /// Number of singular values above rank_tol * sigma_max.
  std::size_t rank(double rank_tol = 1e-12) const;
};

/// One-sided Jacobi SVD of an m x n matrix (m >= n) using the given parallel
/// ordering. If the ordering does not support n directly (e.g. fat-tree needs
/// a power of two), the matrix is padded with zero columns up to the nearest
/// supported width; padding is removed from the result. Each sweep runs in
/// subtree order (core/sweep_plan.hpp), bitwise equal to running it step by
/// step.
SvdResult one_sided_jacobi(const Matrix& a, const Ordering& ordering,
                           const JacobiOptions& options = {});

/// Thread-parallel variant (threads == 0 selects hardware concurrency). Each
/// phase of the sweep plan runs its 2^d subtrees as pool tasks, d the
/// smallest depth with two subtrees per thread. Identical results to
/// one_sided_jacobi — concurrent tasks touch disjoint columns, and one-sided
/// rotations of disjoint columns commute exactly.
SvdResult one_sided_jacobi_threaded(const Matrix& a, const Ordering& ordering,
                                    const JacobiOptions& options = {}, unsigned threads = 0);

/// off(A^T A) relative to ||A||_F^2: the convergence measure of the paper's
/// quadratic-convergence claim.
double off_diagonal_measure(const Matrix& a);

/// Same measure, with the O(n^2 m) pair products spread over `pool` (nullptr
/// runs serially). The drivers use this form when track_off is set.
double off_diagonal_measure(const Matrix& a, ThreadPool* pool);

}  // namespace treesvd
