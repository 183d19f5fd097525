#pragma once
// Block one-sided Jacobi SVD.
//
// The element-wise engine sends one column per message; on machines where
// latency dominates (the CM-5's alpha is large), the classical remedy —
// reference [1] of the paper (Bischof's block Jacobi) and the block ring of
// Section 5 — is to treat b columns as one unit: the same parallel orderings
// drive *blocks*, and when two blocks meet, their 2b columns are mutually
// orthogonalised by an inner (local, communication-free) Jacobi pass.
// Fewer, larger messages; fewer outer sweeps.
//
// The inner solver (DESIGN.md §8): per encounter, form the 2b x 2b Gram
// matrix G = PᵀP once (one O(m·b²) pass), run two inner cyclic Jacobi
// sweeps entirely on the small Gram problem while accumulating every
// rotation and sort-swap into a 2b x 2b orthogonal W, then apply P <- P·W
// (and the V panel <- V·W) as one blocked matrix product each. O(m·b²)
// total per encounter — compute-dense BLAS-3.

#include <cstddef>
#include <vector>

#include "core/ordering.hpp"
#include "linalg/matrix.hpp"
#include "svd/jacobi.hpp"

namespace treesvd {

class ThreadPool;

struct BlockJacobiOptions {
  /// Columns per block (>= 1). The ordering runs over ceil(n/b) blocks
  /// (padded with zero columns to a supported block count).
  int block_width = 4;
  double tol = 1e-13;
  int max_outer_sweeps = 60;
  SortMode sort = SortMode::kDescending;
  bool compute_v = true;
  double rank_tol = 1e-12;
  /// Same robustness knobs as JacobiOptions (svd/status.hpp /
  /// svd/equilibrate.hpp): exact power-of-two input equilibration and forced
  /// heavy diagnostics.
  EquilibrateMode equilibrate = EquilibrateMode::kAuto;
  bool full_diagnostics = false;
};

/// Block one-sided Jacobi SVD of an m x n matrix (m >= n) with the given
/// block-level parallel ordering. Semantics of the result match
/// one_sided_jacobi; `sweeps` counts outer (block) sweeps.
SvdResult block_one_sided_jacobi(const Matrix& a, const Ordering& ordering,
                                 const BlockJacobiOptions& options = {});

namespace detail {

/// Per-encounter tallies of an inner panel solve.
struct InnerPanelStats {
  std::size_t rotations = 0;
  std::size_t swaps = 0;
};

/// Gram inner pass: one Gram build, cyclic Jacobi sweeps on the small
/// problem accumulating rotations and sort-swaps into W, then at most one
/// blocked P·W apply per panel (h, and v when non-null). `pool` (nullable)
/// spreads the Gram build and the blocked applies over row chunks.
InnerPanelStats inner_orthogonalise_gram(Matrix& h, Matrix* v, const std::vector<int>& cols,
                                         const BlockJacobiOptions& opt,
                                         KernelCounters& counters, ThreadPool* pool);

}  // namespace detail

}  // namespace treesvd
