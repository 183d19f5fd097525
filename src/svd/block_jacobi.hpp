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
// Two inner solvers are available (BlockJacobiOptions::inner_mode):
//
//  * kGram (default, DESIGN.md §8): per encounter, form the 2b x 2b Gram
//    matrix G = PᵀP once (one O(m·b²) pass), run the inner cyclic Jacobi
//    sweeps entirely on the small Gram problem while accumulating every
//    rotation and sort-swap into a 2b x 2b orthogonal W, then apply
//    P <- P·W (and the V panel <- V·W) as one blocked matrix product each.
//    O(m·b²) total per encounter — compute-dense BLAS-3.
//  * kElementwise: the historical path — every inner rotation streams the
//    full m-length columns (O(m) per rotation, memory-bound BLAS-1) through
//    the one pair kernel every engine shares (svd/pair_kernel.hpp). Kept for
//    cross-checks.

#include <cstddef>
#include <vector>

#include "core/ordering.hpp"
#include "linalg/matrix.hpp"
#include "svd/jacobi.hpp"

namespace treesvd {

class ThreadPool;

/// Inner panel solver of the block driver.
enum class InnerMode {
  kElementwise,  ///< rotate full m-length columns pair by pair (historical)
  kGram,         ///< solve the 2b x 2b Gram problem, apply one blocked update
};

struct BlockJacobiOptions {
  /// Columns per block (>= 1). The ordering runs over ceil(n/b) blocks
  /// (padded with zero columns to a supported block count).
  int block_width = 4;
  /// Inner cyclic sweeps over a met block pair's 2b columns per encounter.
  int inner_sweeps = 2;
  double tol = 1e-13;
  int max_outer_sweeps = 60;
  SortMode sort = SortMode::kDescending;
  bool compute_v = true;
  double rank_tol = 1e-12;
  /// Inner panel solver; see the header comment. kGram is the fast path,
  /// kElementwise the bitwise-stable reference.
  InnerMode inner_mode = InnerMode::kGram;
  /// Same robustness knobs as JacobiOptions (svd/status.hpp /
  /// svd/equilibrate.hpp): exact power-of-two input equilibration,
  /// observational stall window, and forced heavy diagnostics.
  EquilibrateMode equilibrate = EquilibrateMode::kAuto;
  int stall_window = 4;
  bool full_diagnostics = false;
  /// Level-2 recursion (DESIGN.md §14): ordering for the *inner* pass over a
  /// met pair's 2b local columns — any registered ordering name
  /// (core/registry.hpp, e.g. "round-robin", "fat-tree"), reused recursively
  /// at the inner level. The local layout chains across the encounter's
  /// inner sweeps exactly as the outer driver chains block layouts. Empty
  /// (default) keeps the historical serial cyclic pass; a named ordering
  /// that does not support 2b columns also falls back to cyclic. Unknown
  /// names throw std::invalid_argument.
  std::string inner_ordering;
  /// CPU-dispatch tier for this solve; see JacobiOptions::force_isa.
  int force_isa = kIsaAuto;
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

/// Elementwise inner pass: mutually orthogonalise the columns listed in
/// `cols` (global column ids of h/v) with plain cyclic one-sided Jacobi,
/// sort rule included — every pair through PairKernel::process.
InnerPanelStats inner_orthogonalise_elementwise(Matrix& h, Matrix* v,
                                                const std::vector<int>& cols,
                                                const BlockJacobiOptions& opt,
                                                KernelCounters& counters);

/// Gram inner pass: one Gram build, cyclic Jacobi sweeps on the small
/// problem accumulating rotations and sort-swaps into W, then at most one
/// blocked P·W apply per panel (h, and v when non-null). `pool` (nullable)
/// spreads the Gram build and the blocked applies over row chunks.
InnerPanelStats inner_orthogonalise_gram(Matrix& h, Matrix* v, const std::vector<int>& cols,
                                         const BlockJacobiOptions& opt,
                                         KernelCounters& counters, ThreadPool* pool);

}  // namespace detail

}  // namespace treesvd
