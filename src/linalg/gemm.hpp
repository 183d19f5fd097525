#pragma once
// BLAS-3 layer: cache-blocked, packed matrix-matrix kernels.
//
// The pair-kernel layer (DESIGN.md §7) made every BLAS-1 pass as fast as a
// single stream over the data allows; this layer removes passes altogether.
// A tiled GEMM with a register micro-kernel computes C = A·B touching each
// element of A and B once per cache block instead of once per scalar
// product, and the panel helpers at the bottom are the contract the
// block-Jacobi Gram path (DESIGN.md §8) is built on: form Pᵀ·P once, solve
// the small problem locally, apply the accumulated orthogonal update as one
// matrix-matrix product.
//
// Threading: every entry point takes an optional ThreadPool. Passing
// nullptr runs serially; `gemm_pool()` returns a lazily created process-wide
// pool that the Matrix operators use for large products. The shared pool is
// guarded internally with a try-lock (ThreadPool::parallel_for is
// single-caller); a caller-owned pool bypasses the gate entirely — passing
// one asserts exclusive use. A loser of the gate runs serially. Per-tile
// work writes disjoint output, so every route produces bitwise-identical
// results; gemm_dispatch_stats() reports which routes were taken.

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace treesvd {

class ThreadPool;

/// Cache-blocking parameters of the tiled GEMM. The defaults target a
/// generic x86-64 cache hierarchy (packed A block mc·kc ≈ 256 KiB in L2,
/// packed B block kc·nc ≈ 128 KiB); they are exposed for benchmarking, not
/// because users should need to touch them.
struct GemmTiling {
  std::size_t mc = 128;  ///< rows of A per packed block
  std::size_t kc = 256;  ///< shared (inner) dimension per packed block
  std::size_t nc = 64;   ///< columns of B per packed block

  /// Scheduling grain: C tiles are handed out in chunks of this many
  /// consecutive task indices. Threaded through *every* dispatch route —
  /// pooled, and the gate-contended serial path, which walks the same chunk
  /// order — so which route wins the pool gate never changes the work
  /// decomposition or its traversal order.
  std::size_t grain = 1;

  /// Register micro-kernel footprint: an mr x nr accumulator tile lives in
  /// registers across the kc loop. Fixed at compile time.
  static constexpr std::size_t mr = 4;
  static constexpr std::size_t nr = 4;
};

/// Process-wide pool for the matmul entry points (hardware concurrency),
/// created on first use. See the threading note above: safe to pass from
/// concurrent callers; losers of the internal try-lock run serially.
ThreadPool* gemm_pool();

/// Which route each BLAS-3 dispatch took (process-wide, relaxed counters).
/// `pooled` counts parallel runs (shared-pool gate won, or a caller-owned
/// pool), `serial` counts gate-contended runs, and `inline_small` counts
/// work below the parallel threshold (or with no pool). `fallback` always
/// reads 0: no route uses it. It is kept because benchmark reports read the
/// counter set.
struct GemmDispatchStats {
  std::size_t pooled = 0;
  std::size_t fallback = 0;
  std::size_t serial = 0;
  std::size_t inline_small = 0;
};
GemmDispatchStats gemm_dispatch_stats() noexcept;
void gemm_dispatch_stats_reset() noexcept;

namespace detail {
/// Test seam: holds the shared-pool gate for its lifetime, so tests can
/// deterministically exercise the contended route without racing real
/// concurrent GEMMs. Blocks if the gate is held.
class ScopedGemmGateHold {
 public:
  ScopedGemmGateHold();
  ~ScopedGemmGateHold();

  ScopedGemmGateHold(const ScopedGemmGateHold&) = delete;
  ScopedGemmGateHold& operator=(const ScopedGemmGateHold&) = delete;
};
}  // namespace detail

/// C <- A·B. C must already have shape a.rows() x b.cols(); its previous
/// contents are overwritten. Work below an internal flop threshold runs
/// serially even when a pool is supplied.
void gemm_into(Matrix& c, const Matrix& a, const Matrix& b, ThreadPool* pool = nullptr,
               const GemmTiling& tiling = {});

/// Convenience allocating form of gemm_into.
Matrix gemm(const Matrix& a, const Matrix& b, ThreadPool* pool = nullptr,
            const GemmTiling& tiling = {});

/// G <- AᵀA (symmetric n x n Gram matrix of A's columns). Only the upper
/// triangle is computed; the lower triangle is mirrored.
void syrk_t_into(Matrix& g, const Matrix& a, ThreadPool* pool = nullptr);
Matrix syrk_t(const Matrix& a, ThreadPool* pool = nullptr);

/// Gram matrix of a gathered panel: with P = A[:, cols] (columns need not be
/// contiguous), returns the K x K matrix G(i,j) = P_i . P_j. One pass of
/// O(m·K²/tile) traffic — this is the "form the Gram once" half of the
/// block-Jacobi Gram path.
Matrix gram_panel(const Matrix& a, std::span<const int> cols, ThreadPool* pool = nullptr);

/// In-place blocked panel update P <- P·W for the gathered panel
/// P = A[:, cols] and a K x K update W (K == cols.size()). Returns the
/// squared norm of each updated column, accumulated in the same read+write
/// pass over the data — a fresh reduction of the stored values. The block
/// driver ignores them; they stay for callers that want the column norms
/// without a second pass.
std::vector<double> apply_panel_update(Matrix& a, std::span<const int> cols, const Matrix& w,
                                       ThreadPool* pool = nullptr);

}  // namespace treesvd
