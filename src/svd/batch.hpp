#pragma once
// Batched many-SVD engine: B same-shape problems, one SoA arena, shared
// sweep plan, per-lane retirement.
//
// The tree orderings of the paper schedule one decomposition at a time; the
// production shape this layer targets is the opposite — huge numbers of
// small/medium *independent* SVDs. Following the batched/vectorized Jacobi
// literature (Novaković's AVX-512 batched order-2 SVD; the vectorized
// thread-parallel Jacobi method), the win is to vectorize *across* problems:
// lane b of every SIMD vector belongs to problem b, so the branch-heavy
// per-pair control flow (thresholds, rotation decisions, sort swaps) is
// paid once per lane group instead of once per problem, and the data passes
// run at full SIMD width regardless of how short the columns are.
//
// Layout. Problems are grouped into shards of `lane_width` lanes. A shard's
// working matrix is a structure-of-arrays arena: column j is a lane block of
// m rows × lane_width lanes, element (i, j) of problem b at
// h[(j*m + i)*lane_width + b]. V is stored the same way. The batched BLAS-1
// kernels (linalg/blas1.hpp) reduce and rotate whole lane blocks.
//
// Contracts.
//  * Bitwise sequential equivalence: result b equals
//    one_sided_jacobi(inputs[b], ordering, options.jacobi) bit-for-bit —
//    sigma, U, V, sweep/rotation/swap counts, KernelStats, status and
//    diagnostics. The batched kernels replicate the scalar kernels'
//    accumulation orders per lane (one gram_pair pass, then the decision,
//    then the rotation — the pair path of svd/pair_kernel.hpp), and
//    padding/equilibration/finalisation share one definition with the
//    sequential driver (svd/driver_detail.hpp).
//  * Shared plan: orderings are position procedures, so one subtree-ordered
//    plan per ordering procedure (core/sweep_plan.hpp) is built at
//    construction and shared read-only by every lane, shard and solve. A
//    shard maps it through its own current layout each sweep — zero schedule
//    work and zero allocation in the iteration.
//  * Independent retirement: each lane carries its own active flag, guards
//    and counters; a converged lane stops rotating, stops counting and stops
//    observing its guards while the rest of the shard keeps iterating. One
//    slow problem never stalls its batchmates' *results* (they are fixed at
//    retirement), only the wall-clock of its own shard.
//  * Zero steady-state allocation: after reserve() (or the first solve at a
//    given batch size), the pack → iterate → retire cycle allocates nothing;
//    only materialising SvdResult payloads (U, sigma, V are caller-owned
//    value types) allocates.
//
// Threading: shards are independent; solve() runs them over the supplied
// ThreadPool (one task per shard), or serially when pool is null. A
// BatchedSvd instance is single-caller — concurrent solve() calls on one
// instance race; create one instance per serving shard instead
// (svd/serve.hpp does exactly that).

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/ordering.hpp"
#include "core/sweep_plan.hpp"
#include "linalg/matrix.hpp"
#include "svd/jacobi.hpp"

namespace treesvd {

class ThreadPool;

struct BatchedSvdOptions {
  /// Per-problem iteration options; identical semantics to the sequential
  /// driver. track_off is not supported (it is a per-sweep O(n^2 m)
  /// diagnostic pass that defeats the point of batching).
  JacobiOptions jacobi;
  /// Problems per SIMD shard: 4, 8 or 16 (multiples of blas1's kBatchLanes
  /// with a vectorized kernel instantiation).
  std::size_t lane_width = 8;
};

class BatchedSvd {
 public:
  /// Configures the engine for rows x cols problems under `ordering`. The
  /// shared sweep plans are built here; the ordering is not retained.
  BatchedSvd(std::size_t rows, std::size_t cols, const Ordering& ordering,
             BatchedSvdOptions options = {});
  ~BatchedSvd();

  BatchedSvd(const BatchedSvd&) = delete;
  BatchedSvd& operator=(const BatchedSvd&) = delete;

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t lane_width() const noexcept { return options_.lane_width; }
  const BatchedSvdOptions& options() const noexcept { return options_; }

  /// Number of problems the preallocated shard arenas can hold.
  std::size_t capacity() const noexcept;

  /// Grows the shard arenas to hold `batch` problems, so subsequent solves
  /// up to that size allocate nothing beyond the result payloads.
  void reserve(std::size_t batch);

  /// Solves every input (each rows x cols). results[b] is bitwise equal to
  /// one_sided_jacobi(inputs[b], ordering, options.jacobi). Shards run on
  /// `pool` when non-null (one task per shard), serially otherwise.
  std::vector<SvdResult> solve(std::span<const Matrix> inputs, ThreadPool* pool = nullptr);

  /// Pointer form for callers that own the result slots (the serving layer):
  /// *results[b] is overwritten. inputs and results must have equal size.
  void solve_into(std::span<const Matrix* const> inputs, std::span<SvdResult* const> results,
                  ThreadPool* pool = nullptr);

  /// One-lane convenience over solve_into: a batch of exactly one problem.
  /// By the bitwise-sequential contract this equals
  /// one_sided_jacobi(a, ordering, options.jacobi) bit-for-bit — the serving
  /// layer's failure-isolation path re-runs a suspect batch lane by lane
  /// through this entry so healthy batchmates keep their exact payloads.
  void solve_single_into(const Matrix& a, SvdResult* result);

 private:
  struct Shard;

  std::unique_ptr<Shard> make_shard() const;
  void pack_shard(Shard& shard, std::span<const Matrix* const> inputs);
  void iterate_shard(Shard& shard);
  void finalize_shard(Shard& shard, std::span<const Matrix* const> inputs,
                      std::span<SvdResult* const> results);
  void process_pair(Shard& shard, int i, int j);

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  int padded_n_ = 0;
  BatchedSvdOptions options_;
  /// One subtree-ordered plan per ordering procedure; sweep k runs
  /// plans_[k % plans_.size()] through the shard's current layout.
  std::vector<SweepPlan> plans_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace treesvd
