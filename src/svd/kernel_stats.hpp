#pragma once
// Pass counters of the one-sided Jacobi pair kernels.
//
// Every engine handles a column pair the same way (svd/pair_kernel.hpp): one
// gram_pair pass decides the rotation, one rotation pass applies it. These
// counters make that contract testable — gram_passes == pairs on every
// engine. The embedded KernelCounters tick with relaxed atomics so
// concurrent pair kernels (disjoint columns, shared counters) stay
// TSan-clean; drivers snapshot them into SvdResult::kernel_stats.

#include <atomic>
#include <cstddef>

#include "analysis/hooks.hpp"

namespace treesvd {

/// Plain snapshot of the pass counters (copyable, reported in SvdResult).
struct KernelStats {
  std::size_t pairs = 0;           ///< column pairs processed
  /// Single x.y accumulations. Always 0: every engine takes one gram_pair
  /// pass per pair. Kept because benchmark reports read the counter set.
  std::size_t dot_passes = 0;
  std::size_t gram_passes = 0;     ///< full three-element gram_pair passes
  std::size_t rotate_passes = 0;   ///< rotation passes (one per rotated or swapped pair)
  /// Single-column squared-norm re-reductions. Always 0: no engine keeps
  /// column norms. Kept because benchmark reports read the counter set.
  std::size_t norm_refreshes = 0;

  // BLAS-3 Gram path of the block driver (block_jacobi.hpp). These make the one-GEMM-per-encounter contract testable: every
  // encounter forms exactly one Gram matrix, its inner rotations touch only
  // the small problem, and at most one blocked apply per panel (H, and V
  // when requested) reaches the m-length columns.
  std::size_t gram_builds = 0;      ///< 2b x 2b panel Gram matrices formed
  std::size_t accum_rotations = 0;  ///< rotations accumulated on the small problem
  std::size_t blocked_applies = 0;  ///< P*W / V*W blocked panel applications

  /// Resolved CPU-dispatch tier the kernels ran on: static_cast<int> of
  /// linalg/dispatch.hpp's IsaTier, or -1 when no driver reported one. The
  /// batched and single-problem engines report the same process-wide
  /// resolution. Informational only — results are bitwise tier-invariant,
  /// so this field is deliberately excluded from result digests
  /// (svd/determinism.cpp).
  int isa_tier = -1;

  KernelStats& operator+=(const KernelStats& o) noexcept {
    pairs += o.pairs;
    dot_passes += o.dot_passes;
    gram_passes += o.gram_passes;
    rotate_passes += o.rotate_passes;
    norm_refreshes += o.norm_refreshes;
    gram_builds += o.gram_builds;
    accum_rotations += o.accum_rotations;
    blocked_applies += o.blocked_applies;
    // All shards of one process resolve the same tier; max() just lets an
    // unreported (-1) side defer to a reported one.
    if (o.isa_tier > isa_tier) isa_tier = o.isa_tier;
    return *this;
  }
};

/// Relaxed-atomic counters shared by concurrent pair kernels.
class KernelCounters {
 public:
  void add_pair() noexcept { note_tick(); pairs_.fetch_add(1, std::memory_order_relaxed); }
  void add_gram() noexcept { note_tick(); gram_.fetch_add(1, std::memory_order_relaxed); }
  void add_rotate() noexcept { note_tick(); rotate_.fetch_add(1, std::memory_order_relaxed); }
  void add_gram_build() noexcept { note_tick(); gram_build_.fetch_add(1, std::memory_order_relaxed); }
  void add_accum_rotations(std::size_t k) noexcept {
    note_tick();
    accum_rot_.fetch_add(k, std::memory_order_relaxed);
  }
  void add_blocked_apply() noexcept {
    note_tick();
    blocked_apply_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Overwrites every counter from a snapshot — checkpoint restore in the
  /// fault-tolerant drivers. Not safe concurrently with ticking kernels;
  /// declared as a plain write so the race detector flags exactly that
  /// misuse (a store overlapping any tick or snapshot).
  void store(const KernelStats& s) noexcept {
    TREESVD_HB_WRITE(this, 0, "KernelCounters");
    pairs_.store(s.pairs, std::memory_order_relaxed);
    gram_.store(s.gram_passes, std::memory_order_relaxed);
    rotate_.store(s.rotate_passes, std::memory_order_relaxed);
    gram_build_.store(s.gram_builds, std::memory_order_relaxed);
    accum_rot_.store(s.accum_rotations, std::memory_order_relaxed);
    blocked_apply_.store(s.blocked_applies, std::memory_order_relaxed);
  }

  KernelStats snapshot() const noexcept {
    TREESVD_HB_ATOMIC(this, 0, "KernelCounters");
    KernelStats s;
    s.pairs = pairs_.load(std::memory_order_relaxed);
    s.gram_passes = gram_.load(std::memory_order_relaxed);
    s.rotate_passes = rotate_.load(std::memory_order_relaxed);
    s.gram_builds = gram_build_.load(std::memory_order_relaxed);
    s.accum_rotations = accum_rot_.load(std::memory_order_relaxed);
    s.blocked_applies = blocked_apply_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  /// Declares a relaxed-atomic tick to the race detector: safe against other
  /// ticks and snapshots, racy against store().
  void note_tick() const noexcept { TREESVD_HB_ATOMIC(this, 0, "KernelCounters"); }

  std::atomic<std::size_t> pairs_{0};
  std::atomic<std::size_t> gram_{0};
  std::atomic<std::size_t> rotate_{0};
  std::atomic<std::size_t> gram_build_{0};
  std::atomic<std::size_t> accum_rot_{0};
  std::atomic<std::size_t> blocked_apply_{0};
};

}  // namespace treesvd
