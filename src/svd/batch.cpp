#include "svd/batch.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>

#include "analysis/hooks.hpp"
#include "linalg/blas1.hpp"
#include "linalg/dispatch.hpp"
#include "linalg/rotation.hpp"
#include "svd/driver_detail.hpp"
#include "svd/equilibrate.hpp"
#include "svd/recovery.hpp"
#include "util/aligned.hpp"
#include "util/require.hpp"
#include "util/thread_pool.hpp"

namespace treesvd {
namespace {

using detail::SweepGuards;

constexpr bool valid_lane_width(std::size_t w) noexcept {
  return w == 4 || w == 8 || w == 16;
}

void gather_lane(const double* block, std::size_t m, std::size_t w, std::size_t b,
                 double* __restrict dst) noexcept {
  for (std::size_t i = 0; i < m; ++i) dst[i] = block[i * w + b];
}

}  // namespace

/// Per-shard working state. Every buffer is sized once (make_shard) and
/// reused across solves — the pack/iterate/retire cycle is allocation-free.
struct BatchedSvd::Shard {
  // SoA arenas: column j's lane block starts at h[j*m*w]; element i of lane
  // b sits at h[(j*m + i)*w + b]. v uses the same layout with n_p rows.
  // 64-byte aligned so full-width vector accesses never split a cache line.
  AlignedVec<double> h;
  AlignedVec<double> v;

  // Per-lane engine state (lane_width entries each): the partial result
  // (sweep tallies, convergence, kernel stats) that finalize completes.
  std::vector<std::uint8_t> active;
  std::vector<SvdResult> partial;
  std::vector<SweepGuards> guards;
  std::vector<std::size_t> sweep_rot;
  std::vector<std::size_t> sweep_swap;

  // Per-pair decision scratch (lane_width entries each, 64-byte aligned —
  // the decision kernels read them as whole vectors).
  AlignedVec<double> apq;
  AlignedVec<double> app;
  AlignedVec<double> aqq;
  AlignedVec<double> c;
  AlignedVec<double> s;
  std::vector<std::uint8_t> rot_mask;
  std::vector<std::uint8_t> swap_mask;
  std::vector<std::uint8_t> ident;

  /// Staging matrix (m x n_p) for pack: pad + equilibrate run here with the
  /// exact sequential-driver routines before scattering into the arena.
  Matrix pack;

  /// The current sweep's opening layout, and the next one's.
  std::vector<int> layout;
  std::vector<int> next_layout;

  /// Live lanes this solve (the rest are zero-filled and never active).
  std::size_t count = 0;
};

BatchedSvd::BatchedSvd(std::size_t rows, std::size_t cols, const Ordering& ordering,
                       BatchedSvdOptions options)
    : rows_(rows), cols_(cols), options_(std::move(options)), ordering_name_(ordering.name()) {
  TREESVD_REQUIRE(rows_ >= cols_ && cols_ >= 2, "BatchedSvd expects m >= n >= 2");
  TREESVD_REQUIRE(valid_lane_width(options_.lane_width),
                  "BatchedSvd lane_width must be 4, 8 or 16");
  TREESVD_REQUIRE(!options_.jacobi.track_off,
                  "BatchedSvd does not support track_off (per-sweep O(n^2 m) diagnostics)");
  padded_n_ = detail::require_padded_width(ordering, static_cast<int>(cols_));
  // Orderings are position procedures, so the plans are data-independent:
  // built once here and shared read-only by every lane, shard and solve.
  plans_ = plan_sweeps(ordering, padded_n_);
}

BatchedSvd::~BatchedSvd() = default;

std::size_t BatchedSvd::capacity() const noexcept {
  return shards_.size() * options_.lane_width;
}

std::unique_ptr<BatchedSvd::Shard> BatchedSvd::make_shard() const {
  const std::size_t w = options_.lane_width;
  const std::size_t m = rows_;
  const auto np = static_cast<std::size_t>(padded_n_);
  auto sh = std::make_unique<Shard>();
  sh->h.resize(m * np * w);
  if (options_.jacobi.compute_v) sh->v.resize(np * np * w);
  sh->active.resize(w);
  sh->partial.resize(w);
  sh->guards.resize(w);
  sh->sweep_rot.resize(w);
  sh->sweep_swap.resize(w);
  sh->apq.resize(w);
  sh->app.resize(w);
  sh->aqq.resize(w);
  sh->c.resize(w);
  sh->s.resize(w);
  sh->rot_mask.resize(w);
  sh->swap_mask.resize(w);
  sh->ident.resize(w);
  sh->pack = Matrix(m, np);
  sh->layout.resize(np);
  sh->next_layout.resize(np);
  return sh;
}

void BatchedSvd::reserve(std::size_t batch) {
  const std::size_t w = options_.lane_width;
  const std::size_t want = (batch + w - 1) / w;
  while (shards_.size() < want) shards_.push_back(make_shard());
}

std::vector<SvdResult> BatchedSvd::solve(std::span<const Matrix> inputs, ThreadPool* pool) {
  std::vector<SvdResult> results(inputs.size());
  std::vector<const Matrix*> in(inputs.size());
  std::vector<SvdResult*> out(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    in[i] = &inputs[i];
    out[i] = &results[i];
  }
  solve_into(in, out, pool);
  return results;
}

void BatchedSvd::solve_into(std::span<const Matrix* const> inputs,
                            std::span<SvdResult* const> results, ThreadPool* pool) {
  TREESVD_REQUIRE(inputs.size() == results.size(),
                  "BatchedSvd::solve_into needs one result slot per input");
  if (inputs.empty()) return;
  for (const Matrix* a : inputs) {
    TREESVD_REQUIRE(a != nullptr, "BatchedSvd::solve_into null input");
    TREESVD_REQUIRE(a->rows() == rows_ && a->cols() == cols_,
                    "BatchedSvd input shape mismatch");
    require_finite_columns(*a, "batched_svd");
  }
  const std::size_t w = options_.lane_width;
  const std::size_t nshards = (inputs.size() + w - 1) / w;
  reserve(inputs.size());

  const auto shard_task = [&](std::size_t sidx) {
    TREESVD_HB_SCOPED_FRAME(shard_frame,
                            [&] { return "batched shard " + std::to_string(sidx); });
    // Each shard's state is owned by exactly one task per solve; a second
    // task landing on the same shard index would be flagged as a race here.
    TREESVD_HB_WRITE(this, sidx, "BatchedSvd shard");
    Shard& sh = *shards_[sidx];
    const std::size_t b0 = sidx * w;
    const std::size_t cnt = std::min(w, inputs.size() - b0);
    pack_shard(sh, inputs.subspan(b0, cnt));
    iterate_shard(sh);
    finalize_shard(sh, inputs.subspan(b0, cnt), results.subspan(b0, cnt));
  };
  if (pool != nullptr && nshards > 1) {
    pool->parallel_for(nshards, shard_task, 1);
  } else {
    for (std::size_t sidx = 0; sidx < nshards; ++sidx) shard_task(sidx);
  }
}

void BatchedSvd::solve_single_into(const Matrix& a, SvdResult* result) {
  const Matrix* in = &a;
  SvdResult* out = result;
  solve_into({&in, 1}, {&out, 1}, nullptr);
}

void BatchedSvd::pack_shard(Shard& sh, std::span<const Matrix* const> inputs) {
  const std::size_t w = options_.lane_width;
  const std::size_t m = rows_;
  const auto np = static_cast<std::size_t>(padded_n_);
  const JacobiOptions& jo = options_.jacobi;
  sh.count = inputs.size();

  // Unused lanes must hold finite data (zeros) — the SIMD passes compute
  // across all lanes and masked lanes feed nothing back, but NaNs would
  // still be *read*.
  std::fill(sh.h.begin(), sh.h.end(), 0.0);
  std::fill(sh.v.begin(), sh.v.end(), 0.0);
  for (std::size_t b = 0; b < w; ++b) {
    sh.active[b] = b < sh.count ? 1 : 0;
    sh.partial[b] = SvdResult{};
    sh.guards[b] = SweepGuards{};
    sh.rot_mask[b] = 0;
    sh.swap_mask[b] = 0;
    sh.c[b] = 1.0;
    sh.s[b] = 0.0;
  }

  for (std::size_t b = 0; b < sh.count; ++b) {
    const Matrix& a = *inputs[b];
    Matrix& t = sh.pack;
    // Stage = pad_columns + equilibrate of the sequential driver, run on the
    // reusable staging matrix: identical content, identical ScaleStats,
    // identical scaling decision.
    for (std::size_t j = 0; j < cols_; ++j) {
      const auto src = a.col(j);
      const auto dst = t.col(j);
      std::copy(src.begin(), src.end(), dst.begin());
    }
    for (std::size_t j = cols_; j < np; ++j) {
      const auto dst = t.col(j);
      std::fill(dst.begin(), dst.end(), 0.0);
    }
    sh.guards[b].eq = equilibrate(t, jo.equilibrate);

    // Scatter into the SoA arena; V starts as the identity per lane.
    const auto td = t.data();
    for (std::size_t j = 0; j < np; ++j) {
      const double* src = td.data() + j * m;
      double* blk = sh.h.data() + j * m * w;
      for (std::size_t i = 0; i < m; ++i) blk[i * w + b] = src[i];
    }
    if (jo.compute_v) {
      for (std::size_t j = 0; j < np; ++j) sh.v[(j * np + j) * w + b] = 1.0;
    }
  }
}

void BatchedSvd::iterate_shard(Shard& sh) {
  const JacobiOptions& jo = options_.jacobi;
  std::iota(sh.layout.begin(), sh.layout.end(), 0);
  for (int sweep = 0; sweep < jo.max_sweeps; ++sweep) {
    bool any_active = false;
    for (std::size_t b = 0; b < sh.count; ++b) any_active |= sh.active[b] != 0;
    if (!any_active) break;
    // One writer per sweep over this shard's arena: overlapping shard tasks
    // (a batching bug) show up as a race on this location.
    TREESVD_HB_WRITE(sh.h.data(), static_cast<std::size_t>(sweep), "BatchedSvd arena");

    const SweepPlan& plan = plans_[static_cast<std::size_t>(sweep) % plans_.size()];
    const std::size_t pairs = plan.pairs().size();
    std::fill(sh.sweep_rot.begin(), sh.sweep_rot.end(), 0);
    std::fill(sh.sweep_swap.begin(), sh.sweep_swap.end(), 0);
    for (const IndexPair& p : plan.pairs()) {
      const auto [i, j] = detail::plan_columns(sh.layout, p);
      process_pair(sh, i, j);
    }
    plan.advance(sh.layout, sh.next_layout);
    sh.layout.swap(sh.next_layout);

    for (std::size_t b = 0; b < sh.count; ++b) {
      if (sh.active[b] == 0) continue;
      TREESVD_HB_WRITE(sh.partial.data(), b, "BatchedSvd lane counters");
      // The active set is constant within a sweep, so the per-pair counters
      // advance by the sweep's pair count in one step here instead of
      // per-lane increments inside the hot pair loop.
      KernelStats& ks = sh.partial[b].kernel_stats;
      ks.pairs += pairs;
      ks.gram_passes += pairs;
      // A converged lane retires: data and counters freeze, guards stop
      // observing — exactly where the sequential run breaks its loop.
      if (detail::end_sweep(sh.partial[b], sweep, sh.sweep_rot[b], sh.sweep_swap[b],
                            sh.guards[b].stall))
        sh.active[b] = 0;
    }
  }
}

void BatchedSvd::process_pair(Shard& sh, int i, int j) {
  const std::size_t w = options_.lane_width;
  const std::size_t m = rows_;
  const auto np = static_cast<std::size_t>(padded_n_);
  const JacobiOptions& jo = options_.jacobi;
  double* x = sh.h.data() + static_cast<std::size_t>(i) * m * w;
  double* y = sh.h.data() + static_cast<std::size_t>(j) * m * w;
  // One batched gram_pair pass and the batched decision math — lane b is
  // bitwise PairKernel::process on lane b's columns. (pairs/gram_passes
  // counters advance once per sweep in iterate_shard — the active set is
  // constant within a sweep.)
  batched_gram_pair(x, y, m, w, sh.app.data(), sh.aqq.data(), sh.apq.data());
  batched_compute_rotation(sh.app.data(), sh.aqq.data(), sh.apq.data(), w, jo.tol, sh.c.data(),
                           sh.s.data(), sh.ident.data());

  std::fill(sh.rot_mask.begin(), sh.rot_mask.end(), 0);
  std::fill(sh.swap_mask.begin(), sh.swap_mask.end(), 0);
  bool any_rot = false;
  for (std::size_t b = 0; b < sh.count; ++b) {
    if (sh.active[b] == 0) continue;
    KernelStats& ks = sh.partial[b].kernel_stats;
    const bool identity = sh.ident[b] != 0;
    const bool want_swap = jo.sort == SortMode::kDescending && sh.app[b] < sh.aqq[b];
    if (identity && !want_swap) continue;
    sh.rot_mask[b] = 1;
    sh.swap_mask[b] = want_swap ? 1 : 0;
    ++ks.rotate_passes;
    if (want_swap) {
      ++sh.sweep_swap[b];
      if (!identity) ++sh.sweep_rot[b];
    } else {
      ++sh.sweep_rot[b];
    }
    any_rot = true;
  }
  if (!any_rot) return;

  batched_apply_rotation(x, y, m, w, sh.c.data(), sh.s.data(), sh.rot_mask.data(),
                         sh.swap_mask.data());
  if (jo.compute_v) {
    double* vx = sh.v.data() + static_cast<std::size_t>(i) * np * w;
    double* vy = sh.v.data() + static_cast<std::size_t>(j) * np * w;
    batched_apply_rotation(vx, vy, np, w, sh.c.data(), sh.s.data(), sh.rot_mask.data(),
                           sh.swap_mask.data());
  }
}

void BatchedSvd::finalize_shard(Shard& sh, std::span<const Matrix* const> inputs,
                                std::span<SvdResult* const> results) {
  const std::size_t w = options_.lane_width;
  const std::size_t m = rows_;
  const auto np = static_cast<std::size_t>(padded_n_);
  const JacobiOptions& jo = options_.jacobi;
  for (std::size_t b = 0; b < sh.count; ++b) {
    TREESVD_HB_WRITE(results.data(), b, "BatchedSvd result");
    Matrix hb(m, np);
    for (std::size_t j = 0; j < np; ++j)
      gather_lane(sh.h.data() + j * m * w, m, w, b, hb.col(j).data());
    Matrix vb;
    if (jo.compute_v) {
      vb = Matrix(np, np);
      for (std::size_t j = 0; j < np; ++j)
        gather_lane(sh.v.data() + j * np * w, np, w, b, vb.col(j).data());
    }
    // Matches the sequential driver's report bit-for-bit: the tier is the
    // process-wide resolution both engines' kernels are served from.
    sh.partial[b].kernel_stats.isa_tier = static_cast<int>(kernels().tier);
    *results[b] = detail::finalize(hb, vb, *inputs[b], jo.rank_tol, jo.full_diagnostics,
                                   sh.guards[b], std::move(sh.partial[b]));
  }
}

}  // namespace treesvd
