#include "svd/batch.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "analysis/hooks.hpp"
#include "linalg/blas1.hpp"
#include "linalg/dispatch.hpp"
#include "linalg/rotation.hpp"
#include "svd/driver_detail.hpp"
#include "svd/equilibrate.hpp"
#include "svd/pair_kernel.hpp"
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
  /// Cached squared norms, SoA: cache[j*w + b] mirrors NormCache::sq(j) of
  /// lane b's sequential run.
  AlignedVec<double> cache;

  // Per-lane engine state (lane_width entries each).
  std::vector<std::uint8_t> active;
  std::vector<std::uint8_t> converged;
  std::vector<SweepGuards> guards;
  std::vector<KernelStats> stats;
  std::vector<std::size_t> rotations;
  std::vector<std::size_t> swaps;
  std::vector<int> sweeps;
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
  std::vector<std::uint8_t> near;
  /// Batched drift-guard re-reduction scratch: fresh unscaled column sums of
  /// the pair, all lanes at once.
  AlignedVec<double> norm_x;
  AlignedVec<double> norm_y;

  /// Contiguous gather scratch for the rare per-lane scalar paths
  /// (overflowed dot retry, drift-guard re-reduction, watchdog refresh):
  /// 2*m doubles.
  std::vector<double> lane_buf;
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
  padded_n_ = detail::padded_width(ordering, static_cast<int>(cols_));
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
  sh->cache.resize(np * w);
  sh->active.resize(w);
  sh->converged.resize(w);
  sh->guards.assign(w, SweepGuards(options_.jacobi));
  sh->stats.resize(w);
  sh->rotations.resize(w);
  sh->swaps.resize(w);
  sh->sweeps.resize(w);
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
  sh->near.resize(w);
  sh->norm_x.resize(w);
  sh->norm_y.resize(w);
  sh->lane_buf.resize(2 * m);
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
  // Same per-solve tier override as the sequential drivers; the batched and
  // single-problem paths then report the same resolved tier in KernelStats
  // (one process-wide dispatch resolution, linalg/dispatch.hpp).
  const ScopedIsaOverride isa_guard(options_.jacobi.force_isa);
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
  std::fill(sh.cache.begin(), sh.cache.end(), 0.0);
  for (std::size_t b = 0; b < w; ++b) {
    sh.active[b] = b < sh.count ? 1 : 0;
    sh.converged[b] = 0;
    sh.guards[b] = SweepGuards(jo);
    sh.stats[b] = KernelStats{};
    sh.rotations[b] = 0;
    sh.swaps[b] = 0;
    sh.sweeps[b] = 0;
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
    // Initial cache fill mirrors NormCache::refresh: sumsq_robust per
    // column, counted as np refreshes.
    if (jo.cache_norms) {
      for (std::size_t j = 0; j < np; ++j) sh.cache[j * w + b] = sumsq_robust(t.col(j));
      sh.stats[b].norm_refreshes += np;
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

    if (jo.cache_norms && detail::scheduled_refresh_due(sweep, jo)) scheduled_cache_refresh(sh);

    const SweepPlan& plan = plans_[static_cast<std::size_t>(sweep) % plans_.size()];
    const std::size_t pairs = plan.pairs().size();
    std::fill(sh.sweep_rot.begin(), sh.sweep_rot.end(), 0);
    std::fill(sh.sweep_swap.begin(), sh.sweep_swap.end(), 0);
    for (const IndexPair& p : plan.pairs()) {
      const auto [i, j] = detail::plan_columns(sh.layout, p);
      if (jo.cache_norms) {
        process_pair_cached(sh, i, j);
      } else {
        process_pair_plain(sh, i, j);
      }
    }
    plan.advance(sh.layout, sh.next_layout);
    sh.layout.swap(sh.next_layout);

    for (std::size_t b = 0; b < sh.count; ++b) {
      if (sh.active[b] == 0) continue;
      TREESVD_HB_WRITE(sh.stats.data(), b, "BatchedSvd lane counters");
      // The active set is constant within a sweep, so the per-pair counters
      // advance by the sweep's pair count in one step here instead of
      // per-lane increments inside the hot pair loop.
      KernelStats& ks = sh.stats[b];
      ks.pairs += pairs;
      if (jo.cache_norms) {
        ks.dot_passes += pairs;
      } else {
        ks.gram_passes += pairs;
      }
      sh.rotations[b] += sh.sweep_rot[b];
      sh.swaps[b] += sh.sweep_swap[b];
      sh.sweeps[b] = sweep + 1;
      if (sh.sweep_rot[b] == 0 && sh.sweep_swap[b] == 0) {
        // Lane retires: data, cache and counters freeze, guards stop
        // observing — exactly where the sequential run breaks its loop.
        sh.converged[b] = 1;
        sh.active[b] = 0;
        continue;
      }
      if (sh.guards[b].observe(static_cast<double>(sh.sweep_rot[b] + sh.sweep_swap[b])) &&
          jo.cache_norms)
        lane_cache_refresh(sh, b);
    }
  }
}

void BatchedSvd::process_pair_cached(Shard& sh, int i, int j) {
  const std::size_t w = options_.lane_width;
  const std::size_t m = rows_;
  const auto np = static_cast<std::size_t>(padded_n_);
  const JacobiOptions& jo = options_.jacobi;
  double* x = sh.h.data() + static_cast<std::size_t>(i) * m * w;
  double* y = sh.h.data() + static_cast<std::size_t>(j) * m * w;
  // One batched accumulation replaces the per-problem dot of the cached
  // path, and the sqrt/divide-heavy decision math runs batched too (the
  // drift gate and rotation decisions below) — only the rare recovery paths
  // gather a lane and fall back to the scalar kernels.
  if (options_.use_simd) {
    batched_dot(x, y, m, w, sh.apq.data());
  } else {
    batched_dot_ref(x, y, m, w, sh.apq.data());
  }

  // Common case: every lane's dot is finite and both cached norms are
  // plausible, so the per-lane loads collapse to two row copies plus one
  // branchless validity scan. (pairs/dot_passes counters advance once per
  // sweep in iterate_shard — the active set is constant within a sweep.)
  std::memcpy(sh.app.data(), sh.cache.data() + static_cast<std::size_t>(i) * w,
              w * sizeof(double));
  std::memcpy(sh.aqq.data(), sh.cache.data() + static_cast<std::size_t>(j) * w,
              w * sizeof(double));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  bool fixup = false;
  for (std::size_t b = 0; b < w; ++b) {
    // NaN fails every comparison, so non-finite and negative values all
    // route to the fixup loop below. Retired lanes with frozen non-finite
    // data keep tripping this scan — the fixup loop skips them, costing
    // only the old per-lane walk.
    fixup |= !(std::fabs(sh.apq[b]) < kInf);
    fixup |= !(sh.app[b] >= 0.0) | !(sh.app[b] < kInf);
    fixup |= !(sh.aqq[b] >= 0.0) | !(sh.aqq[b] < kInf);
  }
  if (fixup) {
    for (std::size_t b = 0; b < sh.count; ++b) {
      if (sh.active[b] == 0) continue;
      if (!std::isfinite(sh.apq[b])) {
        // Overflowed accumulation: retry with the exact prescaled form on
        // the gathered lane (bitwise the sequential retry).
        gather_lane(x, m, w, b, sh.lane_buf.data());
        gather_lane(y, m, w, b, sh.lane_buf.data() + m);
        sh.apq[b] = dot_scaled({sh.lane_buf.data(), m}, {sh.lane_buf.data() + m, m});
      }
      if (!cached_norm_plausible(sh.app[b]) || !cached_norm_plausible(sh.aqq[b])) {
        gather_lane(x, m, w, b, sh.lane_buf.data());
        sh.app[b] = sumsq_robust({sh.lane_buf.data(), m});
        gather_lane(y, m, w, b, sh.lane_buf.data());
        sh.aqq[b] = sumsq_robust({sh.lane_buf.data(), m});
        sh.stats[b].norm_refreshes += 2;
      }
    }
  }

  if (options_.use_simd) {
    batched_drift_gate(sh.app.data(), sh.aqq.data(), sh.apq.data(), w, jo.tol,
                       detail::kNormDriftGuard, sh.near.data());
  } else {
    detail::batched_drift_gate_scalar(sh.app.data(), sh.aqq.data(), sh.apq.data(), w, jo.tol,
                                      detail::kNormDriftGuard, sh.near.data());
  }
  std::uint8_t any8 = 0;
  for (std::size_t b = 0; b < sh.count; ++b)
    any8 = static_cast<std::uint8_t>(any8 | (sh.near[b] & sh.active[b]));
  const bool any_near = any8 != 0;
  if (any_near) {
    // Near-threshold lanes re-reduce both norms from the stored columns
    // before trusting the orthogonality test. One batched sumsq per column
    // covers every such lane (lane b equals the sequential path's unscaled
    // sumsq bitwise); the dlassq-style retry on a non-finite sum gathers the
    // lane, completing sumsq_robust's exact fast-path/fallback split.
    if (options_.use_simd) {
      batched_sumsq(x, m, w, sh.norm_x.data());
      batched_sumsq(y, m, w, sh.norm_y.data());
    } else {
      batched_sumsq_ref(x, m, w, sh.norm_x.data());
      batched_sumsq_ref(y, m, w, sh.norm_y.data());
    }
    for (std::size_t b = 0; b < sh.count; ++b) {
      if (sh.active[b] == 0 || sh.near[b] == 0) continue;
      double app = sh.norm_x[b];
      if (!std::isfinite(app)) {
        gather_lane(x, m, w, b, sh.lane_buf.data());
        app = sumsq_scaled({sh.lane_buf.data(), m}).value();
      }
      double aqq = sh.norm_y[b];
      if (!std::isfinite(aqq)) {
        gather_lane(y, m, w, b, sh.lane_buf.data());
        aqq = sumsq_scaled({sh.lane_buf.data(), m}).value();
      }
      sh.app[b] = app;
      sh.aqq[b] = aqq;
      sh.stats[b].norm_refreshes += 2;
    }
  }

  if (options_.use_simd) {
    batched_compute_rotation(sh.app.data(), sh.aqq.data(), sh.apq.data(), w, jo.tol,
                             sh.c.data(), sh.s.data(), sh.ident.data());
  } else {
    detail::batched_compute_rotation_scalar(sh.app.data(), sh.aqq.data(), sh.apq.data(), w,
                                            jo.tol, sh.c.data(), sh.s.data(), sh.ident.data());
  }

  // Whole-row writeback: active lanes store the (possibly re-reduced) norms
  // — the sequential cache.set calls do the same — while retired lanes write
  // back the copy loaded above, bitwise a no-op.
  std::memcpy(sh.cache.data() + static_cast<std::size_t>(i) * w, sh.app.data(),
              w * sizeof(double));
  std::memcpy(sh.cache.data() + static_cast<std::size_t>(j) * w, sh.aqq.data(),
              w * sizeof(double));
  std::fill(sh.rot_mask.begin(), sh.rot_mask.end(), 0);
  std::fill(sh.swap_mask.begin(), sh.swap_mask.end(), 0);
  bool any_rot = false;
  for (std::size_t b = 0; b < sh.count; ++b) {
    if (sh.active[b] == 0) continue;
    const bool identity = sh.ident[b] != 0;
    const bool want_swap = jo.sort == SortMode::kDescending && sh.app[b] < sh.aqq[b];
    if (identity && !want_swap) continue;
    sh.rot_mask[b] = 1;
    sh.swap_mask[b] = want_swap ? 1 : 0;
    ++sh.stats[b].rotate_passes;
    if (want_swap) {
      ++sh.sweep_swap[b];
      if (!identity) ++sh.sweep_rot[b];
    } else {
      ++sh.sweep_rot[b];
    }
    any_rot = true;
  }
  if (!any_rot) return;

  if (options_.use_simd) {
    batched_rotate_and_norms(x, y, m, w, sh.c.data(), sh.s.data(), sh.rot_mask.data(),
                             sh.swap_mask.data(), sh.app.data(), sh.aqq.data());
  } else {
    batched_rotate_and_norms_ref(x, y, m, w, sh.c.data(), sh.s.data(), sh.rot_mask.data(),
                                 sh.swap_mask.data(), sh.app.data(), sh.aqq.data());
  }
  for (std::size_t b = 0; b < sh.count; ++b) {
    if (sh.rot_mask[b] == 0) continue;
    sh.cache[static_cast<std::size_t>(i) * w + b] = sh.app[b];
    sh.cache[static_cast<std::size_t>(j) * w + b] = sh.aqq[b];
  }
  if (jo.compute_v) {
    double* vx = sh.v.data() + static_cast<std::size_t>(i) * np * w;
    double* vy = sh.v.data() + static_cast<std::size_t>(j) * np * w;
    if (options_.use_simd) {
      batched_apply_rotation(vx, vy, np, w, sh.c.data(), sh.s.data(), sh.rot_mask.data(),
                             sh.swap_mask.data());
    } else {
      batched_apply_rotation_ref(vx, vy, np, w, sh.c.data(), sh.s.data(), sh.rot_mask.data(),
                                 sh.swap_mask.data());
    }
  }
}

void BatchedSvd::process_pair_plain(Shard& sh, int i, int j) {
  const std::size_t w = options_.lane_width;
  const std::size_t m = rows_;
  const auto np = static_cast<std::size_t>(padded_n_);
  const JacobiOptions& jo = options_.jacobi;
  double* x = sh.h.data() + static_cast<std::size_t>(i) * m * w;
  double* y = sh.h.data() + static_cast<std::size_t>(j) * m * w;
  if (options_.use_simd) {
    batched_gram_pair(x, y, m, w, sh.app.data(), sh.aqq.data(), sh.apq.data());
  } else {
    batched_gram_pair_ref(x, y, m, w, sh.app.data(), sh.aqq.data(), sh.apq.data());
  }

  if (options_.use_simd) {
    batched_compute_rotation(sh.app.data(), sh.aqq.data(), sh.apq.data(), w, jo.tol,
                             sh.c.data(), sh.s.data(), sh.ident.data());
  } else {
    detail::batched_compute_rotation_scalar(sh.app.data(), sh.aqq.data(), sh.apq.data(), w,
                                            jo.tol, sh.c.data(), sh.s.data(), sh.ident.data());
  }

  std::fill(sh.rot_mask.begin(), sh.rot_mask.end(), 0);
  std::fill(sh.swap_mask.begin(), sh.swap_mask.end(), 0);
  bool any_rot = false;
  for (std::size_t b = 0; b < sh.count; ++b) {
    if (sh.active[b] == 0) continue;
    KernelStats& ks = sh.stats[b];
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

  if (options_.use_simd) {
    batched_apply_rotation(x, y, m, w, sh.c.data(), sh.s.data(), sh.rot_mask.data(),
                           sh.swap_mask.data());
  } else {
    batched_apply_rotation_ref(x, y, m, w, sh.c.data(), sh.s.data(), sh.rot_mask.data(),
                               sh.swap_mask.data());
  }
  if (jo.compute_v) {
    double* vx = sh.v.data() + static_cast<std::size_t>(i) * np * w;
    double* vy = sh.v.data() + static_cast<std::size_t>(j) * np * w;
    if (options_.use_simd) {
      batched_apply_rotation(vx, vy, np, w, sh.c.data(), sh.s.data(), sh.rot_mask.data(),
                             sh.swap_mask.data());
    } else {
      batched_apply_rotation_ref(vx, vy, np, w, sh.c.data(), sh.s.data(), sh.rot_mask.data(),
                                 sh.swap_mask.data());
    }
  }
}

void BatchedSvd::scheduled_cache_refresh(Shard& sh) {
  const std::size_t w = options_.lane_width;
  const std::size_t m = rows_;
  const auto np = static_cast<std::size_t>(padded_n_);
  // Batched analogue of NormCache::refresh for every still-active lane: the
  // fast unscaled reduction per column across lanes, with the dlassq-style
  // retry gathered per lane on a non-finite sum (== sumsq_robust per lane).
  for (std::size_t j = 0; j < np; ++j) {
    const double* col = sh.h.data() + j * m * w;
    if (options_.use_simd) {
      batched_sumsq(col, m, w, sh.app.data());
    } else {
      batched_sumsq_ref(col, m, w, sh.app.data());
    }
    for (std::size_t b = 0; b < sh.count; ++b) {
      if (sh.active[b] == 0) continue;
      double v = sh.app[b];
      if (!std::isfinite(v)) {
        gather_lane(col, m, w, b, sh.lane_buf.data());
        v = sumsq_scaled({sh.lane_buf.data(), m}).value();
      }
      sh.cache[j * w + b] = v;
    }
  }
  for (std::size_t b = 0; b < sh.count; ++b) {
    if (sh.active[b] != 0) sh.stats[b].norm_refreshes += np;
  }
}

void BatchedSvd::lane_cache_refresh(Shard& sh, std::size_t lane) {
  const std::size_t w = options_.lane_width;
  const std::size_t m = rows_;
  const auto np = static_cast<std::size_t>(padded_n_);
  // Watchdog-forced refresh of one lane (rare): gather each column and run
  // the exact scalar re-reduction.
  for (std::size_t j = 0; j < np; ++j) {
    gather_lane(sh.h.data() + j * m * w, m, w, lane, sh.lane_buf.data());
    sh.cache[j * w + lane] = sumsq_robust({sh.lane_buf.data(), m});
  }
  sh.stats[lane].norm_refreshes += np;
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
    SvdResult partial;
    partial.sweeps = sh.sweeps[b];
    partial.converged = sh.converged[b] != 0;
    partial.rotations = sh.rotations[b];
    partial.swaps = sh.swaps[b];
    partial.kernel_stats = sh.stats[b];
    // Matches the sequential driver's report bit-for-bit: the tier is the
    // process-wide resolution, whether the lane kernels ran vectorized or on
    // the gather + scalar reference path (use_simd == false) — both are
    // served from the same dispatch table.
    partial.kernel_stats.isa_tier = static_cast<int>(kernels().tier);
    *results[b] = detail::finalize(std::move(hb), std::move(vb), *inputs[b], jo, sh.guards[b],
                                   std::move(partial));
  }
}

}  // namespace treesvd
