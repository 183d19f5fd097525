#include "linalg/gemm.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <mutex>
#include <utility>

#include "analysis/hooks.hpp"
#include "linalg/blas1.hpp"
#include "linalg/dispatch.hpp"
#include "util/require.hpp"
#include "util/thread_pool.hpp"

namespace treesvd {
namespace {

constexpr std::size_t kMr = GemmTiling::mr;
constexpr std::size_t kNr = GemmTiling::nr;

/// Products below this many flops (2mnk) run the plain jki loop: packing
/// buffers and tile bookkeeping cost more than the whole product.
constexpr std::size_t kNaiveFlops = 2 * 4096;

/// Work below this many flops stays on the calling thread even when a pool
/// is supplied — a fork-join costs more than the product.
constexpr std::size_t kParallelFlops = std::size_t{1} << 23;

/// The shared pool is single-caller (ThreadPool::parallel_for keeps its
/// batch state in member slots), so entry points race for this gate; losers
/// run serially instead of corrupting the batch.
std::mutex& pool_gate() {
  static std::mutex gate;
  return gate;
}

std::atomic<std::size_t> stat_pooled{0};
std::atomic<std::size_t> stat_serial{0};
std::atomic<std::size_t> stat_inline{0};

/// Runs task(i) for i in [0, count) in chunks of `grain` consecutive
/// indices. Route order: caller-owned pool (its owner vouches for
/// exclusivity — no gate), shared pool when the gate is free, serial when it
/// is not. The serial routes walk the same grain-chunked order the pools
/// hand out, so the configured grain survives gate contention — which route
/// wins never changes the work decomposition. Tasks write disjoint output,
/// so every route produces identical results.
void dispatch(std::size_t count, std::size_t flops, ThreadPool* pool, std::size_t grain,
              const std::function<void(std::size_t)>& task) {
  const std::size_t g = std::max<std::size_t>(grain, 1);
  const auto run_serial = [&] {
    for (std::size_t c0 = 0; c0 < count; c0 += g) {
      const std::size_t end = std::min(count, c0 + g);
      for (std::size_t i = c0; i < end; ++i) task(i);
    }
  };
  if (pool == nullptr || count <= 1 || flops < kParallelFlops) {
    stat_inline.fetch_add(1, std::memory_order_relaxed);
    run_serial();
    return;
  }
  if (pool != gemm_pool()) {
    stat_pooled.fetch_add(1, std::memory_order_relaxed);
    pool->parallel_for(count, task, g);
    return;
  }
  if (pool_gate().try_lock()) {
    const std::unique_lock<std::mutex> gate(pool_gate(), std::adopt_lock);
    stat_pooled.fetch_add(1, std::memory_order_relaxed);
    pool->parallel_for(count, task, g);
    return;
  }
  stat_serial.fetch_add(1, std::memory_order_relaxed);
  run_serial();
}

/// jki loop for tiny products (streams down columns of a and c).
void gemm_naive(Matrix& c, const Matrix& a, const Matrix& b) {
  for (std::size_t j = 0; j < b.cols(); ++j) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double bkj = b(k, j);
      if (bkj == 0.0) continue;
      const auto ak = a.col(k);
      const auto cj = c.col(j);
      for (std::size_t i = 0; i < a.rows(); ++i) cj[i] += ak[i] * bkj;
    }
  }
}

/// Packs the mc_eff x kc_eff block of `a` at (i0, k0) into row micro-panels:
/// panel p holds rows [i0 + p*mr, i0 + (p+1)*mr), stored as mr consecutive
/// values per k so the micro-kernel loads are contiguous. Edge rows are
/// zero-padded (they contribute nothing and are never written back).
void pack_a(const Matrix& a, std::size_t i0, std::size_t mc_eff, std::size_t k0,
            std::size_t kc_eff, double* __restrict dst) {
  const std::size_t panels = (mc_eff + kMr - 1) / kMr;
  for (std::size_t p = 0; p < panels; ++p) {
    const std::size_t r0 = i0 + p * kMr;
    const std::size_t rows = std::min(kMr, i0 + mc_eff - r0);
    double* __restrict out = dst + p * kc_eff * kMr;
    for (std::size_t k = 0; k < kc_eff; ++k) {
      const double* __restrict src = a.col(k0 + k).data() + r0;
      std::size_t r = 0;
      for (; r < rows; ++r) out[k * kMr + r] = src[r];
      for (; r < kMr; ++r) out[k * kMr + r] = 0.0;
    }
  }
}

/// Packs the kc_eff x nc_eff block of `b` at (k0, j0) into column
/// micro-panels of nr columns, nr consecutive values per k, zero-padded.
void pack_b(const Matrix& b, std::size_t k0, std::size_t kc_eff, std::size_t j0,
            std::size_t nc_eff, double* __restrict dst) {
  const std::size_t panels = (nc_eff + kNr - 1) / kNr;
  for (std::size_t p = 0; p < panels; ++p) {
    const std::size_t c0 = j0 + p * kNr;
    const std::size_t ncols = std::min(kNr, j0 + nc_eff - c0);
    double* __restrict out = dst + p * kc_eff * kNr;
    for (std::size_t k = 0; k < kc_eff; ++k) {
      for (std::size_t c = 0; c < ncols; ++c) out[k * kNr + c] = b(k0 + k, c0 + c);
      for (std::size_t c = ncols; c < kNr; ++c) out[k * kNr + c] = 0.0;
    }
  }
}

}  // namespace

ThreadPool* gemm_pool() {
  static ThreadPool pool;
  return &pool;
}

GemmDispatchStats gemm_dispatch_stats() noexcept {
  GemmDispatchStats s;
  s.pooled = stat_pooled.load(std::memory_order_relaxed);
  s.serial = stat_serial.load(std::memory_order_relaxed);
  s.inline_small = stat_inline.load(std::memory_order_relaxed);
  return s;
}

void gemm_dispatch_stats_reset() noexcept {
  stat_pooled.store(0, std::memory_order_relaxed);
  stat_serial.store(0, std::memory_order_relaxed);
  stat_inline.store(0, std::memory_order_relaxed);
}

namespace detail {
ScopedGemmGateHold::ScopedGemmGateHold() { pool_gate().lock(); }
ScopedGemmGateHold::~ScopedGemmGateHold() { pool_gate().unlock(); }
}  // namespace detail

void gemm_into(Matrix& c, const Matrix& a, const Matrix& b, ThreadPool* pool,
               const GemmTiling& tiling) {
  TREESVD_REQUIRE(a.cols() == b.rows(), "matrix product dimension mismatch");
  TREESVD_REQUIRE(c.rows() == a.rows() && c.cols() == b.cols(),
                  "gemm_into output shape mismatch");
  const std::size_t m = a.rows();
  const std::size_t n = b.cols();
  const std::size_t kk = a.cols();
  std::fill(c.data().begin(), c.data().end(), 0.0);
  if (m == 0 || n == 0 || kk == 0) return;

  const std::size_t flops = 2 * m * n * kk;
  if (flops < kNaiveFlops) {
    gemm_naive(c, a, b);
    return;
  }

  const std::size_t mc = std::max<std::size_t>(tiling.mc, kMr);
  const std::size_t nc = std::max<std::size_t>(tiling.nc, kNr);
  const std::size_t kc = std::max<std::size_t>(tiling.kc, 1);
  const std::size_t mtiles = (m + mc - 1) / mc;
  const std::size_t ntiles = (n + nc - 1) / nc;

  // The mr x nr register micro-kernel resolves through the CPU-dispatch
  // layer once per product (one relaxed load), not once per tile: every
  // worker of this product uses the same table. Each of the 16 accumulator
  // elements advances once per depth step in k order, matching
  // gemm_micro_ref bitwise on every tier.
  const auto micro = kernels().gemm_micro;

  // One task per (row tile, column tile) of C; each task owns a disjoint
  // C tile, loops the depth blocks, and packs into its own local buffers
  // (the redundant packing is amortised over mc*nc*kc flops per block).
  const auto tile_task = [&](std::size_t t) {
    TREESVD_HB_WRITE(&c, t, "gemm C tile");
    const std::size_t ti = t % mtiles;
    const std::size_t tj = t / mtiles;
    const std::size_t i0 = ti * mc;
    const std::size_t j0 = tj * nc;
    const std::size_t mc_eff = std::min(mc, m - i0);
    const std::size_t nc_eff = std::min(nc, n - j0);
    const std::size_t apanels = (mc_eff + kMr - 1) / kMr;
    const std::size_t bpanels = (nc_eff + kNr - 1) / kNr;
    std::vector<double> apack(apanels * kMr * kc);
    std::vector<double> bpack(bpanels * kNr * kc);
    std::array<double, kMr * kNr> acc;
    for (std::size_t k0 = 0; k0 < kk; k0 += kc) {
      const std::size_t kc_eff = std::min(kc, kk - k0);
      pack_a(a, i0, mc_eff, k0, kc_eff, apack.data());
      pack_b(b, k0, kc_eff, j0, nc_eff, bpack.data());
      for (std::size_t jp = 0; jp < bpanels; ++jp) {
        const std::size_t jr = jp * kNr;
        const std::size_t ncols = std::min(kNr, nc_eff - jr);
        for (std::size_t ip = 0; ip < apanels; ++ip) {
          const std::size_t ir = ip * kMr;
          const std::size_t nrows = std::min(kMr, mc_eff - ir);
          acc.fill(0.0);
          micro(apack.data() + ip * kc_eff * kMr, bpack.data() + jp * kc_eff * kNr, kc_eff,
                acc.data());
          for (std::size_t cc = 0; cc < ncols; ++cc) {
            double* __restrict cj = c.col(j0 + jr + cc).data() + i0 + ir;
            for (std::size_t r = 0; r < nrows; ++r) cj[r] += acc[r * kNr + cc];
          }
        }
      }
    }
  };
  dispatch(mtiles * ntiles, flops, pool, tiling.grain, tile_task);
}

Matrix gemm(const Matrix& a, const Matrix& b, ThreadPool* pool, const GemmTiling& tiling) {
  Matrix c(a.rows(), b.cols());
  gemm_into(c, a, b, pool, tiling);
  return c;
}

void syrk_t_into(Matrix& g, const Matrix& a, ThreadPool* pool) {
  const std::size_t n = a.cols();
  TREESVD_REQUIRE(g.rows() == n && g.cols() == n, "syrk_t output must be n x n");
  const std::size_t m = a.rows();
  constexpr std::size_t kTile = 8;
  const std::size_t tiles = (n + kTile - 1) / kTile;
  // Upper-triangle tile pairs (ti <= tj), enumerated column-block-major so
  // the task index maps deterministically.
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(tiles * (tiles + 1) / 2);
  for (std::size_t tj = 0; tj < tiles; ++tj)
    for (std::size_t ti = 0; ti <= tj; ++ti) pairs.emplace_back(ti, tj);

  const auto task = [&](std::size_t t) {
    const auto [ti, tj] = pairs[t];
    const std::size_t iend = std::min(n, (ti + 1) * kTile);
    const std::size_t jend = std::min(n, (tj + 1) * kTile);
    for (std::size_t j = tj * kTile; j < jend; ++j) {
      const auto cj = a.col(j);
      for (std::size_t i = ti * kTile; i < std::min(iend, j + 1); ++i) {
        const double v = dot(a.col(i), cj);
        g(i, j) = v;
        g(j, i) = v;
      }
    }
  };
  dispatch(pairs.size(), m * n * n, pool, 1, task);
}

Matrix syrk_t(const Matrix& a, ThreadPool* pool) {
  Matrix g(a.cols(), a.cols());
  syrk_t_into(g, a, pool);
  return g;
}

Matrix gram_panel(const Matrix& a, std::span<const int> cols, ThreadPool* pool) {
  const std::size_t kw = cols.size();
  const std::size_t m = a.rows();
  Matrix g(kw, kw);
  if (kw == 0) return g;
  for (int c : cols)
    TREESVD_REQUIRE(c >= 0 && static_cast<std::size_t>(c) < a.cols(),
                    "gram_panel column index out of range");

  // Row-chunked so each chunk's K columns stay cache-resident while all
  // K(K+1)/2 partial dots are accumulated: DRAM traffic O(m*K), not O(m*K^2).
  constexpr std::size_t kChunk = 512;
  const std::size_t chunks = (m + kChunk - 1) / kChunk;
  std::vector<double> partial(chunks * kw * kw, 0.0);

  const auto task = [&](std::size_t t) {
    TREESVD_HB_WRITE(partial.data(), t, "gram_panel partial");
    const std::size_t r0 = t * kChunk;
    const std::size_t len = std::min(kChunk, m - r0);
    double* __restrict part = partial.data() + t * kw * kw;
    for (std::size_t i = 0; i < kw; ++i) {
      const auto ci = a.col(static_cast<std::size_t>(cols[i])).subspan(r0, len);
      for (std::size_t j = i; j < kw; ++j) {
        const auto cj = a.col(static_cast<std::size_t>(cols[j])).subspan(r0, len);
        part[i * kw + j] = dot(ci, cj);
      }
    }
  };
  dispatch(chunks, m * kw * kw, pool, 1, task);

  // Fixed chunk order keeps the reduction bitwise-deterministic.
  for (std::size_t t = 0; t < chunks; ++t) {
    TREESVD_HB_READ(partial.data(), t, "gram_panel partial");
    const double* part = partial.data() + t * kw * kw;
    for (std::size_t i = 0; i < kw; ++i)
      for (std::size_t j = i; j < kw; ++j) g(i, j) += part[i * kw + j];
  }
  for (std::size_t i = 0; i < kw; ++i)
    for (std::size_t j = i + 1; j < kw; ++j) g(j, i) = g(i, j);
  // Overflow repair: a Gram element that left the finite range is recomputed
  // with per-operand exponent scaling. The fast path above is untouched (and
  // bitwise unchanged) whenever every element is finite.
  for (std::size_t i = 0; i < kw; ++i) {
    const auto ci = a.col(static_cast<std::size_t>(cols[i]));
    for (std::size_t j = i; j < kw; ++j) {
      if (std::isfinite(g(i, j))) continue;
      const double v = dot_scaled(ci, a.col(static_cast<std::size_t>(cols[j])));
      g(i, j) = v;
      g(j, i) = v;
    }
  }
  return g;
}

std::vector<double> apply_panel_update(Matrix& a, std::span<const int> cols, const Matrix& w,
                                       ThreadPool* pool) {
  const std::size_t kw = cols.size();
  TREESVD_REQUIRE(w.rows() == kw && w.cols() == kw,
                  "apply_panel_update needs a K x K update for K panel columns");
  const std::size_t m = a.rows();
  std::vector<double*> colp(kw);
  for (std::size_t i = 0; i < kw; ++i) {
    const int c = cols[i];
    TREESVD_REQUIRE(c >= 0 && static_cast<std::size_t>(c) < a.cols(),
                    "apply_panel_update column index out of range");
    colp[i] = a.col(static_cast<std::size_t>(c)).data();
  }

  constexpr std::size_t kChunk = 512;
  const std::size_t chunks = m == 0 ? 0 : (m + kChunk - 1) / kChunk;
  std::vector<double> partial(chunks * kw, 0.0);

  // Each chunk snapshots its rows of the whole panel, multiplies by W from
  // the right, writes back, and reduces the new squared norms in the same
  // L1-resident pass — each panel element is read and written once per
  // apply, with K fused multiply-adds of compute per element.
  const auto task = [&](std::size_t t) {
    TREESVD_HB_WRITE(partial.data(), t, "panel_update partial");
    const std::size_t r0 = t * kChunk;
    const std::size_t len = std::min(kChunk, m - r0);
    std::vector<double> buf(len * kw);
    for (std::size_t k = 0; k < kw; ++k)
      std::memcpy(buf.data() + k * len, colp[k] + r0, len * sizeof(double));
    for (std::size_t j = 0; j < kw; ++j) {
      double* __restrict out = colp[j] + r0;
      std::fill(out, out + len, 0.0);
      for (std::size_t k = 0; k < kw; ++k) {
        const double wkj = w(k, j);
        if (wkj == 0.0) continue;
        axpy(wkj, {buf.data() + k * len, len}, {out, len});
      }
      partial[t * kw + j] = sumsq({out, len});
    }
  };
  dispatch(chunks, m * kw * kw, pool, 1, task);

  std::vector<double> sums(kw, 0.0);
  for (std::size_t t = 0; t < chunks; ++t) {
    TREESVD_HB_READ(partial.data(), t, "panel_update partial");
    for (std::size_t j = 0; j < kw; ++j) sums[j] += partial[t * kw + j];
  }
  // Overflow repair for the fused norms, mirroring gram_panel: recompute a
  // non-finite squared norm with dnrm2-style scaled accumulation (still Inf
  // if the true value genuinely exceeds the double range — honest overflow).
  for (std::size_t j = 0; j < kw; ++j) {
    if (std::isfinite(sums[j])) continue;
    sums[j] = sumsq_scaled({colp[j], m}).value();
  }
  return sums;
}

}  // namespace treesvd
