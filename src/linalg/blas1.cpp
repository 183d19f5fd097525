#include "linalg/blas1.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "linalg/dispatch.hpp"
#include "linalg/rotation.hpp"

namespace treesvd {

// ---------------------------------------------------------------------------
// Scalar reference twins. These spell out the canonical accumulation chains
// the dispatched SIMD kernels (kernels_single_impl.inc) reproduce bitwise;
// they are the cross-check targets of linalg_dispatch_test and the
// implementation of last resort on builds without vector extensions.
// ---------------------------------------------------------------------------

double dot_ref(std::span<const double> x, std::span<const double> y) noexcept {
  const double* __restrict xp = x.data();
  const double* __restrict yp = y.data();
  const std::size_t n = x.size();
  double s0 = 0.0;
  double s1 = 0.0;
  double s2 = 0.0;
  double s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += xp[i] * yp[i];
    s1 += xp[i + 1] * yp[i + 1];
    s2 += xp[i + 2] * yp[i + 2];
    s3 += xp[i + 3] * yp[i + 3];
  }
  for (; i < n; ++i) s0 += xp[i] * yp[i];
  return (s0 + s1) + (s2 + s3);
}

double sumsq_ref(std::span<const double> x) noexcept {
  const double* __restrict xp = x.data();
  const std::size_t n = x.size();
  double s0 = 0.0;
  double s1 = 0.0;
  double s2 = 0.0;
  double s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += xp[i] * xp[i];
    s1 += xp[i + 1] * xp[i + 1];
    s2 += xp[i + 2] * xp[i + 2];
    s3 += xp[i + 3] * xp[i + 3];
  }
  for (; i < n; ++i) s0 += xp[i] * xp[i];
  return (s0 + s1) + (s2 + s3);
}

void axpy_ref(double alpha, std::span<const double> x, std::span<double> y) noexcept {
  const double* __restrict xp = x.data();
  double* __restrict yp = y.data();
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) yp[i] += alpha * xp[i];
}

GramPair gram_pair_ref(std::span<const double> x, std::span<const double> y) noexcept {
  const double* __restrict xp = x.data();
  const double* __restrict yp = y.data();
  const std::size_t n = x.size();
  // Four mod-4 chains per Gram element (twelve partial sums): element i
  // feeds chain i % 4, the tail feeds chain 0, combine (c0+c1)+(c2+c3) —
  // one vector accumulator per element in the SIMD twin.
  double xx0 = 0.0, xx1 = 0.0, xx2 = 0.0, xx3 = 0.0;
  double yy0 = 0.0, yy1 = 0.0, yy2 = 0.0, yy3 = 0.0;
  double xy0 = 0.0, xy1 = 0.0, xy2 = 0.0, xy3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    xx0 += xp[i] * xp[i];
    yy0 += yp[i] * yp[i];
    xy0 += xp[i] * yp[i];
    xx1 += xp[i + 1] * xp[i + 1];
    yy1 += yp[i + 1] * yp[i + 1];
    xy1 += xp[i + 1] * yp[i + 1];
    xx2 += xp[i + 2] * xp[i + 2];
    yy2 += yp[i + 2] * yp[i + 2];
    xy2 += xp[i + 2] * yp[i + 2];
    xx3 += xp[i + 3] * xp[i + 3];
    yy3 += yp[i + 3] * yp[i + 3];
    xy3 += xp[i + 3] * yp[i + 3];
  }
  for (; i < n; ++i) {
    xx0 += xp[i] * xp[i];
    yy0 += yp[i] * yp[i];
    xy0 += xp[i] * yp[i];
  }
  return {(xx0 + xx1) + (xx2 + xx3), (yy0 + yy1) + (yy2 + yy3), (xy0 + xy1) + (xy2 + xy3)};
}

// ---------------------------------------------------------------------------
// Public entry points: one relaxed load resolves the tier, then the call
// goes through the table. Results are bitwise identical on every tier.
// ---------------------------------------------------------------------------

double dot(std::span<const double> x, std::span<const double> y) noexcept {
  return kernels().dot(x.data(), y.data(), x.size());
}

double sumsq(std::span<const double> x) noexcept {
  return kernels().sumsq(x.data(), x.size());
}

double nrm2(std::span<const double> x) noexcept {
  // LAPACK dnrm2-style scaled accumulation.
  double scale = 0.0;
  double ssq = 1.0;
  for (double v : x) {
    if (v == 0.0) continue;
    const double a = std::fabs(v);
    if (scale < a) {
      const double r = scale / a;
      ssq = 1.0 + ssq * r * r;
      scale = a;
    } else {
      const double r = a / scale;
      ssq += r * r;
    }
  }
  return scale * std::sqrt(ssq);
}

double ScaledSumsq::value() const noexcept {
  // ssq >= 1, so scale^2 overflows only when the true sum of squares does;
  // the plain product is the honest conversion.
  return scale * scale * ssq;
}

double ScaledSumsq::norm() const noexcept { return scale * std::sqrt(ssq); }

ScaledSumsq sumsq_scaled(std::span<const double> x) noexcept {
  ScaledSumsq r;
  r.scale = 0.0;
  r.ssq = 1.0;
  for (double v : x) {
    if (v == 0.0) continue;
    const double a = std::fabs(v);
    if (r.scale < a) {
      const double t = r.scale / a;
      r.ssq = 1.0 + r.ssq * t * t;
      r.scale = a;
    } else {
      const double t = a / r.scale;
      r.ssq += t * t;
    }
  }
  return r;
}

double dot_scaled(std::span<const double> x, std::span<const double> y) noexcept {
  double mx = 0.0;
  double my = 0.0;
  for (const double v : x) mx = std::max(mx, std::fabs(v));
  for (const double v : y) my = std::max(my, std::fabs(v));
  if (mx == 0.0 || my == 0.0) return 0.0;
  if (!std::isfinite(mx) || !std::isfinite(my)) return dot(x, y);
  // Exact power-of-two prescale: every product of prescaled entries lies in
  // [-4, 4], so the accumulation cannot overflow; ldexp restores the
  // combined exponent (overflowing only when the true dot product does).
  const int ex = std::ilogb(mx);
  const int ey = std::ilogb(my);
  const double* __restrict xp = x.data();
  const double* __restrict yp = y.data();
  const std::size_t n = x.size();
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    s += std::ldexp(xp[i], -ex) * std::ldexp(yp[i], -ey);
  return std::ldexp(s, ex + ey);
}

double sumsq_robust(std::span<const double> x) noexcept {
  const double fast = sumsq(x);
  if (std::isfinite(fast)) return fast;
  return sumsq_scaled(x).value();
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) noexcept {
  kernels().axpy(alpha, x.data(), y.data(), x.size());
}

void scal(double alpha, std::span<double> x) noexcept {
  for (double& v : x) v *= alpha;
}

void copy_div(std::span<const double> x, double denom, std::span<double> y) noexcept {
  const double* __restrict xp = x.data();
  double* __restrict yp = y.data();
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) yp[i] = xp[i] / denom;
}

void swap(std::span<double> x, std::span<double> y) noexcept {
  double* __restrict xp = x.data();
  double* __restrict yp = y.data();
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) std::swap(xp[i], yp[i]);
}

GramPair gram_pair(std::span<const double> x, std::span<const double> y) noexcept {
  GramPair g;
  kernels().gram_pair(x.data(), y.data(), x.size(), &g.app, &g.aqq, &g.apq);
  return g;
}

// ---------------------------------------------------------------------------
// Batched SoA lane-block kernels.
// ---------------------------------------------------------------------------

namespace {

// Reference path: gather one lane into contiguous scratch and run the exact
// scalar kernel — bitwise identical to the sequential driver by
// construction, on any compiler. The scratch is thread-local so the steady
// state allocates nothing after the first call at a given size.
std::vector<double>& batch_lane_scratch() {
  static thread_local std::vector<double> buf;
  return buf;
}

void gather_lane(const double* x, std::size_t m, std::size_t w, std::size_t b,
                 double* __restrict dst) noexcept {
  for (std::size_t i = 0; i < m; ++i) dst[i] = x[i * w + b];
}

void scatter_lane(const double* __restrict src, std::size_t m, std::size_t w, std::size_t b,
                  double* x) noexcept {
  for (std::size_t i = 0; i < m; ++i) x[i * w + b] = src[i];
}

#if defined(__GNUC__) || defined(__clang__)
#define TREESVD_BATCH_VEC 1
#endif

/// The vectorized lane-block copies cover w in {4, 8, 16}; other widths
/// take the reference path. The ISA tier inside the table is the single
/// process-wide resolution of linalg/dispatch.hpp.
inline bool batched_vector_width(std::size_t w) noexcept {
  return w == 4 || w == 8 || w == 16;
}

}  // namespace

bool batch_kernels_vectorized() noexcept {
#ifdef TREESVD_BATCH_VEC
  return true;
#else
  return false;
#endif
}

void batched_gram_pair_ref(const double* x, const double* y, std::size_t m, std::size_t w,
                           double* app, double* aqq, double* apq) noexcept {
  auto& buf = batch_lane_scratch();
  buf.resize(2 * m);
  for (std::size_t b = 0; b < w; ++b) {
    gather_lane(x, m, w, b, buf.data());
    gather_lane(y, m, w, b, buf.data() + m);
    const GramPair g = gram_pair({buf.data(), m}, {buf.data() + m, m});
    app[b] = g.app;
    aqq[b] = g.aqq;
    apq[b] = g.apq;
  }
}

void batched_apply_rotation_ref(double* x, double* y, std::size_t m, std::size_t w,
                                const double* c, const double* s, const std::uint8_t* rotate,
                                const std::uint8_t* swap_lanes) noexcept {
  auto& buf = batch_lane_scratch();
  buf.resize(2 * m);
  for (std::size_t b = 0; b < w; ++b) {
    if (rotate[b] == 0) continue;
    gather_lane(x, m, w, b, buf.data());
    gather_lane(y, m, w, b, buf.data() + m);
    const std::span<double> xl{buf.data(), m};
    const std::span<double> yl{buf.data() + m, m};
    if (swap_lanes[b] != 0) {
      apply_rotation_swapped(xl, yl, c[b], s[b]);
    } else {
      apply_rotation(xl, yl, c[b], s[b]);
    }
    scatter_lane(buf.data(), m, w, b, x);
    scatter_lane(buf.data() + m, m, w, b, y);
  }
}

const char* batched_kernel_isa() noexcept {
#ifdef TREESVD_BATCH_VEC
  return isa_name(resolved_isa());
#else
  return "scalar-ref";
#endif
}

void batched_gram_pair(const double* x, const double* y, std::size_t m, std::size_t w,
                       double* app, double* aqq, double* apq) noexcept {
  if (batched_vector_width(w)) {
    kernels().batched_gram_pair(x, y, m, w, app, aqq, apq);
    return;
  }
  batched_gram_pair_ref(x, y, m, w, app, aqq, apq);
}

void batched_apply_rotation(double* x, double* y, std::size_t m, std::size_t w, const double* c,
                            const double* s, const std::uint8_t* rotate,
                            const std::uint8_t* swap_lanes) noexcept {
  if (batched_vector_width(w)) {
    kernels().batched_apply_rotation(x, y, m, w, c, s, rotate, swap_lanes);
    return;
  }
  batched_apply_rotation_ref(x, y, m, w, c, s, rotate, swap_lanes);
}

}  // namespace treesvd
