#include "linalg/rotation.hpp"

#include <cmath>

#include "linalg/dispatch.hpp"

namespace treesvd {

bool is_orthogonal(const GramPair& g, double tol) noexcept {
  return std::fabs(g.apq) <= tol * std::sqrt(g.app) * std::sqrt(g.aqq);
}

namespace {
// Above this magnitude, sqrt(1 + zeta^2) rounds to |zeta| exactly, so the
// textbook small-root formula collapses to 1/(2 zeta) bit-for-bit; taking
// that branch explicitly avoids the zeta*zeta intermediate, which overflows
// for |zeta| > ~1e154 (tiny/denormal apq against a large norm difference).
constexpr double kZetaBig = 134217728.0;  // 2^27
}  // namespace

JacobiRotation compute_rotation(const GramPair& g, double tol) noexcept {
  // A zero column has nothing to rotate; a *negative* diagonal (cancellation
  // in an accumulated Gram matrix) would make the threshold sqrt NaN and
  // disable the orthogonality test — both are degenerate, both get identity.
  if (g.app <= 0.0 || g.aqq <= 0.0) return {};
  // Overflowed or poisoned Gram data carries no usable angle; returning
  // identity keeps the engine deterministic and lets the status contract
  // (stall detection) report the degradation instead of rotating on garbage.
  if (!std::isfinite(g.app) || !std::isfinite(g.aqq) || !std::isfinite(g.apq)) return {};
  if (is_orthogonal(g, tol)) return {};
  if (g.apq == 0.0) return {};  // reachable only via a NaN threshold above
  const double zeta = (g.aqq - g.app) / (2.0 * g.apq);
  double t;
  if (std::fabs(zeta) >= kZetaBig) {
    t = 1.0 / (2.0 * zeta);
  } else {
    t = (zeta >= 0.0 ? 1.0 : -1.0) / (std::fabs(zeta) + std::sqrt(1.0 + zeta * zeta));
  }
  // t underflows to zero only when zeta overflowed to infinity: the rotation
  // is indistinguishable from the identity at working precision, and
  // applying it would count as activity forever without changing the data.
  if (t == 0.0) return {};
  const double c = 1.0 / std::sqrt(1.0 + t * t);
  return {c, c * t, false};
}

void apply_rotation(std::span<double> x, std::span<double> y, double c, double s) noexcept {
  double* __restrict xp = x.data();
  double* __restrict yp = y.data();
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = xp[i];
    const double yi = yp[i];
    xp[i] = c * xi - s * yi;
    yp[i] = s * xi + c * yi;
  }
}

void apply_rotation_swapped(std::span<double> x, std::span<double> y, double c,
                            double s) noexcept {
  double* __restrict xp = x.data();
  double* __restrict yp = y.data();
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = xp[i];
    const double yi = yp[i];
    xp[i] = s * xi + c * yi;
    yp[i] = c * xi - s * yi;
  }
}

namespace {

// Shared body for the fused reference twins; `kSwap` selects which rotated
// vector lands in which column (paper eq. (3) writes the pair back in sorted
// order). The compiler cannot vectorise this loop on its own — the norm
// accumulation is a floating-point reduction, which strict IEEE semantics
// forbid reassociating — so the chain split is spelled out: element i feeds
// norm chain i % 4, chains combine (a0+a2)+(a1+a3), the tail is appended
// after the combine. The dispatched SIMD kernels (kernels_single_impl.inc)
// keep one 4-wide vector accumulator whose lanes *are* these chains, so they
// match bitwise.
template <bool kSwap>
RotatedNorms rotate_norms_ref_impl(double* __restrict xp, double* __restrict yp,
                                   std::size_t n, double c, double s) noexcept {
  double xx0 = 0.0, xx1 = 0.0, xx2 = 0.0, xx3 = 0.0;
  double yy0 = 0.0, yy1 = 0.0, yy2 = 0.0, yy3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double r0 = c * xp[i] - s * yp[i];
    const double t0 = s * xp[i] + c * yp[i];
    const double r1 = c * xp[i + 1] - s * yp[i + 1];
    const double t1 = s * xp[i + 1] + c * yp[i + 1];
    const double r2 = c * xp[i + 2] - s * yp[i + 2];
    const double t2 = s * xp[i + 2] + c * yp[i + 2];
    const double r3 = c * xp[i + 3] - s * yp[i + 3];
    const double t3 = s * xp[i + 3] + c * yp[i + 3];
    const double nx0 = kSwap ? t0 : r0;
    const double ny0 = kSwap ? r0 : t0;
    const double nx1 = kSwap ? t1 : r1;
    const double ny1 = kSwap ? r1 : t1;
    const double nx2 = kSwap ? t2 : r2;
    const double ny2 = kSwap ? r2 : t2;
    const double nx3 = kSwap ? t3 : r3;
    const double ny3 = kSwap ? r3 : t3;
    xp[i] = nx0;
    yp[i] = ny0;
    xp[i + 1] = nx1;
    yp[i + 1] = ny1;
    xp[i + 2] = nx2;
    yp[i + 2] = ny2;
    xp[i + 3] = nx3;
    yp[i + 3] = ny3;
    xx0 += nx0 * nx0;
    yy0 += ny0 * ny0;
    xx1 += nx1 * nx1;
    yy1 += ny1 * ny1;
    xx2 += nx2 * nx2;
    yy2 += ny2 * ny2;
    xx3 += nx3 * nx3;
    yy3 += ny3 * ny3;
  }
  double xx = (xx0 + xx2) + (xx1 + xx3);
  double yy = (yy0 + yy2) + (yy1 + yy3);
  for (; i < n; ++i) {
    const double r0 = c * xp[i] - s * yp[i];
    const double t0 = s * xp[i] + c * yp[i];
    const double nx = kSwap ? t0 : r0;
    const double ny = kSwap ? r0 : t0;
    xp[i] = nx;
    yp[i] = ny;
    xx += nx * nx;
    yy += ny * ny;
  }
  return {xx, yy};
}

}  // namespace

RotatedNorms rotate_and_norms(std::span<double> x, std::span<double> y, double c,
                              double s) noexcept {
  RotatedNorms r;
  kernels().rotate_and_norms(x.data(), y.data(), x.size(), c, s, &r.app, &r.aqq);
  return r;
}

RotatedNorms rotate_and_norms_swapped(std::span<double> x, std::span<double> y, double c,
                                      double s) noexcept {
  RotatedNorms r;
  kernels().rotate_and_norms_swapped(x.data(), y.data(), x.size(), c, s, &r.app, &r.aqq);
  return r;
}

RotatedNorms rotate_and_norms_ref(std::span<double> x, std::span<double> y, double c,
                                  double s) noexcept {
  return rotate_norms_ref_impl<false>(x.data(), y.data(), x.size(), c, s);
}

RotatedNorms rotate_and_norms_swapped_ref(std::span<double> x, std::span<double> y, double c,
                                          double s) noexcept {
  return rotate_norms_ref_impl<true>(x.data(), y.data(), x.size(), c, s);
}

namespace detail {

void batched_compute_rotation_scalar(const double* app, const double* aqq, const double* apq,
                                     std::size_t w, double tol, double* c, double* s,
                                     std::uint8_t* identity) noexcept {
  for (std::size_t b = 0; b < w; ++b) {
    const JacobiRotation r = compute_rotation({app[b], aqq[b], apq[b]}, tol);
    c[b] = r.identity ? 1.0 : r.c;
    s[b] = r.identity ? 0.0 : r.s;
    identity[b] = r.identity ? 1 : 0;
  }
}

}  // namespace detail

void batched_compute_rotation(const double* app, const double* aqq, const double* apq,
                              std::size_t w, double tol, double* c, double* s,
                              std::uint8_t* identity) noexcept {
  if (w % 4 == 0) {
    kernels().batched_compute_rotation(app, aqq, apq, w, tol, c, s, identity);
    return;
  }
  detail::batched_compute_rotation_scalar(app, aqq, apq, w, tol, c, s, identity);
}

RotatedNorms rotated_norms(const GramPair& g, const JacobiRotation& r) noexcept {
  if (r.identity || r.c == 0.0) return {g.app, g.aqq};
  const double t = r.s / r.c;
  return {g.app - t * g.apq, g.aqq + t * g.apq};
}

}  // namespace treesvd
