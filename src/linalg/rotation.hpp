#pragma once
// Plane rotations for the Hestenes one-sided Jacobi method.
//
// A rotation orthogonalises two columns x, y of A. With Gram elements
//   app = x.x,  aqq = y.y,  apq = x.y
// we use the Rutishauser small-angle formulas:
//   zeta = (aqq - app) / (2 apq)
//   t    = sign(zeta) / (|zeta| + sqrt(1 + zeta^2))      (smaller root)
//   c    = 1 / sqrt(1 + t^2),  s = c t
// and update  x' = c x - s y,  y' = s x + c y.
//
// The paper's equation (3) fuses a column interchange into the rotation
// ("rotate and swap") so that sorting the singular values never requires an
// explicit column exchange: x'' = s x + c y, y'' = c x - s y.

#include <span>

#include "linalg/blas1.hpp"

namespace treesvd {

/// Cosine/sine pair of a Jacobi plane rotation.
struct JacobiRotation {
  double c = 1.0;
  double s = 0.0;
  /// True when the pair was already orthogonal (to the threshold) and no
  /// rotation is needed.
  bool identity = true;
};

/// Relative-orthogonality test: |apq| <= tol * sqrt(app * aqq).
/// This is the threshold strategy of the classical Jacobi method; pairs below
/// the threshold are skipped, which also prevents cycling.
bool is_orthogonal(const GramPair& g, double tol) noexcept;

/// Computes the rotation that orthogonalises a column pair with the given
/// Gram elements. Returns identity when is_orthogonal(g, tol), or when a
/// column has zero norm (rank-deficient input).
JacobiRotation compute_rotation(const GramPair& g, double tol) noexcept;

/// x' = c x - s y,  y' = s x + c y.
void apply_rotation(std::span<double> x, std::span<double> y, double c, double s) noexcept;

/// Paper eq. (3): rotation followed by interchange, fused:
/// x'' = s x + c y,  y'' = c x - s y.
void apply_rotation_swapped(std::span<double> x, std::span<double> y, double c,
                            double s) noexcept;

/// Post-rotation squared norms (standard update): the rotation moves t*apq of
/// squared norm from x to y, where t = s/c.
///   new app = app - t*apq,  new aqq = aqq + t*apq.
struct RotatedNorms {
  double app;
  double aqq;
};
RotatedNorms rotated_norms(const GramPair& g, const JacobiRotation& r) noexcept;

/// Fused rotate-and-norms: applies the plane rotation (as apply_rotation)
/// and accumulates the squared norms of the *rotated* columns in the same
/// pass over the data — a fresh reduction of the stored values, not an
/// algebraic extrapolation. The pair kernel (svd/pair_kernel.hpp) rotates H
/// through the dispatched copy of this kernel, at the bound ISA tier, and
/// ignores the sums; the rotated values are bitwise those of apply_rotation.
RotatedNorms rotate_and_norms(std::span<double> x, std::span<double> y, double c,
                              double s) noexcept;

/// Fused eq.-(3) variant: rotate, interchange, and accumulate norms in one
/// pass. Returns the squared norms of the stored columns (app for the new x,
/// aqq for the new y, i.e. after the swap).
RotatedNorms rotate_and_norms_swapped(std::span<double> x, std::span<double> y, double c,
                                      double s) noexcept;

/// Scalar reference twins of the fused kernels: the rotated values are exactly
/// c*x[i] - s*y[i] / s*x[i] + c*y[i] (bitwise equal to apply_rotation*), and
/// the norm reduction uses four mod-4 chains combined (a0+a2)+(a1+a3) with the
/// tail appended after the combine. The dispatched SIMD forms reproduce this
/// order bitwise on every ISA tier (enforced by linalg_dispatch_test).
RotatedNorms rotate_and_norms_ref(std::span<double> x, std::span<double> y, double c,
                                  double s) noexcept;
RotatedNorms rotate_and_norms_swapped_ref(std::span<double> x, std::span<double> y, double c,
                                          double s) noexcept;

/// Batched per-lane rotation decisions over SoA Gram arrays (the decision
/// stage of the batched engine, svd/batch.hpp): for every lane b,
/// (c[b], s[b], identity[b]) = compute_rotation({app[b], aqq[b], apq[b]}, tol),
/// with identity lanes reporting c = 1, s = 0. When w is a multiple of the
/// batch lane count this dispatches to a vectorized copy (the decision math
/// is sqrt/divide-heavy and used to dominate the batched engine's per-pair
/// cost); every operation involved is IEEE correctly rounded, so the
/// vectorized lanes are bitwise equal to the scalar fallback.
void batched_compute_rotation(const double* app, const double* aqq, const double* apq,
                              std::size_t w, double tol, double* c, double* s,
                              std::uint8_t* identity) noexcept;

namespace detail {
/// Scalar per-lane fallback of the decision kernel — the dispatch target for
/// lane widths the vector copies don't cover, and the bitwise reference the
/// vectorized forms are tested against.
void batched_compute_rotation_scalar(const double* app, const double* aqq, const double* apq,
                                     std::size_t w, double tol, double* c, double* s,
                                     std::uint8_t* identity) noexcept;
}  // namespace detail

}  // namespace treesvd
