#pragma once
// Exact power-of-two input equilibration for the Jacobi engines.
//
// Every engine in this repo decides its rotations from *squared* column
// norms — the `gram_pair` pass of every column pair, `sumsq` — so entries
// beyond ~1e±154 silently overflow or underflow the Gram quantities. The pre-pass
// here rescales the working matrix by a single exact power of two chosen
// from the entry magnitudes, which fixes that entire failure class without
// perturbing a single rotation decision:
//
//   * The scale is uniform, so every Gram element (app, aqq, apq) scales by
//     the same factor 2^{2e}. The rotation parameters depend only on ratios
//     of Gram elements (zeta = (aqq-app)/(2 apq)), so c and s — and hence
//     every rotation, swap and sweep count — are bitwise unchanged.
//   * The scale is an exact power of two, so the scaling (ldexp) and the
//     final unscale of sigma are exact in IEEE arithmetic: an equilibrated
//     run reproduces the unequilibrated singular values bit-for-bit whenever
//     the unequilibrated run itself stays inside the representable range.
//   * U = H/sigma divides two quantities carrying the same 2^e factor, and V
//     is a product of the (unchanged) rotations, so neither needs unscaling.
//
// A true per-column diagonal scaling A·D would NOT have these properties —
// it changes the singular values and right singular vectors (V^T D^{-1} is
// not orthogonal) — which is why the equilibration is uniform; the residual
// *intra*-matrix dynamic range is handled by the dlassq-style scaled
// fallbacks in linalg/blas1 and the graceful-degradation status contract
// (svd/status.hpp). The only inexactness: entries more than ~2^1070 below
// the matrix maximum land in the denormal range after a scale-down and lose
// trailing bits — such entries are far below sigma_max * DBL_EPSILON and
// cannot affect any singular value to working precision.

#include "linalg/matrix.hpp"
#include "svd/status.hpp"

namespace treesvd {

/// Record of an equilibration pre-pass. The working matrix was multiplied by
/// 2^exponent; singular values computed from it carry the same factor and
/// are unscaled with unscale_sigma().
struct Equilibration {
  bool applied = false;  ///< false => exponent is 0 and the matrix is untouched
  int exponent = 0;      ///< scaled matrix = 2^exponent * original
  ScaleStats stats;      ///< pre-scaling dynamic range (always filled in)
};

/// In kAuto mode, entries whose binary exponent exceeds this magnitude
/// trigger equilibration: max|a| <= 2^320 keeps every squared column norm
/// (and the Frobenius sum of all of them) comfortably below DBL_MAX, and
/// max|a| >= 2^-320 keeps squared norms out of the denormal range where the
/// relative-threshold tests lose their meaning.
inline constexpr int kAutoEquilibrateExponent = 320;

/// Scales `a` in place by an exact power of two according to `mode`, and
/// returns the record needed to undo it. kAuto only acts when the largest
/// entry magnitude lies outside [2^-320, 2^320]; kAlways recenters whenever
/// max|a| is not already in [1, 2); kOff (and the zero matrix) never scale.
Equilibration equilibrate(Matrix& a, EquilibrateMode mode) noexcept;

/// Exact unscale of singular values computed from the equilibrated matrix:
/// sigma[k] = 2^-exponent * sigma[k] via ldexp.
void unscale_sigma(std::vector<double>& sigma, const Equilibration& eq) noexcept;

}  // namespace treesvd
