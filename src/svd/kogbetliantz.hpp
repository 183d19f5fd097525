#pragma once
// Kogbetliantz two-sided Jacobi SVD.
//
// The paper opens by preferring the Hestenes one-sided method "as advocated
// in [2]" — reference [2] (Brent & Luk) had used the two-sided Kogbetliantz
// iteration on systolic arrays. This module implements Kogbetliantz driven by
// the same parallel orderings, so the preference becomes measurable: the
// two-sided method must rotate rows *and* columns, doubling what has to move
// between processors on a distributed machine (ablation A8), while the
// one-sided method touches whole columns only.
//
// One rotation: for the 2x2 block M = [[a_ii, a_ij], [a_ji, a_jj]], left and
// right rotations J_l, J_r with J_l^T M J_r diagonal; A <- J_l^T A J_r
// accumulates U <- U J_l and V <- V J_r, and diag(A) converges to the
// singular values (signs folded into U at extraction).

#include "core/ordering.hpp"
#include "linalg/matrix.hpp"
#include "svd/jacobi.hpp"

namespace treesvd {

/// Two-sided Jacobi SVD of a *square* matrix using the given parallel
/// ordering (pads with zero rows/columns to a supported width). For m > n,
/// factor with HouseholderQr first and pass R. Reads tol (|a_ij|, |a_ji|
/// negligible below tol * max|a|), max_sweeps, equilibrate, track_off
/// (off_history then holds off(A)/||A||_F per sweep), rank_tol and
/// full_diagnostics; U and V are always formed and sigma is always sorted
/// descending. Unlike the one-sided engines, U is n x n and orthogonal on
/// every column, including those of zero singular values. kernel_stats and
/// swaps stay zero.
SvdResult kogbetliantz_svd(const Matrix& a, const Ordering& ordering,
                           const JacobiOptions& options = {});

/// The 2x2 kernel, exposed for tests: rotations (cl, sl), (cr, sr) such that
/// G(cl,sl)^T [[w,x],[y,z]] G(cr,sr) is diagonal, where G(c,s) = [[c,-s],[s,c]].
struct TwoSidedRotation {
  double cl = 1.0;
  double sl = 0.0;
  double cr = 1.0;
  double sr = 0.0;
};
TwoSidedRotation two_sided_rotation(double w, double x, double y, double z) noexcept;

}  // namespace treesvd
