#pragma once
// Golub-Kahan-Reinsch SVD (singular values only): Householder
// bidiagonalization followed by implicit-shift QR on the bidiagonal — the
// "various ways to compute the SVD [6]" the paper contrasts with Jacobi.
//
// Serves as the independent reference for the Jacobi engines: it never forms
// A^T A, so it resolves singular values below sqrt(eps)*sigma_max and lets
// the tests compare the engines' accuracy on severely graded spectra
// (ablation A9).

#include <vector>

#include "linalg/matrix.hpp"

namespace treesvd {

/// Bidiagonal form of an m x n matrix (m >= n): diag[k] = B(k,k),
/// super[k] = B(k-1,k) with super[0] unused.
struct Bidiagonal {
  std::vector<double> diag;
  std::vector<double> super;
};

/// Householder bidiagonalization (no accumulation of the orthogonal factors).
Bidiagonal bidiagonalize(const Matrix& a);

/// Singular values of a bidiagonal matrix by implicit-shift QR, descending.
/// Throws std::runtime_error after 30*n iterations without convergence
/// (does not occur for real inputs).
std::vector<double> bidiagonal_singular_values(Bidiagonal b);

/// Singular values of A (m >= n), descending.
std::vector<double> golub_kahan_singular_values(const Matrix& a);

}  // namespace treesvd
