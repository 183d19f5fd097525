#pragma once
// Graceful-degradation contract for every SVD engine.
//
// A non-converged run used to come back as a bare `converged=false` with no
// diagnosis. Engines now classify how the iteration ended (SvdStatus), record
// the dynamic range they were handed (ScaleStats) and, on any non-converged
// exit, attach quality diagnostics (scaled residual, orthonormality defect)
// so callers always receive a best-effort factorization plus a
// machine-readable explanation of how much to trust it.

#include <string>

#include "linalg/matrix.hpp"

namespace treesvd {

struct SvdResult;

/// How an SVD iteration ended. The first three are engine outcomes; the last
/// two are *serving* outcomes (svd/serve.hpp): a request can be retired
/// without its solve ever running (deadline) or after its solve threw
/// (poison input, injected fault). Serving-terminal results carry no factor
/// payload — sigma/U/V are empty — and diagnostics.error says why.
enum class SvdStatus {
  kConverged,        ///< a full sweep passed with no rotation or swap
  kMaxSweeps,        ///< sweep budget exhausted while activity was still decreasing
  kStalled,          ///< sweep budget exhausted with activity non-decreasing over
                     ///< the trailing stall window — more sweeps would not help
  kDeadlineExpired,  ///< request shed: its deadline passed before a solve ran
  kFailed,           ///< request's solve threw; diagnostics.error holds the cause
};

/// Human-readable status name ("converged", "max-sweeps", "stalled",
/// "deadline-expired", "failed").
const char* to_string(SvdStatus status) noexcept;

/// Input equilibration policy (see svd/equilibrate.hpp). The scaling is a
/// uniform exact power of two, so it commutes bitwise with every rotation
/// decision: equilibrated and unequilibrated runs produce identical sigma
/// (after the exact unscale), U, V and sweep counts whenever neither run
/// hits overflow/underflow.
enum class EquilibrateMode {
  kAuto,    ///< scale only when the entry magnitudes endanger squared-norm
            ///< accumulation (the default; a no-op on well-scaled inputs)
  kAlways,  ///< scale whenever max|a_ij| is not already in [1, 2)
  kOff,     ///< never scale
};

/// Dynamic-range statistics of a matrix, gathered in one pass.
struct ScaleStats {
  double max_abs = 0.0;          ///< largest |a_ij| (0 for the zero matrix)
  double min_abs_nonzero = 0.0;  ///< smallest nonzero |a_ij| (0 if all zero)
  int max_exponent = 0;          ///< ilogb(max_abs); 0 when max_abs == 0
  int min_exponent = 0;          ///< ilogb(min_abs_nonzero); 0 when all zero
  std::size_t zero_entries = 0;  ///< exact zeros (padding and rank structure)

  /// Binary orders of magnitude spanned by the nonzero entries.
  int exponent_span() const noexcept { return max_exponent - min_exponent; }
};

/// One-pass scan of the entry magnitudes.
ScaleStats scan_scale(const Matrix& a) noexcept;

/// Quality diagnostics attached to an SvdResult. The cheap fields (scale
/// stats, equilibration, stall counter) are always filled in; the
/// heavy ones (residual and defects, an extra O(mn^2) of work) are computed
/// whenever the run did not converge, or on request via
/// JacobiOptions::full_diagnostics — a value of -1 means "not computed".
struct SvdDiagnostics {
  ScaleStats input_scale;        ///< dynamic range of the engine input
  bool equilibrated = false;     ///< whether the pre-pass rescaled the input
  int equilibration_exponent = 0;  ///< a was scaled by 2^exponent internally
  int stalled_sweeps = 0;        ///< trailing sweeps with non-decreasing activity
  double scaled_residual = -1.0; ///< ||A - U diag(sigma) V^T||_F / ||A||_F
  double u_defect = -1.0;        ///< max |u_i.u_j - delta_ij| over kept columns
  double v_defect = -1.0;        ///< max |v_i.v_j - delta_ij|
  std::string error;             ///< failure context for kFailed /
                                 ///< kDeadlineExpired results (empty otherwise)
};

/// Fills the heavy diagnostics fields of `result.diagnostics` from the
/// original (unscaled) input. `exponent` is the equilibration exponent the
/// engine used; the residual is evaluated at the equilibrated scale so the
/// metric stays finite even when ||A||_F^2 would overflow. Safe to call on
/// converged results too (e.g. from tools that always want the metrics).
void assess_quality(const Matrix& a, SvdResult& result, int exponent, double rank_tol);

}  // namespace treesvd
