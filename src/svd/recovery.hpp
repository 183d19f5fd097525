#pragma once
// Engine-side guards: the observational stall classifier and the input
// guard every engine uses. (The SPMD Jacobi's sweep-boundary checkpoints
// and rollback live in svd/spmd.cpp.)
//
// Stagnation is reported, never repaired: the always-on StallDetector
// classifies a run whose sweep activity (rotations + swaps, the quantity
// whose zero defines convergence) stopped decreasing as kStalled.

#include <cstddef>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace treesvd {

/// Trailing window of the stall classifier every engine uses: a
/// non-converged run whose activity failed to decrease for this many final
/// sweeps reports SvdStatus::kStalled instead of kMaxSweeps.
inline constexpr int kStallWindow = 4;

/// Always-on, purely observational stall classifier. It never triggers
/// repairs or perturbs the iteration: engines feed it the per-sweep activity
/// and consult it only at exit, to distinguish a run that hit max_sweeps
/// while still making progress (SvdStatus::kMaxSweeps) from one whose
/// activity stopped decreasing (SvdStatus::kStalled — more sweeps would not
/// have helped). Trivially copyable so spmd can carry it in its sweep
/// checkpoints.
class StallDetector {
 public:
  void observe(double activity) noexcept {
    const bool flat = activity > 0.0 && has_prev_ && activity >= prev_;
    prev_ = activity;
    has_prev_ = true;
    streak_ = flat ? streak_ + 1 : 0;
  }

  /// True when the trailing kStallWindow sweeps all failed to decrease
  /// activity.
  bool stalled() const noexcept { return streak_ >= kStallWindow; }
  /// Length of the trailing non-decreasing streak (diagnostics).
  int streak() const noexcept { return streak_; }

  /// Exact double-serialisation (kPacked values appended) so multi-process
  /// engines can carry the classifier inside published checkpoint blobs; the
  /// observed activity is itself a double, so the round trip is bitwise.
  static constexpr std::size_t kPacked = 3;
  void pack(std::vector<double>& out) const {
    out.push_back(static_cast<double>(streak_));
    out.push_back(prev_);
    out.push_back(has_prev_ ? 1.0 : 0.0);
  }
  static StallDetector unpack(const double* p) {
    StallDetector s;
    s.streak_ = static_cast<int>(p[0]);
    s.prev_ = p[1];
    s.has_prev_ = p[2] != 0.0;
    return s;
  }

 private:
  int streak_ = 0;
  double prev_ = 0.0;
  bool has_prev_ = false;
};

/// Index of the first column containing a NaN or Inf entry, -1 when the
/// whole matrix is finite. The throw-free probe behind
/// require_finite_columns, also used by the serving layer to classify a
/// poison request during failure isolation without paying an exception per
/// healthy lane.
int first_nonfinite_column(const Matrix& a) noexcept;

/// Fast-fail input guard: throws std::invalid_argument naming the first
/// column that contains a NaN or Inf entry. Every SVD engine calls this up
/// front, so poisoned inputs fail precisely instead of iterating to
/// max_sweeps on IEEE-propagated garbage.
void require_finite_columns(const Matrix& a, const std::string& engine);

}  // namespace treesvd
