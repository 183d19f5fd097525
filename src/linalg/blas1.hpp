#pragma once
// BLAS-1 style kernels on column views.
//
// These are the only dense kernels the one-sided Jacobi method needs: the
// Gram elements of a column pair (dot products and squared norms) and the
// plane-rotation updates. The hot entry points (dot, sumsq, axpy, gram_pair)
// resolve through the runtime CPU-dispatch layer (linalg/dispatch.hpp) to
// explicit-SIMD per-ISA kernels; the `_ref` twins below spell out the exact
// scalar accumulation chains those kernels reproduce bitwise, so results are
// identical on every tier. All forms use multiple independent accumulator
// chains (mod-4 element interleave) so partial sums stay in flight instead of
// serialising on the add latency chain.

#include <cstddef>
#include <cstdint>
#include <span>

namespace treesvd {

/// x . y
double dot(std::span<const double> x, std::span<const double> y) noexcept;

/// x . x, accumulated unscaled (consistent with gram_pair; use nrm2 when the
/// entries may overflow or underflow under squaring).
double sumsq(std::span<const double> x) noexcept;

/// Scalar reference twins of the dispatched kernels: four mod-4 accumulation
/// chains, tail into chain 0, combine (s0+s1)+(s2+s3). Bitwise identical to
/// the dispatched forms on every ISA tier (enforced by linalg_dispatch_test);
/// use these when an independent implementation is wanted for cross-checks.
double dot_ref(std::span<const double> x, std::span<const double> y) noexcept;
double sumsq_ref(std::span<const double> x) noexcept;

/// dlassq-style representation of a sum of squares: the pair (scale, ssq)
/// stands for scale^2 * ssq with scale = max |x_i| visited so far, so the
/// accumulation itself can neither overflow nor underflow — only the final
/// conversion back to a plain double can, and then only when the true value
/// is outside the representable range.
struct ScaledSumsq {
  double scale = 0.0;
  double ssq = 1.0;

  /// scale^2 * ssq as a plain double (Inf when the true value overflows,
  /// 0 when x was all zeros).
  double value() const noexcept;
  /// scale * sqrt(ssq): the 2-norm, representable whenever the norm itself
  /// is (i.e. for every finite input).
  double norm() const noexcept;
};

/// Scaled accumulation of x . x (LAPACK dlassq). Use where sumsq would
/// overflow/underflow: the scaled form loses nothing at any input scale.
ScaledSumsq sumsq_scaled(std::span<const double> x) noexcept;

/// x . y with exact power-of-two prescaling of both operands (each by its
/// own largest-entry exponent), so the accumulation stays in range; the
/// combined exponent is reapplied at the end. Costs ~3x dot; used as the
/// retry path when the fast unscaled dot returns a non-finite value.
double dot_scaled(std::span<const double> x, std::span<const double> y) noexcept;

/// Fast path + fallback: sumsq(x), retried as sumsq_scaled when the unscaled
/// accumulation produced a non-finite value (which for non-negative terms
/// means the squares overflowed mid-sum).
double sumsq_robust(std::span<const double> x) noexcept;

/// ||x||_2, computed with scaling so that it neither overflows nor underflows.
double nrm2(std::span<const double> x) noexcept;

/// y += alpha * x
void axpy(double alpha, std::span<const double> x, std::span<double> y) noexcept;

/// Scalar reference twin of axpy (elementwise, so any vectorization is
/// bitwise-free; the twin exists for the dispatch test's cross-check).
void axpy_ref(double alpha, std::span<const double> x, std::span<double> y) noexcept;

/// x *= alpha
void scal(double alpha, std::span<double> x) noexcept;

/// y[i] = x[i] / denom. Per-element division (not a reciprocal multiply), so
/// the U-formation loops that moved onto it stay bitwise-identical to their
/// historical per-element form.
void copy_div(std::span<const double> x, double denom, std::span<double> y) noexcept;

/// Swaps the contents of two equal-length vectors.
void swap(std::span<double> x, std::span<double> y) noexcept;

/// The three Gram elements of a column pair, in one fused pass:
/// app = x.x, aqq = y.y, apq = x.y.
struct GramPair {
  double app;
  double aqq;
  double apq;
};
GramPair gram_pair(std::span<const double> x, std::span<const double> y) noexcept;

/// Scalar reference twin of gram_pair: four mod-4 chains per Gram element
/// (twelve partial sums), tail into chain 0, combine (c0+c1)+(c2+c3).
GramPair gram_pair_ref(std::span<const double> x, std::span<const double> y) noexcept;

// ---------------------------------------------------------------------------
// Batched SoA lane-block kernels (the cross-problem axis of svd/batch.hpp).
//
// A lane block packs the same column of `w` independent problems
// structure-of-arrays: element i of problem (lane) b lives at x[i*w + b], so
// one SIMD vector spans w problems at the same row, never w rows of one
// problem. The per-lane accumulation replicates the scalar kernels'
// multi-accumulator chains exactly — lane b of every output is bitwise
// identical to calling the corresponding scalar kernel (gram_pair,
// apply_rotation[_swapped]) on lane b's gathered data. That bitwise contract
// is what lets the batched Jacobi engine retire lanes independently while
// still reproducing the sequential driver per problem.
//
// `w` must be a positive multiple of kBatchLanes. The vectorized
// implementations (GCC/Clang vector extensions) cover w in {4, 8, 16}; other
// widths, and builds without vector extensions, take the reference path
// below. The *_ref entry points always use the reference path — gather each
// lane and call the scalar kernel — and exist as the bitwise cross-check
// target for the vectorized forms.
// ---------------------------------------------------------------------------

/// Lanes per SIMD vector of the batched kernels (doubles per 256-bit vector).
inline constexpr std::size_t kBatchLanes = 4;

/// True when this build vectorizes the batched kernels across lanes (the
/// *_ref forms are then an independent implementation; otherwise they are
/// the implementation).
bool batch_kernels_vectorized() noexcept;

/// Instruction-set tier the vectorized batched kernels dispatch to at
/// runtime: "avx512f", "avx2", "baseline" (default-flags vector extensions),
/// or "scalar-ref" in builds without vector extensions. Informational — the
/// results are bitwise identical on every tier.
const char* batched_kernel_isa() noexcept;

/// Per-lane gram_pair: app[b] = x_b.x_b, aqq[b] = y_b.y_b, apq[b] = x_b.y_b.
void batched_gram_pair(const double* x, const double* y, std::size_t m, std::size_t w,
                       double* app, double* aqq, double* apq) noexcept;
void batched_gram_pair_ref(const double* x, const double* y, std::size_t m, std::size_t w,
                           double* app, double* aqq, double* apq) noexcept;

/// Masked rotation across lanes (H and V columns). Lanes with
/// rotate[b] == 0 keep x and y bitwise untouched — crucially they are *not*
/// passed through an identity rotation, which could flip the sign of -0.0
/// entries. Rotated lanes match apply_rotation (swap_lanes[b] == 0) or
/// apply_rotation_swapped (swap_lanes[b] != 0) on the lane's data.
void batched_apply_rotation(double* x, double* y, std::size_t m, std::size_t w,
                            const double* c, const double* s,
                            const std::uint8_t* rotate,
                            const std::uint8_t* swap_lanes) noexcept;
void batched_apply_rotation_ref(double* x, double* y, std::size_t m, std::size_t w,
                                const double* c, const double* s,
                                const std::uint8_t* rotate,
                                const std::uint8_t* swap_lanes) noexcept;

}  // namespace treesvd
