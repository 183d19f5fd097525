// AVX-512F-tier copies of every dispatched kernel. Compiled with
// -mavx512f -ffp-contract=off (src/linalg/CMakeLists.txt) on x86-64: the
// 64-byte vectors of the batched bodies lower to single ZMM operations, so
// a lane width of 8 runs one full problem-group per instruction (and width
// 16 runs two). The single-problem kernels keep their fixed 4-double
// logical width (the mod-4 chain canon, see kernels_single_impl.inc) —
// here they get EVEX encodings and the 32-register file, not extra width.
// AVX-512 brings FMA with it, hence -ffp-contract=off: fusing c*x - s*y
// into one rounding would break the bitwise tier-invariance contract.

#include "linalg/dispatch_isa.hpp"

#include "linalg/blas1.hpp"
#include "linalg/rotation.hpp"

#if defined(__GNUC__) && !defined(__clang__)
// See kernels_baseline.cpp: TU-wide because GCC re-emits -Wpsabi at
// end-of-file template instantiation.
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

namespace treesvd {

#ifdef TREESVD_DISPATCH_X86

namespace {
#include "linalg/blas1_batched_impl.inc"
#include "linalg/kernels_single_impl.inc"

// vsqrtpd is IEEE correctly rounded: lane b equals std::sqrt(lane b)
// bitwise. Spelled as asm because generic vector extensions have no sqrt
// and GCC 12's _mm*_sqrt_pd intrinsics drag in cast/uninitialized warnings.
inline VecOf<4>::vd vsqrt(VecOf<4>::vd v) noexcept {
  VecOf<4>::vd r;
  asm("vsqrtpd %1, %0" : "=x"(r) : "x"(v));
  return r;
}
inline VecOf<8>::vd vsqrt(VecOf<8>::vd v) noexcept {
  VecOf<8>::vd r;
  asm("vsqrtpd %1, %0" : "=v"(r) : "v"(v));
  return r;
}

#include "linalg/rotation_batched_impl.inc"
}  // namespace

namespace isa_avx512 {

double dot(const double* x, const double* y, std::size_t n) noexcept {
  return single_dot_k(x, y, n);
}

double sumsq(const double* x, std::size_t n) noexcept { return single_sumsq_k(x, n); }

void axpy(double alpha, const double* x, double* y, std::size_t n) noexcept {
  single_axpy_k(alpha, x, y, n);
}

void gram_pair(const double* x, const double* y, std::size_t n, double* app, double* aqq,
               double* apq) noexcept {
  single_gram_pair_k(x, y, n, app, aqq, apq);
}

void rotate_and_norms(double* x, double* y, std::size_t n, double c, double s, double* xx,
                      double* yy) noexcept {
  single_rotate_norms_k<false>(x, y, n, c, s, xx, yy);
}

void rotate_and_norms_swapped(double* x, double* y, std::size_t n, double c, double s,
                              double* xx, double* yy) noexcept {
  single_rotate_norms_k<true>(x, y, n, c, s, xx, yy);
}

void gemm_micro(const double* ap, const double* bp, std::size_t kc, double* acc) noexcept {
  single_gemm_micro_k(ap, bp, kc, acc);
}

// w == 4 has no 8-lane group; it takes the 4-lane template, which these
// flags still lower to single YMM operations.

void batched_gram_pair(const double* x, const double* y, std::size_t m, std::size_t w,
                       double* app, double* aqq, double* apq) noexcept {
  if (w % 8 == 0) {
    batched_gram_pair_g<8>(x, y, m, w, app, aqq, apq);
  } else {
    batched_gram_pair_g<4>(x, y, m, w, app, aqq, apq);
  }
}

void batched_apply_rotation(double* x, double* y, std::size_t m, std::size_t w,
                            const double* c, const double* s, const std::uint8_t* rotate,
                            const std::uint8_t* swap_lanes) noexcept {
  if (w % 8 == 0) {
    batched_apply_rotation_g<8>(x, y, m, w, c, s, rotate, swap_lanes);
  } else {
    batched_apply_rotation_g<4>(x, y, m, w, c, s, rotate, swap_lanes);
  }
}

void batched_compute_rotation(const double* app, const double* aqq, const double* apq,
                              std::size_t w, double tol, double* c, double* s,
                              std::uint8_t* identity) noexcept {
  if (w % 8 == 0) {
    batched_rotation_decide_g<8>(app, aqq, apq, w, tol, c, s, identity);
  } else {
    batched_rotation_decide_g<4>(app, aqq, apq, w, tol, c, s, identity);
  }
}

}  // namespace isa_avx512

#endif  // TREESVD_DISPATCH_X86 — off x86 the tier is never exposed and the
        // namespace is simply not compiled (dispatch.cpp only references it
        // under the same guard).

}  // namespace treesvd
