#pragma once
// Internal: per-ISA entry points of the dispatched kernels, one namespace
// per tier. Each kernels_<tier>.cpp TU compiles the same width-templated
// bodies (blas1_batched_impl.inc + kernels_single_impl.inc +
// rotation_batched_impl.inc) under that tier's flags and exports them here;
// dispatch.cpp assembles the KernelTables from these symbols. Nothing
// outside src/linalg should include this header — the public surface is
// linalg/dispatch.hpp.
//
// The AVX TUs are compiled with -ffp-contract=off: with FMA available the
// compiler would otherwise fuse the rotate kernel's c*x - s*y into one
// rounding, silently breaking the bitwise tier-invariance contract
// (DESIGN.md sections 11 and 14).

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TREESVD_DISPATCH_X86 1
#endif

namespace treesvd {

// Declares one tier's full kernel set; every tier exports the same names.
#define TREESVD_ISA_TIER_DECLS()                                                               \
  double dot(const double* x, const double* y, std::size_t n) noexcept;                        \
  double sumsq(const double* x, std::size_t n) noexcept;                                       \
  void axpy(double alpha, const double* x, double* y, std::size_t n) noexcept;                 \
  void gram_pair(const double* x, const double* y, std::size_t n, double* app, double* aqq,    \
                 double* apq) noexcept;                                                        \
  void rotate_and_norms(double* x, double* y, std::size_t n, double c, double s, double* xx,   \
                        double* yy) noexcept;                                                  \
  void rotate_and_norms_swapped(double* x, double* y, std::size_t n, double c, double s,       \
                                double* xx, double* yy) noexcept;                              \
  void gemm_micro(const double* ap, const double* bp, std::size_t kc, double* acc) noexcept;   \
  void batched_gram_pair(const double* x, const double* y, std::size_t m, std::size_t w,       \
                         double* app, double* aqq, double* apq) noexcept;                      \
  void batched_apply_rotation(double* x, double* y, std::size_t m, std::size_t w,              \
                              const double* c, const double* s, const std::uint8_t* rotate,    \
                              const std::uint8_t* swap_lanes) noexcept;                        \
  void batched_compute_rotation(const double* app, const double* aqq, const double* apq,       \
                                std::size_t w, double tol, double* c, double* s,               \
                                std::uint8_t* identity) noexcept;

namespace isa_baseline {
TREESVD_ISA_TIER_DECLS()
}  // namespace isa_baseline

#ifdef TREESVD_DISPATCH_X86
namespace isa_avx2 {
TREESVD_ISA_TIER_DECLS()
}  // namespace isa_avx2

namespace isa_avx512 {
TREESVD_ISA_TIER_DECLS()
}  // namespace isa_avx512
#endif  // TREESVD_DISPATCH_X86

#undef TREESVD_ISA_TIER_DECLS

}  // namespace treesvd
