#pragma once
// Runtime CPU-dispatch layer: the single ISA-selection mechanism of the tree.
//
// Every hot kernel — the single-problem pair kernels (dot, sumsq, axpy,
// gram_pair, the fused rotate_and_norms pair, the GEMM micro-kernel) and the
// batched SoA lane-block kernels (blas1.hpp) — exists in one copy per
// instruction-set tier, compiled from the same width-templated sources in
// per-ISA translation units (kernels_baseline.cpp / kernels_avx2.cpp /
// kernels_avx512.cpp, each with -ffp-contract=off). This header exposes the
// tier probe, the override plumbing, and the per-tier function-pointer
// tables the public kernel entry points route through.
//
// Bitwise contract: every kernel produces bit-identical results on every
// tier. The vector copies are elementwise IEEE operations over the exact
// accumulation chains of the scalar `_ref` twins (no FMA contraction, no
// reassociation), so tier selection is purely a throughput decision —
// results, convergence behaviour and determinism digests never depend on it.
//
// Tier resolution order: set_isa_override() (strongest; used through
// ScopedIsaOverride by tests and benches that pin a tier) ▷ the TREESVD_ISA
// environment variable ("baseline", "avx2", "avx512f") ▷ cpuid detection. A requested tier the host cannot run is
// clamped down to the widest supported one — forcing "avx512f" on an
// AVX2-only machine silently runs AVX2 (graceful fallback; the resolved
// tier, not the requested one, is what KernelStats reports).
//
// The override is process-wide (one relaxed atomic). Concurrent solves
// forcing different tiers would race on it, but since results are
// tier-invariant the race is benign — the only observable effect is which
// equally-correct copy runs.

#include <cstddef>
#include <cstdint>

namespace treesvd {

/// Instruction-set tiers, ordered: support is monotone (a host that runs
/// tier t runs every tier below it), so clamping a request means taking the
/// min with the detected tier.
enum class IsaTier : int {
  kBaseline = 0,  ///< default-flags build (SSE2 on x86-64, scalar elsewhere)
  kAvx2 = 1,      ///< 256-bit vectors, 16 registers
  kAvx512 = 2,    ///< 512-bit vectors, 32 registers (AVX-512F)
};

/// Override value meaning "no preference — env, then cpuid".
inline constexpr int kIsaAuto = -1;

/// One tier's kernel set. All pointers are non-null on every tier (tiers a
/// build cannot vectorize fall back to the scalar `_ref` twins, which are
/// bitwise identical by contract).
struct KernelTable {
  const char* name;  ///< "baseline", "avx2", "avx512f"
  IsaTier tier;

  // Single-problem kernels (contiguous columns).
  double (*dot)(const double* x, const double* y, std::size_t n);
  double (*sumsq)(const double* x, std::size_t n);
  void (*axpy)(double alpha, const double* x, double* y, std::size_t n);
  void (*gram_pair)(const double* x, const double* y, std::size_t n, double* app, double* aqq,
                    double* apq);
  void (*rotate_and_norms)(double* x, double* y, std::size_t n, double c, double s, double* xx,
                           double* yy);
  void (*rotate_and_norms_swapped)(double* x, double* y, std::size_t n, double c, double s,
                                   double* xx, double* yy);
  /// GEMM register micro-kernel: acc (mr x nr, row-major) += Ap · Bp over
  /// depth kc, with the packed-panel layout of linalg/gemm.cpp (mr = nr = 4).
  void (*gemm_micro)(const double* ap, const double* bp, std::size_t kc, double* acc);

  // Batched SoA lane-block kernels (blas1.hpp semantics). `w` must be a
  // positive multiple of 4; the per-tier wrappers pick the lane group width.
  void (*batched_gram_pair)(const double* x, const double* y, std::size_t m, std::size_t w,
                            double* app, double* aqq, double* apq);
  void (*batched_apply_rotation)(double* x, double* y, std::size_t m, std::size_t w,
                                 const double* c, const double* s, const std::uint8_t* rotate,
                                 const std::uint8_t* swap_lanes);
  void (*batched_compute_rotation)(const double* app, const double* aqq, const double* apq,
                                   std::size_t w, double tol, double* c, double* s,
                                   std::uint8_t* identity);
};

/// Widest tier the host CPU supports, probed once per process.
IsaTier detected_isa() noexcept;

/// Whether `tier` can run on this host (monotone: tier <= detected_isa()).
bool isa_supported(IsaTier tier) noexcept;

/// The tier the kernels actually run at: override ▷ TREESVD_ISA ▷ detected,
/// clamped to the host's capability.
IsaTier resolved_isa() noexcept;

/// Display name of a tier ("baseline" / "avx2" / "avx512f").
const char* isa_name(IsaTier tier) noexcept;

/// Parses a tier name as accepted in TREESVD_ISA ("baseline", "avx2",
/// "avx512f"; "avx512" is an accepted alias). Returns false (and leaves
/// *out untouched) for anything else.
bool parse_isa_name(const char* name, IsaTier* out) noexcept;

/// Kernel table of the resolved tier. The reference stays valid for the
/// process lifetime; callers on a hot path should resolve once per solve,
/// not per kernel call.
const KernelTable& kernels() noexcept;

/// Kernel table of a specific tier, clamped to the host's capability (the
/// graceful-fallback rule: an unsupported request returns the widest
/// supported table, whose `tier` field tells the caller what it got).
const KernelTable& kernels_for(IsaTier tier) noexcept;

/// Sets the process-wide tier override: 0/1/2 force a tier (clamped to the
/// host), kIsaAuto clears the override and re-derives from TREESVD_ISA +
/// cpuid (re-reading the environment at that point — the test seam for the
/// env plumbing).
void set_isa_override(int tier) noexcept;

/// RAII tier override: forces `tier` for its lifetime (kIsaAuto is a no-op),
/// restoring the previous resolution on destruction. A caller that wants a
/// solve on a particular tier wraps the solve in one of these.
class ScopedIsaOverride {
 public:
  explicit ScopedIsaOverride(int tier) noexcept;
  ~ScopedIsaOverride();

  ScopedIsaOverride(const ScopedIsaOverride&) = delete;
  ScopedIsaOverride& operator=(const ScopedIsaOverride&) = delete;

 private:
  int prev_;
  bool active_;
};

/// Scalar reference twin of the GEMM micro-kernel (same packed-panel layout
/// as KernelTable::gemm_micro): the bitwise cross-check target. The other
/// dispatched kernels' twins live next to their families (dot_ref /
/// sumsq_ref / axpy_ref / gram_pair_ref in blas1.hpp,
/// rotate_and_norms_ref[_swapped] in rotation.hpp, batched_*_ref in
/// blas1.hpp).
void gemm_micro_ref(const double* ap, const double* bp, std::size_t kc, double* acc) noexcept;

}  // namespace treesvd
