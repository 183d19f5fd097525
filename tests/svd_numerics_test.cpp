// Numerical-robustness layer (DESIGN.md §11): exact power-of-two
// equilibration and its bitwise-transparency contract, the scaled BLAS-1
// fallbacks, the hardened rotation kernel, the relative drift guard, and the
// graceful-degradation status classification.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/registry.hpp"
#include "linalg/generators.hpp"
#include "linalg/rotation.hpp"
#include "svd/equilibrate.hpp"
#include "svd/jacobi.hpp"
#include "svd/pair_kernel.hpp"
#include "svd/recovery.hpp"
#include "svd/spmd.hpp"

namespace treesvd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------------------
// Equilibration primitive

TEST(Equilibrate, ScanScaleReportsExponentSpanAndZeros) {
  Matrix a(2, 2);
  a(0, 0) = 1e150;
  a(1, 0) = -1e-150;
  a(0, 1) = 0.0;
  a(1, 1) = 2.0;
  const ScaleStats s = scan_scale(a);
  EXPECT_EQ(s.max_abs, 1e150);
  EXPECT_EQ(s.min_abs_nonzero, 1e-150);
  EXPECT_EQ(s.zero_entries, 1u);
  EXPECT_EQ(s.max_exponent, std::ilogb(1e150));
  EXPECT_EQ(s.min_exponent, std::ilogb(1e-150));
  EXPECT_GT(s.exponent_span(), 990);
}

TEST(Equilibrate, AlwaysModeRescalesToUnitBinade) {
  Rng rng(11);
  Matrix a = random_gaussian(6, 4, rng);
  for (double& v : a.data()) v = std::ldexp(v, 60);
  const Matrix orig = a;
  const Equilibration eq = equilibrate(a, EquilibrateMode::kAlways);
  ASSERT_TRUE(eq.applied);
  const ScaleStats after = scan_scale(a);
  EXPECT_EQ(after.max_exponent, 0);  // max entry now in [1, 2)
  // The scaling is an exact power of two: undoing it restores every entry
  // bitwise.
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i)
      EXPECT_EQ(std::ldexp(a(i, j), -eq.exponent), orig(i, j));
}

TEST(Equilibrate, AutoModeActsOnlyBeyondTheExponentGuard) {
  Rng rng(12);
  Matrix well = random_gaussian(4, 4, rng);
  EXPECT_FALSE(equilibrate(well, EquilibrateMode::kAuto).applied);

  Matrix big = random_gaussian(4, 4, rng);
  for (double& v : big.data()) v *= 1e150;  // ilogb ~ 498 > 320
  EXPECT_TRUE(equilibrate(big, EquilibrateMode::kAuto).applied);

  Matrix tiny = random_gaussian(4, 4, rng);
  for (double& v : tiny.data()) v *= 1e-150;
  EXPECT_TRUE(equilibrate(tiny, EquilibrateMode::kAuto).applied);

  Matrix off = random_gaussian(4, 4, rng);
  for (double& v : off.data()) v *= 1e60;  // ilogb ~ 199 <= 320: leave alone
  EXPECT_FALSE(equilibrate(off, EquilibrateMode::kAuto).applied);
}

TEST(Equilibrate, UnscaleSigmaIsExact) {
  Equilibration eq;
  eq.applied = true;
  eq.exponent = -75;
  std::vector<double> sigma = {3.0, 1.5, 0.0};
  unscale_sigma(sigma, eq);
  EXPECT_EQ(sigma[0], std::ldexp(3.0, 75));
  EXPECT_EQ(sigma[1], std::ldexp(1.5, 75));
  EXPECT_EQ(sigma[2], 0.0);
}

// The equilibration contract: on a well-scaled input, the forced-scaling run
// must reproduce the unscaled run bit-for-bit — same sigma bits, same U/V
// bits, and the same sweep count.
TEST(Equilibrate, BitwiseTransparentOnWellScaledInput) {
  Rng rng(13);
  Matrix a = random_gaussian(12, 8, rng);
  for (double& v : a.data()) v = std::ldexp(v, 60);  // nonzero exponent, in range

  JacobiOptions off;
  off.equilibrate = EquilibrateMode::kOff;
  JacobiOptions always;
  always.equilibrate = EquilibrateMode::kAlways;

  const auto ord = make_ordering("fat-tree");
  const SvdResult r0 = one_sided_jacobi(a, *ord, off);
  const SvdResult r1 = one_sided_jacobi(a, *ord, always);
  ASSERT_TRUE(r0.converged);
  ASSERT_TRUE(r1.converged);
  ASSERT_TRUE(r1.diagnostics.equilibrated);
  EXPECT_EQ(r0.sweeps, r1.sweeps);
  EXPECT_EQ(r0.rotations, r1.rotations);
  for (std::size_t k = 0; k < r0.sigma.size(); ++k) EXPECT_EQ(r0.sigma[k], r1.sigma[k]);
  EXPECT_TRUE(r0.u == r1.u);
  EXPECT_TRUE(r0.v == r1.v);
}

// ---------------------------------------------------------------------------
// Scaled BLAS-1 fallbacks

TEST(ScaledSumsq, MatchesPlainSumsqInRange) {
  const std::vector<double> x = {3.0, -4.0, 12.0};
  const ScaledSumsq s = sumsq_scaled(x);
  EXPECT_DOUBLE_EQ(s.value(), sumsq(x));
  EXPECT_DOUBLE_EQ(s.norm(), 13.0);
}

TEST(ScaledSumsq, SurvivesOverflowScale) {
  const std::vector<double> x = {3e160, 4e160};
  EXPECT_TRUE(std::isinf(sumsq(x)));  // the fast path honestly overflows
  const ScaledSumsq s = sumsq_scaled(x);
  EXPECT_NEAR(s.norm(), 5e160, 5e160 * 1e-15);
  EXPECT_TRUE(std::isinf(s.value()));  // the true squared norm IS out of range
  // sumsq_robust falls back to the scaled form, so it reports the same
  // honest overflow instead of NaN garbage.
  EXPECT_EQ(sumsq_robust(x), s.value());
}

TEST(ScaledSumsq, SurvivesUnderflowScale) {
  const std::vector<double> x = {3e-170, -4e-170};
  EXPECT_EQ(sumsq(x), 0.0);  // squares vanish below the denormal range
  const ScaledSumsq s = sumsq_scaled(x);
  EXPECT_NEAR(s.norm(), 5e-170, 5e-170 * 1e-15);
  EXPECT_GT(s.norm(), 0.0);
  EXPECT_DOUBLE_EQ(s.norm(), nrm2(x));  // agrees with the dnrm2-style norm
}

TEST(ScaledDot, RecoversCancellationThatOverflowsTheFastPath) {
  const std::vector<double> x = {1e160, 1e160};
  const std::vector<double> y = {1e160, -1e160};
  EXPECT_TRUE(std::isnan(dot(x, y)));  // Inf + (-Inf)
  EXPECT_EQ(dot_scaled(x, y), 0.0);    // the true dot product is exactly 0
}

TEST(ScaledDot, MatchesPlainDotInRange) {
  const std::vector<double> x = {1.0, 2.0, -3.0};
  const std::vector<double> y = {0.5, -1.0, 4.0};
  EXPECT_DOUBLE_EQ(dot_scaled(x, y), dot(x, y));
}

// ---------------------------------------------------------------------------
// Hardened rotation kernel

TEST(RotationHardening, OverflowedZetaReturnsIdentityInsteadOfLivelock) {
  // apq tiny against the diagonal gap: zeta overflows to Inf, t rounds to
  // zero — the mathematically correct limit is "no rotation". The old code
  // emitted a counted no-op rotation here, which never converges.
  const GramPair g{1.0, 1e300, 1e-30};
  const JacobiRotation r = compute_rotation(g, 0.0);
  EXPECT_TRUE(r.identity);
}

TEST(RotationHardening, LargeFiniteZetaStillRotates) {
  const GramPair g{1.0, 1e20, 1.0};  // zeta = 5e19, above the 2^27 branch
  const JacobiRotation r = compute_rotation(g, 0.0);
  ASSERT_FALSE(r.identity);
  EXPECT_NEAR(r.c, 1.0, 1e-15);
  EXPECT_NEAR(r.s, 1e-20, 1e-35);
  EXPECT_NEAR(r.c * r.c + r.s * r.s, 1.0, 1e-15);
}

TEST(RotationHardening, BigZetaBranchIsBitwiseEquivalent) {
  // For |zeta| >= 2^27, sqrt(1 + zeta^2) rounds to |zeta| exactly, so
  // t = 1/(2 zeta) is the textbook small root bit-for-bit — the branch only
  // avoids the zeta^2 intermediate overflow.
  for (const double z : {134217728.0 /* 2^27 */, 1e9, 1e12, 1e15, 1e100}) {
    EXPECT_EQ(1.0 / (2.0 * z), 1.0 / (z + std::sqrt(1.0 + z * z))) << "zeta = " << z;
  }
}

TEST(RotationHardening, DuplicateColumnsRotateAtFortyFiveDegrees) {
  const GramPair g{2.0, 2.0, 2.0};  // x == y exactly
  const JacobiRotation r = compute_rotation(g, 1e-13);
  ASSERT_FALSE(r.identity);
  EXPECT_DOUBLE_EQ(r.c, 1.0 / std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(r.s, r.c);
}

TEST(RotationHardening, DegenerateAndPoisonedGramsReturnIdentity) {
  EXPECT_TRUE(compute_rotation({0.0, 5.0, 0.0}, 1e-13).identity);  // zero column
  EXPECT_TRUE(compute_rotation({5.0, 0.0, 0.0}, 1e-13).identity);
  EXPECT_TRUE(compute_rotation({kInf, 1.0, 0.5}, 1e-13).identity);
  EXPECT_TRUE(compute_rotation({1.0, 1.0, kNan}, 1e-13).identity);
}

// ---------------------------------------------------------------------------
// The one pair path at extreme scales

TEST(PairKernel, TinyColumnsStillRotate) {
  // Columns at 1e-160: the Gram elements are subnormal and the threshold
  // tol*||x||*||y|| underflows to exactly zero. The fresh gram_pair pass
  // still sees a nonzero coupling, so the pair must rotate, and the rotated
  // columns must stay finite.
  std::vector<double> x = {1e-160, 0.0};
  std::vector<double> y = {0.7e-160, 0.7e-160};
  JacobiOptions opt;
  KernelCounters counters;
  const std::span<double> none;
  const auto out = detail::PairKernel(opt).process(x, y, none, none, &counters);
  EXPECT_TRUE(out.rotated || out.swapped);
  const KernelStats ks = counters.snapshot();
  EXPECT_EQ(ks.pairs, 1u);
  EXPECT_EQ(ks.gram_passes, 1u);
  EXPECT_EQ(ks.rotate_passes, 1u);
  for (const double v : x) EXPECT_TRUE(std::isfinite(v));
  for (const double v : y) EXPECT_TRUE(std::isfinite(v));
}

// ---------------------------------------------------------------------------
// Status contract

TEST(StallDetector, ClassifiesNonDecreasingActivity) {
  StallDetector d(3);
  d.observe(10.0);  // no previous value yet
  d.observe(8.0);   // decreasing: progress
  EXPECT_FALSE(d.stalled());
  d.observe(8.0);
  d.observe(8.0);
  EXPECT_FALSE(d.stalled());  // streak 2 < window 3
  d.observe(9.0);
  EXPECT_TRUE(d.stalled());  // streak 3
  d.observe(1.0);
  EXPECT_FALSE(d.stalled());  // decrease resets
}

TEST(StallDetector, ZeroActivityIsConvergenceNotStall) {
  StallDetector d(2);
  d.observe(4.0);
  d.observe(0.0);
  d.observe(0.0);
  EXPECT_FALSE(d.stalled());
  EXPECT_EQ(d.streak(), 0);
}

TEST(StatusContract, StalledRunIsDiagnosedWithQualityMetrics) {
  // tol = 0 on a single column pair: the roundoff-level dot never reaches
  // exactly zero, so every sweep performs exactly one rotation — activity is
  // constant at 1 and the run can never converge. It must report kStalled
  // (not just kMaxSweeps) plus populated diagnostics, and still return a
  // finite best-effort factorization.
  Rng rng(31);
  const Matrix a = random_gaussian(8, 2, rng);
  JacobiOptions opt;
  opt.tol = 0.0;
  opt.max_sweeps = 10;
  opt.sort = SortMode::kNone;  // sorting swaps would add activity jitter
  const SvdResult r = one_sided_jacobi(a, *make_ordering("round-robin"), opt);
  ASSERT_FALSE(r.converged);
  EXPECT_EQ(r.status, SvdStatus::kStalled);
  EXPECT_GE(r.diagnostics.stalled_sweeps, 4);
  EXPECT_GE(r.diagnostics.scaled_residual, 0.0);
  EXPECT_LT(r.diagnostics.scaled_residual, 1e-10);  // best effort is still good
  EXPECT_GE(r.diagnostics.u_defect, 0.0);
  EXPECT_GE(r.diagnostics.v_defect, 0.0);
  for (const double s : r.sigma) EXPECT_TRUE(std::isfinite(s));
}

TEST(StatusContract, ConvergedRunsReportConvergedEverywhere) {
  Rng rng(33);
  const Matrix a = random_gaussian(12, 8, rng);
  const auto ord = make_ordering("fat-tree");
  const SvdResult serial = one_sided_jacobi(a, *ord);
  EXPECT_EQ(serial.status, SvdStatus::kConverged);
  const SvdResult spmd = spmd_jacobi(a, *ord);
  EXPECT_EQ(spmd.status, SvdStatus::kConverged);
  // Happy path: the heavy metrics are skipped unless requested.
  EXPECT_LT(serial.diagnostics.scaled_residual, 0.0);
  JacobiOptions full;
  full.full_diagnostics = true;
  const SvdResult diag = one_sided_jacobi(a, *ord, full);
  EXPECT_GE(diag.diagnostics.scaled_residual, 0.0);
  EXPECT_LT(diag.diagnostics.scaled_residual, 1e-13);
  EXPECT_LT(diag.diagnostics.u_defect, 1e-13);
  EXPECT_LT(diag.diagnostics.v_defect, 1e-13);
}

// ---------------------------------------------------------------------------
// Known-sigma accuracy at extreme scales

TEST(ExtremeScale, KnownSpectrumReproducedAtHugeScale) {
  Rng rng(41);
  std::vector<double> sigma = geometric_spectrum(8, 1e12);
  for (double& s : sigma) s *= 1e150;
  const Matrix a = with_spectrum(12, 8, sigma, rng);
  const SvdResult r = one_sided_jacobi(a, *make_ordering("fat-tree"));
  ASSERT_TRUE(r.converged);
  ASSERT_TRUE(r.diagnostics.equilibrated);
  for (std::size_t k = 0; k < sigma.size(); ++k) {
    EXPECT_TRUE(std::isfinite(r.sigma[k]));
    EXPECT_NEAR(r.sigma[k], sigma[k], sigma[0] * 1e-10);
  }
}

TEST(ExtremeScale, KnownSpectrumReproducedAtTinyScale) {
  Rng rng(42);
  std::vector<double> sigma = geometric_spectrum(8, 1e12);
  for (double& s : sigma) s *= 1e-150;
  const Matrix a = with_spectrum(12, 8, sigma, rng);
  const SvdResult r = one_sided_jacobi(a, *make_ordering("new-ring"));
  ASSERT_TRUE(r.converged);
  ASSERT_TRUE(r.diagnostics.equilibrated);
  for (std::size_t k = 0; k < sigma.size(); ++k) {
    EXPECT_GE(r.sigma[k], 0.0);
    EXPECT_NEAR(r.sigma[k], sigma[k], sigma[0] * 1e-10);
  }
}

TEST(ExtremeScale, SpmdMatchesSerialBitwiseUnderEquilibration) {
  Rng rng(43);
  std::vector<double> sigma = geometric_spectrum(8, 1e6);
  for (double& s : sigma) s *= 1e150;
  const Matrix a = with_spectrum(12, 8, sigma, rng);
  const auto ord = make_ordering("new-ring");
  const SvdResult serial = one_sided_jacobi(a, *ord);
  const SvdResult spmd = spmd_jacobi(a, *ord);
  ASSERT_TRUE(serial.converged);
  ASSERT_TRUE(spmd.converged);
  EXPECT_EQ(serial.sweeps, spmd.sweeps);
  for (std::size_t k = 0; k < serial.sigma.size(); ++k)
    EXPECT_EQ(serial.sigma[k], spmd.sigma[k]);
}

}  // namespace
}  // namespace treesvd
