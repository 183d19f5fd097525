// Tests for the runtime CPU-dispatch layer (linalg/dispatch.hpp).
//
// The load-bearing property is the bitwise contract: every dispatched kernel
// must produce bit-identical results on every ISA tier the host supports,
// because tier selection is a throughput decision that may never leak into
// results, convergence, or determinism digests. The tests therefore compare
// raw bit patterns (not EXPECT_DOUBLE_EQ) of every SIMD kernel against its
// scalar `_ref` twin, on every supported tier, across sizes that exercise
// full vector bodies, tails of every residue length, and the empty case.
//
// The second half covers the override plumbing: set_isa_override /
// ScopedIsaOverride / TREESVD_ISA env resolution, clamp-to-host graceful
// fallback, and name parsing.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "linalg/blas1.hpp"
#include "linalg/dispatch.hpp"
#include "linalg/rotation.hpp"

namespace treesvd {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

// Bit-level equality that distinguishes +0.0 / -0.0 and canonicalises no NaN.
::testing::AssertionResult BitEq(double a, double b) {
  if (bits(a) == bits(b)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " (0x" << std::hex << bits(a) << ") vs " << b << " (0x" << bits(b) << ")";
}

// Deterministic fill with spread exponents so any reassociation or FMA
// contraction in a vector kernel changes low-order bits.
void fill(std::mt19937_64& rng, std::span<double> out) {
  std::uniform_real_distribution<double> mant(-1.0, 1.0);
  std::uniform_int_distribution<int> expo(-12, 12);
  for (double& v : out) v = std::ldexp(mant(rng), expo(rng));
}

std::vector<IsaTier> supported_tiers() {
  std::vector<IsaTier> tiers;
  for (IsaTier t : {IsaTier::kBaseline, IsaTier::kAvx2, IsaTier::kAvx512}) {
    if (isa_supported(t)) tiers.push_back(t);
  }
  return tiers;
}

// Sizes covering empty input, sub-vector lengths, every tail residue mod 8,
// and a length long enough for several full 512-bit bodies.
const std::size_t kSizes[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 15, 16, 17, 31, 32, 33, 100, 257};

class DispatchTierTest : public ::testing::TestWithParam<IsaTier> {
 protected:
  const KernelTable& table() const { return kernels_for(GetParam()); }
};

TEST_P(DispatchTierTest, TableIsFullyPopulatedAndLabelled) {
  const KernelTable& t = table();
  EXPECT_EQ(t.tier, GetParam());
  EXPECT_STREQ(t.name, isa_name(GetParam()));
  EXPECT_NE(t.dot, nullptr);
  EXPECT_NE(t.sumsq, nullptr);
  EXPECT_NE(t.axpy, nullptr);
  EXPECT_NE(t.gram_pair, nullptr);
  EXPECT_NE(t.rotate_and_norms, nullptr);
  EXPECT_NE(t.rotate_and_norms_swapped, nullptr);
  EXPECT_NE(t.gemm_micro, nullptr);
  EXPECT_NE(t.batched_gram_pair, nullptr);
  EXPECT_NE(t.batched_apply_rotation, nullptr);
  EXPECT_NE(t.batched_compute_rotation, nullptr);
}

TEST_P(DispatchTierTest, DotSumsqAxpyBitwiseMatchRef) {
  const KernelTable& t = table();
  std::mt19937_64 rng(0x5eed0001);
  for (std::size_t n : kSizes) {
    std::vector<double> x(n), y(n);
    fill(rng, x);
    fill(rng, y);

    EXPECT_TRUE(BitEq(t.dot(x.data(), y.data(), n), dot_ref(x, y))) << "dot n=" << n;
    EXPECT_TRUE(BitEq(t.sumsq(x.data(), n), sumsq_ref(x))) << "sumsq n=" << n;

    std::vector<double> y_simd = y;
    std::vector<double> y_refv = y;
    const double alpha = 0x1.3p-2;
    t.axpy(alpha, x.data(), y_simd.data(), n);
    axpy_ref(alpha, x, y_refv);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(BitEq(y_simd[i], y_refv[i])) << "axpy n=" << n << " i=" << i;
    }
  }
}

TEST_P(DispatchTierTest, GramPairBitwiseMatchesRef) {
  const KernelTable& t = table();
  std::mt19937_64 rng(0x5eed0002);
  for (std::size_t n : kSizes) {
    std::vector<double> x(n), y(n);
    fill(rng, x);
    fill(rng, y);
    double app = -1, aqq = -1, apq = -1;
    t.gram_pair(x.data(), y.data(), n, &app, &aqq, &apq);
    const GramPair g = gram_pair_ref(x, y);
    EXPECT_TRUE(BitEq(app, g.app)) << "n=" << n;
    EXPECT_TRUE(BitEq(aqq, g.aqq)) << "n=" << n;
    EXPECT_TRUE(BitEq(apq, g.apq)) << "n=" << n;
  }
}

TEST_P(DispatchTierTest, RotateAndNormsBitwiseMatchesRef) {
  const KernelTable& t = table();
  std::mt19937_64 rng(0x5eed0003);
  const double c = 0x1.bb67ae8584caap-1;  // cos/sin of a generic angle
  const double s = 0x1.0p-1;
  for (std::size_t n : kSizes) {
    for (bool swapped : {false, true}) {
      std::vector<double> x0(n), y0(n);
      fill(rng, x0);
      fill(rng, y0);

      std::vector<double> xs = x0, ys = y0, xr = x0, yr = y0;
      double xx = -1, yy = -1;
      if (swapped) {
        t.rotate_and_norms_swapped(xs.data(), ys.data(), n, c, s, &xx, &yy);
      } else {
        t.rotate_and_norms(xs.data(), ys.data(), n, c, s, &xx, &yy);
      }
      const RotatedNorms ref = swapped ? rotate_and_norms_swapped_ref(xr, yr, c, s)
                                       : rotate_and_norms_ref(xr, yr, c, s);
      EXPECT_TRUE(BitEq(xx, ref.app)) << "n=" << n << " swapped=" << swapped;
      EXPECT_TRUE(BitEq(yy, ref.aqq)) << "n=" << n << " swapped=" << swapped;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(BitEq(xs[i], xr[i])) << "x n=" << n << " i=" << i << " swapped=" << swapped;
        ASSERT_TRUE(BitEq(ys[i], yr[i])) << "y n=" << n << " i=" << i << " swapped=" << swapped;
      }
    }
  }
}

TEST_P(DispatchTierTest, GemmMicroKernelBitwiseMatchesRef) {
  const KernelTable& t = table();
  std::mt19937_64 rng(0x5eed0004);
  constexpr std::size_t kMr = 4, kNr = 4;
  for (std::size_t kc : {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{8},
                         std::size_t{17}, std::size_t{64}}) {
    std::vector<double> ap(kc * kMr), bp(kc * kNr);
    fill(rng, ap);
    fill(rng, bp);
    std::vector<double> acc_simd(kMr * kNr), acc_ref(kMr * kNr);
    fill(rng, acc_simd);
    acc_ref = acc_simd;
    t.gemm_micro(ap.data(), bp.data(), kc, acc_simd.data());
    gemm_micro_ref(ap.data(), bp.data(), kc, acc_ref.data());
    for (std::size_t i = 0; i < kMr * kNr; ++i) {
      ASSERT_TRUE(BitEq(acc_simd[i], acc_ref[i])) << "kc=" << kc << " i=" << i;
    }
  }
}

TEST_P(DispatchTierTest, BatchedReductionsBitwiseMatchRef) {
  const KernelTable& t = table();
  std::mt19937_64 rng(0x5eed0005);
  for (std::size_t w : {std::size_t{4}, std::size_t{8}, std::size_t{16}}) {
    for (std::size_t m : {std::size_t{0}, std::size_t{1}, std::size_t{5}, std::size_t{64}}) {
      std::vector<double> x(m * w), y(m * w);
      fill(rng, x);
      fill(rng, y);

      std::vector<double> app_s(w), aqq_s(w), apq_s(w), app_r(w), aqq_r(w), apq_r(w);
      t.batched_gram_pair(x.data(), y.data(), m, w, app_s.data(), aqq_s.data(), apq_s.data());
      batched_gram_pair_ref(x.data(), y.data(), m, w, app_r.data(), aqq_r.data(), apq_r.data());
      for (std::size_t b = 0; b < w; ++b) {
        ASSERT_TRUE(BitEq(app_s[b], app_r[b])) << "gram w=" << w << " m=" << m << " b=" << b;
        ASSERT_TRUE(BitEq(aqq_s[b], aqq_r[b])) << "gram w=" << w << " m=" << m << " b=" << b;
        ASSERT_TRUE(BitEq(apq_s[b], apq_r[b])) << "gram w=" << w << " m=" << m << " b=" << b;
      }
    }
  }
}

TEST_P(DispatchTierTest, BatchedRotationsBitwiseMatchRef) {
  const KernelTable& t = table();
  std::mt19937_64 rng(0x5eed0006);
  std::uniform_real_distribution<double> ang(-3.0, 3.0);
  for (std::size_t w : {std::size_t{4}, std::size_t{8}, std::size_t{16}}) {
    for (std::size_t m : {std::size_t{1}, std::size_t{7}, std::size_t{33}}) {
      std::vector<double> x0(m * w), y0(m * w), c(w), s(w);
      fill(rng, x0);
      fill(rng, y0);
      std::vector<std::uint8_t> rotate(w), swap_lanes(w);
      for (std::size_t b = 0; b < w; ++b) {
        const double a = ang(rng);
        c[b] = std::cos(a);
        s[b] = std::sin(a);
        rotate[b] = static_cast<std::uint8_t>(b % 3 != 0);  // mix masked-off lanes in
        swap_lanes[b] = static_cast<std::uint8_t>(b % 2);
      }

      std::vector<double> xs = x0, ys = y0, xr = x0, yr = y0;
      t.batched_apply_rotation(xs.data(), ys.data(), m, w, c.data(), s.data(), rotate.data(),
                               swap_lanes.data());
      batched_apply_rotation_ref(xr.data(), yr.data(), m, w, c.data(), s.data(), rotate.data(),
                                 swap_lanes.data());
      for (std::size_t i = 0; i < m * w; ++i) {
        ASSERT_TRUE(BitEq(xs[i], xr[i])) << "apply x w=" << w << " m=" << m << " i=" << i;
        ASSERT_TRUE(BitEq(ys[i], yr[i])) << "apply y w=" << w << " m=" << m << " i=" << i;
      }
    }
  }
}

TEST_P(DispatchTierTest, BatchedDecisionKernelsBitwiseMatchScalar) {
  const KernelTable& t = table();
  std::mt19937_64 rng(0x5eed0007);
  const double tol = 1e-13;
  for (std::size_t w : {std::size_t{4}, std::size_t{8}, std::size_t{16}}) {
    std::vector<double> app(w), aqq(w), apq(w);
    std::uniform_real_distribution<double> pos(1e-6, 4.0);
    for (std::size_t b = 0; b < w; ++b) {
      app[b] = pos(rng);
      aqq[b] = pos(rng);
      // Mix clearly-coupled, near-threshold, and orthogonal lanes.
      const double scale = (b % 3 == 0) ? 0.25 : (b % 3 == 1 ? tol : 0.0);
      apq[b] = scale * std::sqrt(app[b] * aqq[b]);
    }

    std::vector<double> c_s(w, -1), s_s(w, -1), c_r(w, -1), s_r(w, -1);
    std::vector<std::uint8_t> id_s(w, 9), id_r(w, 9);
    t.batched_compute_rotation(app.data(), aqq.data(), apq.data(), w, tol, c_s.data(),
                               s_s.data(), id_s.data());
    detail::batched_compute_rotation_scalar(app.data(), aqq.data(), apq.data(), w, tol,
                                            c_r.data(), s_r.data(), id_r.data());
    for (std::size_t b = 0; b < w; ++b) {
      ASSERT_TRUE(BitEq(c_s[b], c_r[b])) << "rot c w=" << w << " b=" << b;
      ASSERT_TRUE(BitEq(s_s[b], s_r[b])) << "rot s w=" << w << " b=" << b;
      ASSERT_EQ(id_s[b] != 0, id_r[b] != 0) << "rot id w=" << w << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SupportedTiers, DispatchTierTest,
                         ::testing::ValuesIn(supported_tiers()),
                         [](const ::testing::TestParamInfo<IsaTier>& tier_info) {
                           std::string n = isa_name(tier_info.param);
                           for (char& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

// --------------------------------------------------------------------------
// Override plumbing.
// --------------------------------------------------------------------------

// Restores auto resolution (and the TREESVD_ISA env slot) after each test so
// override state never leaks across tests.
class DispatchOverrideTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* prev = std::getenv("TREESVD_ISA");
    had_env_ = prev != nullptr;
    if (had_env_) saved_env_ = prev;
    ::unsetenv("TREESVD_ISA");
    set_isa_override(kIsaAuto);
  }
  void TearDown() override {
    if (had_env_) {
      ::setenv("TREESVD_ISA", saved_env_.c_str(), 1);
    } else {
      ::unsetenv("TREESVD_ISA");
    }
    set_isa_override(kIsaAuto);
  }

 private:
  bool had_env_ = false;
  std::string saved_env_;
};

TEST_F(DispatchOverrideTest, DetectionIsMonotoneAndAutoResolvesToDetected) {
  const IsaTier top = detected_isa();
  for (IsaTier t : {IsaTier::kBaseline, IsaTier::kAvx2, IsaTier::kAvx512}) {
    EXPECT_EQ(isa_supported(t), static_cast<int>(t) <= static_cast<int>(top));
  }
  EXPECT_EQ(resolved_isa(), top);
  EXPECT_EQ(kernels().tier, top);
}

TEST_F(DispatchOverrideTest, SetOverrideForcesSupportedTier) {
  for (IsaTier t : supported_tiers()) {
    set_isa_override(static_cast<int>(t));
    EXPECT_EQ(resolved_isa(), t);
    EXPECT_EQ(kernels().tier, t);
    EXPECT_STREQ(kernels().name, isa_name(t));
  }
  set_isa_override(kIsaAuto);
  EXPECT_EQ(resolved_isa(), detected_isa());
}

TEST_F(DispatchOverrideTest, UnsupportedForcedTierClampsToHost) {
  // Requesting past the top tier must clamp, never fail: forcing avx512f on
  // a narrower host silently runs the widest supported copy.
  set_isa_override(static_cast<int>(IsaTier::kAvx512));
  EXPECT_LE(static_cast<int>(resolved_isa()), static_cast<int>(detected_isa()));
  EXPECT_TRUE(isa_supported(resolved_isa()));
  EXPECT_EQ(kernels_for(IsaTier::kAvx512).tier,
            isa_supported(IsaTier::kAvx512) ? IsaTier::kAvx512 : detected_isa());
}

TEST_F(DispatchOverrideTest, ScopedOverrideRestoresPreviousResolution) {
  const IsaTier before = resolved_isa();
  {
    ScopedIsaOverride guard(static_cast<int>(IsaTier::kBaseline));
    EXPECT_EQ(resolved_isa(), IsaTier::kBaseline);
    {
      ScopedIsaOverride inner(kIsaAuto);  // no-op: must not disturb the outer force
      EXPECT_EQ(resolved_isa(), IsaTier::kBaseline);
    }
    EXPECT_EQ(resolved_isa(), IsaTier::kBaseline);
  }
  EXPECT_EQ(resolved_isa(), before);
}

TEST_F(DispatchOverrideTest, EnvVariableDrivesAutoResolution) {
  ::setenv("TREESVD_ISA", "baseline", 1);
  set_isa_override(kIsaAuto);  // re-derives from the environment
  EXPECT_EQ(resolved_isa(), IsaTier::kBaseline);
  EXPECT_STREQ(batched_kernel_isa(), batch_kernels_vectorized() ? "baseline" : "scalar-ref");

  if (isa_supported(IsaTier::kAvx2)) {
    ::setenv("TREESVD_ISA", "avx2", 1);
    set_isa_override(kIsaAuto);
    EXPECT_EQ(resolved_isa(), IsaTier::kAvx2);
  }

  // Garbage names are ignored: resolution falls through to detection.
  ::setenv("TREESVD_ISA", "quantum9000", 1);
  set_isa_override(kIsaAuto);
  EXPECT_EQ(resolved_isa(), detected_isa());

  ::unsetenv("TREESVD_ISA");
  set_isa_override(kIsaAuto);
  EXPECT_EQ(resolved_isa(), detected_isa());
}

TEST_F(DispatchOverrideTest, ParseIsaNameAcceptsKnownSpellings) {
  IsaTier t = IsaTier::kBaseline;
  EXPECT_TRUE(parse_isa_name("baseline", &t));
  EXPECT_EQ(t, IsaTier::kBaseline);
  EXPECT_TRUE(parse_isa_name("avx2", &t));
  EXPECT_EQ(t, IsaTier::kAvx2);
  EXPECT_TRUE(parse_isa_name("avx512f", &t));
  EXPECT_EQ(t, IsaTier::kAvx512);
  EXPECT_TRUE(parse_isa_name("avx512", &t));  // accepted alias
  EXPECT_EQ(t, IsaTier::kAvx512);

  t = IsaTier::kAvx2;
  EXPECT_FALSE(parse_isa_name("sse9", &t));
  EXPECT_FALSE(parse_isa_name("", &t));
  EXPECT_FALSE(parse_isa_name(nullptr, &t));
  EXPECT_EQ(t, IsaTier::kAvx2);  // failures leave *out untouched
}

TEST_F(DispatchOverrideTest, BatchedIsaReportMatchesResolvedTier) {
  if (!batch_kernels_vectorized()) GTEST_SKIP() << "no vector extensions in this build";
  for (IsaTier t : supported_tiers()) {
    ScopedIsaOverride guard(static_cast<int>(t));
    EXPECT_STREQ(batched_kernel_isa(), isa_name(t));
  }
}

// Public entry points (blas1/rotation) must route through the resolved table:
// forcing a different tier must not change a single bit of their output.
TEST_F(DispatchOverrideTest, PublicEntryPointsAreTierInvariant) {
  std::mt19937_64 rng(0x5eed0008);
  std::vector<double> x(97), y(97);
  fill(rng, x);
  fill(rng, y);
  const double c = std::cos(0.7), s = std::sin(0.7);

  struct Snapshot {
    double dot, sumsq, app, aqq, apq, rxx, ryy;
    std::vector<double> xrot, yrot;
  };
  auto run = [&] {
    Snapshot out;
    out.dot = dot(x, y);
    out.sumsq = sumsq(x);
    const GramPair g = gram_pair(x, y);
    out.app = g.app;
    out.aqq = g.aqq;
    out.apq = g.apq;
    out.xrot = x;
    out.yrot = y;
    const RotatedNorms rn = rotate_and_norms(out.xrot, out.yrot, c, s);
    out.rxx = rn.app;
    out.ryy = rn.aqq;
    return out;
  };

  std::vector<Snapshot> snaps;
  for (IsaTier t : supported_tiers()) {
    ScopedIsaOverride guard(static_cast<int>(t));
    snaps.push_back(run());
  }
  for (std::size_t k = 1; k < snaps.size(); ++k) {
    EXPECT_TRUE(BitEq(snaps[k].dot, snaps[0].dot));
    EXPECT_TRUE(BitEq(snaps[k].sumsq, snaps[0].sumsq));
    EXPECT_TRUE(BitEq(snaps[k].app, snaps[0].app));
    EXPECT_TRUE(BitEq(snaps[k].aqq, snaps[0].aqq));
    EXPECT_TRUE(BitEq(snaps[k].apq, snaps[0].apq));
    EXPECT_TRUE(BitEq(snaps[k].rxx, snaps[0].rxx));
    EXPECT_TRUE(BitEq(snaps[k].ryy, snaps[0].ryy));
    for (std::size_t i = 0; i < snaps[0].xrot.size(); ++i) {
      ASSERT_TRUE(BitEq(snaps[k].xrot[i], snaps[0].xrot[i]));
      ASSERT_TRUE(BitEq(snaps[k].yrot[i], snaps[0].yrot[i]));
    }
  }
}

}  // namespace
}  // namespace treesvd
