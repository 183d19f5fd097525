// Batched many-SVD engine: the bitwise-sequential-equivalence contract.
//
// Every test here reduces to one claim: lane b of a BatchedSvd solve is the
// *same run* as one_sided_jacobi on input b — same bits in sigma/U/V, same
// sweep, rotation, swap and kernel-pass counts, same status. The digest
// helpers (svd/determinism.hpp) make that a single integer comparison.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/registry.hpp"
#include "linalg/blas1.hpp"
#include "linalg/generators.hpp"
#include "linalg/rotation.hpp"
#include "svd/batch.hpp"
#include "svd/determinism.hpp"
#include "svd/jacobi.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace treesvd {
namespace {

std::vector<Matrix> gaussian_batch(std::size_t count, std::size_t m, std::size_t n,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Matrix> inputs;
  inputs.reserve(count);
  for (std::size_t b = 0; b < count; ++b) inputs.push_back(random_gaussian(m, n, rng));
  return inputs;
}

void expect_bitwise_sequential(const std::vector<Matrix>& inputs,
                               const std::vector<SvdResult>& batched, const Ordering& ordering,
                               const JacobiOptions& opt) {
  ASSERT_EQ(batched.size(), inputs.size());
  for (std::size_t b = 0; b < inputs.size(); ++b) {
    const SvdResult ref = one_sided_jacobi(inputs[b], ordering, opt);
    EXPECT_EQ(result_digest(batched[b]), result_digest(ref)) << "lane " << b;
    // Digest equality should already imply these, but on failure the direct
    // comparisons say *what* diverged.
    EXPECT_EQ(batched[b].sweeps, ref.sweeps) << "lane " << b;
    EXPECT_EQ(batched[b].converged, ref.converged) << "lane " << b;
    EXPECT_EQ(batched[b].rotations, ref.rotations) << "lane " << b;
    EXPECT_EQ(batched[b].swaps, ref.swaps) << "lane " << b;
    EXPECT_EQ(batched[b].kernel_stats.pairs, ref.kernel_stats.pairs) << "lane " << b;
    EXPECT_EQ(batched[b].kernel_stats.gram_passes, ref.kernel_stats.gram_passes) << "lane " << b;
    EXPECT_EQ(batched[b].kernel_stats.rotate_passes, ref.kernel_stats.rotate_passes)
        << "lane " << b;
  }
}

TEST(BatchedSvd, BitwiseEqualsSequentialAllOrderingsAndBatchSizes) {
  for (const std::string& name : ordering_names({4})) {
    const OrderingPtr ord = make_ordering(name);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                                    std::size_t{17}}) {
      const auto inputs = gaussian_batch(batch, 9, 6, 0x5eedULL + batch);
      BatchedSvd engine(9, 6, *ord);
      const auto results = engine.solve({inputs.data(), inputs.size()});
      expect_bitwise_sequential(inputs, results, *ord, BatchedSvdOptions{}.jacobi);
    }
  }
  // Seven columns pad to odd-even's eight: the padded lanes go through the
  // same SIMD kernels.
  const OrderingPtr odd_even = make_ordering("odd-even");
  const auto padded = gaussian_batch(8, 12, 7, 991);
  BatchedSvd engine(12, 7, *odd_even);
  const auto results = engine.solve({padded.data(), padded.size()});
  expect_bitwise_sequential(padded, results, *odd_even, BatchedSvdOptions{}.jacobi);
}

TEST(BatchedSvd, MixedScaleLanesExerciseEquilibration) {
  // Lanes at wildly different scales (2^±400 on top of unit Gaussians): some
  // lanes trigger the auto-equilibration rescale and the scaled kernel retry
  // paths, their batchmates do not — and each must still match its own
  // sequential run, diagnostics included.
  const OrderingPtr ord = make_ordering("round-robin");
  auto inputs = gaussian_batch(8, 8, 6, 77);
  const double scales[8] = {1.0,        0x1p+400, 0x1p-400, 1.0,
                            0x1p+380,   1.0,      0x1p-390, 0x1p+400};
  for (std::size_t b = 0; b < inputs.size(); ++b)
    for (double& x : inputs[b].data()) x *= scales[b];
  BatchedSvd engine(8, 6, *ord);
  const auto results = engine.solve({inputs.data(), inputs.size()});
  bool any_equilibrated = false;
  for (const SvdResult& r : results) any_equilibrated |= r.diagnostics.equilibrated;
  EXPECT_TRUE(any_equilibrated);
  expect_bitwise_sequential(inputs, results, *ord, BatchedSvdOptions{}.jacobi);
}

TEST(BatchedSvd, EarlyRetiringLanesFreezeIndependently) {
  // Orthogonal-column lanes converge in one sweep and retire; the hard
  // Gaussian lanes keep iterating. Retired lanes' counters and payloads must
  // be frozen at retirement, exactly like their (short) sequential runs.
  const OrderingPtr ord = make_ordering("round-robin");
  Rng rng(123);
  std::vector<Matrix> inputs;
  for (std::size_t b = 0; b < 8; ++b) {
    if (b % 2 == 0) {
      // Diagonal-ish: columns already orthogonal with descending norms.
      Matrix a(10, 6);
      for (std::size_t j = 0; j < 6; ++j) a(j, j) = static_cast<double>(10 - j);
      inputs.push_back(a);
    } else {
      inputs.push_back(random_gaussian(10, 6, rng));
    }
  }
  BatchedSvd engine(10, 6, *ord);
  const auto results = engine.solve({inputs.data(), inputs.size()});
  int min_sweeps = results[0].sweeps;
  int max_sweeps = results[0].sweeps;
  for (const SvdResult& r : results) {
    min_sweeps = std::min(min_sweeps, r.sweeps);
    max_sweeps = std::max(max_sweeps, r.sweeps);
  }
  EXPECT_LT(min_sweeps, max_sweeps);  // lanes genuinely retired at different sweeps
  expect_bitwise_sequential(inputs, results, *ord, BatchedSvdOptions{}.jacobi);
}

TEST(BatchedSvd, UncachedPathMatchesSequential) {
  // The batched engine keeps no column norms: every pair is one fresh
  // gram_pair pass per lane, as in the sequential driver.
  const OrderingPtr ord = make_ordering("round-robin");
  const auto inputs = gaussian_batch(8, 8, 6, 4242);
  BatchedSvdOptions opt;
  BatchedSvd engine(8, 6, *ord, opt);
  const auto results = engine.solve({inputs.data(), inputs.size()});
  expect_bitwise_sequential(inputs, results, *ord, opt.jacobi);
}

TEST(BatchedSvd, ThreadedShardsMatchSerialShards) {
  const OrderingPtr ord = make_ordering("round-robin");
  const auto inputs = gaussian_batch(17, 8, 6, 31337);
  BatchedSvdOptions opt;
  opt.lane_width = 4;  // 17 problems -> 5 shards
  BatchedSvd engine(8, 6, *ord, opt);
  const auto serial = engine.solve({inputs.data(), inputs.size()}, nullptr);
  ThreadPool pool(4);
  const auto threaded = engine.solve({inputs.data(), inputs.size()}, &pool);
  for (std::size_t b = 0; b < inputs.size(); ++b)
    EXPECT_EQ(result_digest(serial[b]), result_digest(threaded[b])) << "lane " << b;
}

TEST(BatchedSvd, ShardArenasAreReusedAcrossSolves) {
  const OrderingPtr ord = make_ordering("round-robin");
  BatchedSvd engine(8, 6, *ord);
  EXPECT_EQ(engine.capacity(), 0u);
  engine.reserve(10);
  const std::size_t cap = engine.capacity();
  EXPECT_GE(cap, 10u);
  // Two different batches through the same arenas: packing must fully reset
  // lane state (a stale active flag or counter would corrupt run 2).
  const auto first = gaussian_batch(10, 8, 6, 1);
  const auto second = gaussian_batch(10, 8, 6, 2);
  (void)engine.solve({first.data(), first.size()});
  const auto results = engine.solve({second.data(), second.size()});
  EXPECT_EQ(engine.capacity(), cap);  // no regrowth
  expect_bitwise_sequential(second, results, *ord, BatchedSvdOptions{}.jacobi);
}

TEST(BatchedSvd, LaneWidth16Works) {
  const OrderingPtr ord = make_ordering("round-robin");
  BatchedSvdOptions opt;
  opt.lane_width = 16;
  const auto inputs = gaussian_batch(16, 8, 6, 555);
  BatchedSvd engine(8, 6, *ord, opt);
  const auto results = engine.solve({inputs.data(), inputs.size()});
  expect_bitwise_sequential(inputs, results, *ord, opt.jacobi);
}

TEST(BatchedSvd, RejectsInvalidConfiguration) {
  const OrderingPtr ord = make_ordering("round-robin");
  BatchedSvdOptions bad_width;
  bad_width.lane_width = 5;
  EXPECT_THROW(BatchedSvd(8, 6, *ord, bad_width), std::invalid_argument);
  BatchedSvdOptions track;
  track.jacobi.track_off = true;
  EXPECT_THROW(BatchedSvd(8, 6, *ord, track), std::invalid_argument);
  EXPECT_THROW(BatchedSvd(4, 6, *ord), std::invalid_argument);  // m < n
  BatchedSvd engine(8, 6, *ord);
  const auto wrong_shape = gaussian_batch(2, 9, 6, 8);
  EXPECT_THROW(engine.solve({wrong_shape.data(), wrong_shape.size()}), std::invalid_argument);
}

// --- Batched kernel unit checks (SIMD vs scalar, masking, -0.0) -----------

// Scatters `lanes` per-lane columns (each m doubles) into SoA layout.
std::vector<double> to_soa(const std::vector<std::vector<double>>& lanes) {
  const std::size_t w = lanes.size();
  const std::size_t m = lanes[0].size();
  std::vector<double> soa(m * w);
  for (std::size_t b = 0; b < w; ++b)
    for (std::size_t i = 0; i < m; ++i) soa[i * w + b] = lanes[b][i];
  return soa;
}

TEST(BatchedKernels, DotSumsqGramMatchScalarBitwise) {
  Rng rng(9);
  // Odd length exercises the tail-row handling of the accumulator chains.
  const std::size_t m = 13;
  for (const std::size_t w : {std::size_t{4}, std::size_t{8}, std::size_t{16}}) {
    std::vector<std::vector<double>> xs(w, std::vector<double>(m));
    std::vector<std::vector<double>> ys(w, std::vector<double>(m));
    for (std::size_t b = 0; b < w; ++b)
      for (std::size_t i = 0; i < m; ++i) {
        xs[b][i] = rng.normal();
        ys[b][i] = rng.normal();
      }
    const auto x = to_soa(xs);
    const auto y = to_soa(ys);
    std::vector<double> app(w);
    std::vector<double> aqq(w);
    std::vector<double> apq(w);
    batched_gram_pair(x.data(), y.data(), m, w, app.data(), aqq.data(), apq.data());
    for (std::size_t b = 0; b < w; ++b) {
      // Each Gram element runs the scalar reductions' chain: apq is dot,
      // app and aqq are sumsq, bit for bit.
      EXPECT_EQ(apq[b], dot(xs[b], ys[b])) << "w=" << w << " lane " << b;
      EXPECT_EQ(app[b], sumsq(xs[b])) << "w=" << w << " lane " << b;
      EXPECT_EQ(aqq[b], sumsq(ys[b])) << "w=" << w << " lane " << b;
      const GramPair g = gram_pair(xs[b], ys[b]);
      EXPECT_EQ(app[b], g.app) << "w=" << w << " lane " << b;
      EXPECT_EQ(aqq[b], g.aqq) << "w=" << w << " lane " << b;
      EXPECT_EQ(apq[b], g.apq) << "w=" << w << " lane " << b;
    }
  }
}

TEST(BatchedKernels, MaskedLanesKeepNegativeZeroAndDenormals) {
  const std::size_t m = 7;
  const std::size_t w = 4;
  std::vector<std::vector<double>> xs(w, std::vector<double>(m));
  std::vector<std::vector<double>> ys(w, std::vector<double>(m));
  Rng rng(11);
  for (std::size_t b = 0; b < w; ++b)
    for (std::size_t i = 0; i < m; ++i) {
      xs[b][i] = rng.normal();
      ys[b][i] = rng.normal();
    }
  // Lane 2 is masked out and carries the payloads an identity rotation would
  // damage: -0.0 (0*x flips its sign) and denormals.
  xs[2] = {-0.0, 5e-324, -4.9e-324, -0.0, 1e-310, -0.0, 0.0};
  ys[2] = {-0.0, -0.0, 5e-324, 0.0, -0.0, -1e-320, -0.0};
  auto x = to_soa(xs);
  auto y = to_soa(ys);
  const auto x_before = x;
  const auto y_before = y;
  const double c[w] = {0.8, 0.6, 1.0, 0.6};
  const double s[w] = {0.6, -0.8, 0.0, 0.8};
  const std::uint8_t rot[w] = {1, 1, 0, 1};
  const std::uint8_t swp[w] = {0, 1, 0, 0};
  batched_apply_rotation(x.data(), y.data(), m, w, c, s, rot, swp);
  for (std::size_t i = 0; i < m; ++i) {
    // Bit-level comparison: EXPECT_EQ(-0.0, 0.0) would pass, memcmp won't.
    EXPECT_EQ(std::memcmp(&x[i * w + 2], &x_before[i * w + 2], sizeof(double)), 0) << i;
    EXPECT_EQ(std::memcmp(&y[i * w + 2], &y_before[i * w + 2], sizeof(double)), 0) << i;
  }
  // Rotated lanes match the scalar rotation bitwise.
  for (std::size_t b = 0; b < w; ++b) {
    if (rot[b] == 0) continue;
    auto sx = xs[b];
    auto sy = ys[b];
    if (swp[b] != 0) {
      apply_rotation_swapped(sx, sy, c[b], s[b]);
    } else {
      apply_rotation(sx, sy, c[b], s[b]);
    }
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_EQ(x[i * w + b], sx[i]) << "lane " << b << " row " << i;
      EXPECT_EQ(y[i * w + b], sy[i]) << "lane " << b << " row " << i;
    }
  }
}

TEST(BatchedKernels, RefFormsMatchVectorizedForms) {
  Rng rng(21);
  const std::size_t m = 10;
  const std::size_t w = 8;
  std::vector<double> x(m * w);
  std::vector<double> y(m * w);
  for (double& v : x) v = rng.normal();
  for (double& v : y) v = rng.normal();
  std::vector<double> g1(3 * w);
  std::vector<double> g2(3 * w);
  batched_gram_pair(x.data(), y.data(), m, w, g1.data(), g1.data() + w, g1.data() + 2 * w);
  batched_gram_pair_ref(x.data(), y.data(), m, w, g2.data(), g2.data() + w, g2.data() + 2 * w);
  EXPECT_EQ(g1, g2);
  double c[8];
  double s[8];
  std::uint8_t rot[8];
  std::uint8_t swp[8];
  for (std::size_t b = 0; b < w; ++b) {
    const double t = rng.uniform(-1.0, 1.0);
    c[b] = 1.0 / std::sqrt(1.0 + t * t);
    s[b] = c[b] * t;
    rot[b] = b % 3 == 0 ? 0 : 1;
    swp[b] = b % 2;
  }
  auto xv = x;
  auto yv = y;
  auto xr = x;
  auto yr = y;
  batched_apply_rotation(xv.data(), yv.data(), m, w, c, s, rot, swp);
  batched_apply_rotation_ref(xr.data(), yr.data(), m, w, c, s, rot, swp);
  EXPECT_EQ(xv, xr);
  EXPECT_EQ(yv, yr);
}

TEST(BatchedKernels, BatchedComputeRotationMatchesScalar) {
  const double app[4] = {2.0, 1.0, 1e-300, 4.0};
  const double aqq[4] = {1.0, 1.0, 2e-300, 4.0};
  const double apq[4] = {0.5, 1e-20, 1e-301, 0.0};
  double c[4];
  double s[4];
  std::uint8_t id[4];
  batched_compute_rotation(app, aqq, apq, 4, 1e-13, c, s, id);
  for (std::size_t b = 0; b < 4; ++b) {
    const JacobiRotation r = compute_rotation({app[b], aqq[b], apq[b]}, 1e-13);
    EXPECT_EQ(id[b] != 0, r.identity) << b;
    EXPECT_EQ(c[b], r.identity ? 1.0 : r.c) << b;
    EXPECT_EQ(s[b], r.identity ? 0.0 : r.s) << b;
  }
}

}  // namespace
}  // namespace treesvd
