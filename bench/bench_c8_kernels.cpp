// Claim C8 (google-benchmark microbenchmarks): kernel throughput, including
// the paper's eq. (3) — the fused rotate-and-swap versus rotating and then
// exchanging columns explicitly — and the fast-kernel layer's fused
// rotate+norms pass versus the seed two-pass (rotate, then re-reduce norms)
// sequence.
//
// `--json=PATH` switches to the perf-smoke mode used by CI: a self-timed
// old-vs-new kernel comparison plus correctness assertions (fused kernels
// must match the two-pass reference; the driver must make exactly one
// gram_pair pass per pair). Assertions exiting nonzero fail
// the CI job; timings are recorded in the JSON but never assert — CI
// machines are too noisy to gate on a ratio.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/registry.hpp"
#include "linalg/blas1.hpp"
#include "linalg/dispatch.hpp"
#include "linalg/generators.hpp"
#include "linalg/rotation.hpp"
#include "svd/jacobi.hpp"
#include "util/rng.hpp"

namespace {

using namespace treesvd;

std::vector<double> random_vec(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

// ---------------------------------------------------------------------------
// Faithful copies of the seed kernels (pre fast-kernel layer), kept here so
// the old-vs-new comparison measures the seed code as it was: no restrict
// qualifiers, a single accumulator per reduction. `seed_sumsq` is the seed's
// dot(x, x) — the seed had no dedicated sumsq.

void seed_apply_rotation(std::span<double> x, std::span<double> y, double c, double s) {
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = x[i];
    const double yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

double seed_sumsq(std::span<const double> x) {
  double acc = 0.0;
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * x[i];
  return acc;
}

void BM_Dot(benchmark::State& state) {
  Rng rng(1);
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto x = random_vec(m, rng);
  const auto y = random_vec(m, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dot(x, y));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(m));
}
BENCHMARK(BM_Dot)->Arg(256)->Arg(1024)->Arg(4096);

void BM_GramPair(benchmark::State& state) {
  Rng rng(1);
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto x = random_vec(m, rng);
  const auto y = random_vec(m, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gram_pair(x, y));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(m));
}
BENCHMARK(BM_GramPair)->Arg(256)->Arg(1024)->Arg(4096);

void BM_ApplyRotation(benchmark::State& state) {
  Rng rng(2);
  const auto m = static_cast<std::size_t>(state.range(0));
  auto x = random_vec(m, rng);
  auto y = random_vec(m, rng);
  for (auto _ : state) {
    apply_rotation(x, y, 0.8, 0.6);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(m));
}
BENCHMARK(BM_ApplyRotation)->Arg(256)->Arg(1024)->Arg(4096);

void BM_RotateThenExplicitSwap(benchmark::State& state) {
  Rng rng(3);
  const auto m = static_cast<std::size_t>(state.range(0));
  auto x = random_vec(m, rng);
  auto y = random_vec(m, rng);
  for (auto _ : state) {
    apply_rotation(x, y, 0.8, 0.6);
    swap(std::span<double>(x), std::span<double>(y));
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(m));
}
BENCHMARK(BM_RotateThenExplicitSwap)->Arg(256)->Arg(1024)->Arg(4096);

void BM_FusedRotateSwap(benchmark::State& state) {
  // Paper eq. (3): same work as a plain rotation, no exchange pass.
  Rng rng(4);
  const auto m = static_cast<std::size_t>(state.range(0));
  auto x = random_vec(m, rng);
  auto y = random_vec(m, rng);
  for (auto _ : state) {
    apply_rotation_swapped(x, y, 0.8, 0.6);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(m));
}
BENCHMARK(BM_FusedRotateSwap)->Arg(256)->Arg(1024)->Arg(4096);

void BM_SeedRotateThenNorms(benchmark::State& state) {
  // Seed kernel sequence: scalar rotation pass, then a separate
  // single-accumulator norm-reduction pass per column.
  Rng rng(5);
  const auto m = static_cast<std::size_t>(state.range(0));
  auto x = random_vec(m, rng);
  auto y = random_vec(m, rng);
  for (auto _ : state) {
    seed_apply_rotation(x, y, 0.8, 0.6);
    const double xx = seed_sumsq(x);
    const double yy = seed_sumsq(y);
    benchmark::DoNotOptimize(xx + yy);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(m));
}
BENCHMARK(BM_SeedRotateThenNorms)->Arg(256)->Arg(512)->Arg(1024)->Arg(4096);

void BM_RotateThenNormsTwoPass(benchmark::State& state) {
  // Current kernels, still two passes: restrict rotation, then the
  // multi-accumulator sumsq per column.
  Rng rng(5);
  const auto m = static_cast<std::size_t>(state.range(0));
  auto x = random_vec(m, rng);
  auto y = random_vec(m, rng);
  for (auto _ : state) {
    apply_rotation(x, y, 0.8, 0.6);
    const double xx = sumsq(x);
    const double yy = sumsq(y);
    benchmark::DoNotOptimize(xx + yy);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(m));
}
BENCHMARK(BM_RotateThenNormsTwoPass)->Arg(256)->Arg(512)->Arg(1024)->Arg(4096);

void BM_FusedRotateAndNorms(benchmark::State& state) {
  // Fast-kernel layer: one read+write pass yields rotation and both norms.
  Rng rng(6);
  const auto m = static_cast<std::size_t>(state.range(0));
  auto x = random_vec(m, rng);
  auto y = random_vec(m, rng);
  for (auto _ : state) {
    const RotatedNorms rn = rotate_and_norms(x, y, 0.8, 0.6);
    benchmark::DoNotOptimize(rn.app + rn.aqq);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(m));
}
BENCHMARK(BM_FusedRotateAndNorms)->Arg(256)->Arg(512)->Arg(1024)->Arg(4096);

void BM_SweepGeneration(benchmark::State& state) {
  const auto ord = make_ordering("fat-tree");
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ord->sweep(n));
  }
}
BENCHMARK(BM_SweepGeneration)->Arg(64)->Arg(256)->Arg(1024);

void BM_NewRingGeneration(benchmark::State& state) {
  const auto ord = make_ordering("new-ring");
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ord->sweep(n));
  }
}
BENCHMARK(BM_NewRingGeneration)->Arg(64)->Arg(256)->Arg(1024);

void BM_FullSvd(benchmark::State& state) {
  Rng rng(7);
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_gaussian(2 * n, n, rng);
  const auto ord = make_ordering("fat-tree");
  for (auto _ : state) {
    benchmark::DoNotOptimize(one_sided_jacobi(a, *ord));
  }
}
BENCHMARK(BM_FullSvd)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// --json perf-smoke mode

/// Median-of-repeats self-timer: runs `fn` enough times per repeat that each
/// sample is long enough to time reliably, returns seconds per call.
template <typename Fn>
double time_per_call(Fn&& fn, int calls_per_sample, int samples = 7) {
  std::vector<double> secs;
  secs.reserve(static_cast<std::size_t>(samples));
  for (int r = 0; r < samples; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < calls_per_sample; ++i) fn();
    const auto t1 = std::chrono::steady_clock::now();
    secs.push_back(std::chrono::duration<double>(t1 - t0).count() / calls_per_sample);
  }
  std::sort(secs.begin(), secs.end());
  return secs[secs.size() / 2];
}

int fail(const char* what) {
  std::fprintf(stderr, "kernel-correctness FAILED: %s\n", what);
  return 1;
}

/// Correctness gate: the fused kernels must agree with the seed two-pass
/// sequence, and the driver must make exactly one gram_pair pass per pair
/// (the one pair path of svd/pair_kernel.hpp).
int check_kernels() {
  Rng rng(11);
  const std::size_t m = 512;
  const double c = 0.8;
  const double s = 0.6;
  {
    auto x = random_vec(m, rng);
    auto y = random_vec(m, rng);
    auto xr = x;
    auto yr = y;
    const RotatedNorms rn = rotate_and_norms(x, y, c, s);
    apply_rotation(xr, yr, c, s);
    for (std::size_t i = 0; i < m; ++i)
      if (x[i] != xr[i] || y[i] != yr[i]) return fail("rotate_and_norms alters the rotation");
    if (std::fabs(rn.app - sumsq(xr)) > 1e-10 * rn.app ||
        std::fabs(rn.aqq - sumsq(yr)) > 1e-10 * rn.aqq)
      return fail("rotate_and_norms norms disagree with a fresh reduction");
  }
  {
    auto x = random_vec(m, rng);
    auto y = random_vec(m, rng);
    auto xr = x;
    auto yr = y;
    const RotatedNorms rn = rotate_and_norms_swapped(x, y, c, s);
    apply_rotation_swapped(xr, yr, c, s);
    for (std::size_t i = 0; i < m; ++i)
      if (x[i] != xr[i] || y[i] != yr[i])
        return fail("rotate_and_norms_swapped alters the fused rotate-swap");
    if (std::fabs(rn.app - sumsq(xr)) > 1e-10 * rn.app ||
        std::fabs(rn.aqq - sumsq(yr)) > 1e-10 * rn.aqq)
      return fail("rotate_and_norms_swapped norms disagree with a fresh reduction");
  }
  {
    // One gram pass per pair, no dot passes: the debug counters of a driver
    // run must show it.
    Rng mrng(17);
    const Matrix a = random_gaussian(96, 48, mrng);
    const auto ord = make_ordering("round-robin");
    const SvdResult r = one_sided_jacobi(a, *ord);
    const KernelStats& ks = r.kernel_stats;
    if (ks.pairs == 0) return fail("driver processed no pairs");
    if (ks.gram_passes != ks.pairs)
      return fail("driver does not make exactly one gram pass per pair");
    if (ks.dot_passes != 0 || ks.norm_refreshes != 0)
      return fail("driver made dot passes or norm re-reductions");
  }
  return 0;
}

int run_json_mode(const std::string& path) {
  if (const int rc = check_kernels(); rc != 0) return rc;

  using treesvd::bench::JsonObject;
  Rng rng(23);
  JsonObject root;
  root.add("bench", "kernels");
  root.add("schema", "treesvd-bench-v1");
  root.add("correctness", "ok");

  std::vector<JsonObject> rows;
  double speedup_512 = 0.0;
  for (const std::size_t m : {std::size_t{256}, std::size_t{512}, std::size_t{4096}}) {
    auto x = random_vec(m, rng);
    auto y = random_vec(m, rng);
    const double c = 0.8;
    const double s = 0.6;
    const int calls = static_cast<int>(std::max<std::size_t>(20000, 30000000 / m));
    // All three variants run in the same binary on the same storage so none
    // gets a code-layout or cache-placement advantage. The headline ratio is
    // fused vs the *seed* two-pass sequence (the code this layer replaced);
    // the current restrict two-pass is recorded alongside for reference.
    const double seed_two_pass = time_per_call(
        [&] {
          seed_apply_rotation(x, y, c, s);
          const double xx = seed_sumsq(x);
          const double yy = seed_sumsq(y);
          benchmark::DoNotOptimize(xx + yy);
        },
        calls);
    const double two_pass = time_per_call(
        [&] {
          apply_rotation(x, y, c, s);
          const double xx = sumsq(x);
          const double yy = sumsq(y);
          benchmark::DoNotOptimize(xx + yy);
        },
        calls);
    const double fused = time_per_call(
        [&] {
          const RotatedNorms rn = rotate_and_norms(x, y, c, s);
          benchmark::DoNotOptimize(rn.app + rn.aqq);
        },
        calls);
    const double speedup = seed_two_pass / fused;
    if (m == 512) speedup_512 = speedup;
    JsonObject row;
    row.add("kernel", "rotate_and_norms");
    row.add("n", static_cast<long long>(m));
    row.add("seed_two_pass_ns_per_call", seed_two_pass * 1e9);
    row.add("two_pass_ns_per_call", two_pass * 1e9);
    row.add("fused_ns_per_call", fused * 1e9);
    row.add("speedup_vs_seed", speedup);
    row.add("speedup_vs_two_pass", two_pass / fused);
    rows.push_back(row);
    std::printf("n=%5zu  seed two-pass %8.1f ns  two-pass %8.1f ns  fused %8.1f ns  vs-seed %.2fx\n",
                m, seed_two_pass * 1e9, two_pass * 1e9, fused * 1e9, speedup);
  }
  root.add_array("fused_rotate_norms", rows);
  root.add("speedup_at_512", speedup_512);

  // Per-ISA-tier sections: the hot single-problem kernels timed through every
  // tier's kernel table the host supports (kernels_for — explicit AVX2 /
  // AVX-512F SIMD), against the scalar `_ref` twins. The twins are the
  // PR-2-style autovectorized multi-accumulator loops, compiled with default
  // flags in blas1.cpp / rotation.cpp, so `speedup_vs_ref` is exactly the
  // explicit-SIMD-vs-autovectorized ratio per tier. Bitwise agreement of
  // every timed call is asserted on the fly (the dispatch layer's contract).
  {
    root.add("isa_detected", isa_name(detected_isa()));
    root.add("isa_resolved", isa_name(resolved_isa()));
    std::vector<JsonObject> tier_rows;
    for (const IsaTier tier : {IsaTier::kBaseline, IsaTier::kAvx2, IsaTier::kAvx512}) {
      if (!isa_supported(tier)) continue;
      const KernelTable& t = kernels_for(tier);
      for (const std::size_t m : {std::size_t{512}, std::size_t{4096}}) {
        auto x = random_vec(m, rng);
        auto y = random_vec(m, rng);
        const double c = 0.8;
        const double s = 0.6;
        const int calls = static_cast<int>(std::max<std::size_t>(20000, 30000000 / m));

        if (t.dot(x.data(), y.data(), m) != dot_ref(x, y))
          return fail("dispatched dot is not bitwise equal to dot_ref");
        const double dot_simd = time_per_call(
            [&] { benchmark::DoNotOptimize(t.dot(x.data(), y.data(), m)); }, calls);
        const double dot_scalar =
            time_per_call([&] { benchmark::DoNotOptimize(dot_ref(x, y)); }, calls);

        {
          double app = 0, aqq = 0, apq = 0;
          t.gram_pair(x.data(), y.data(), m, &app, &aqq, &apq);
          const GramPair g = gram_pair_ref(x, y);
          if (app != g.app || aqq != g.aqq || apq != g.apq)
            return fail("dispatched gram_pair is not bitwise equal to gram_pair_ref");
        }
        const double gram_simd = time_per_call(
            [&] {
              double app = 0, aqq = 0, apq = 0;
              t.gram_pair(x.data(), y.data(), m, &app, &aqq, &apq);
              benchmark::DoNotOptimize(app + aqq + apq);
            },
            calls);
        const double gram_scalar = time_per_call(
            [&] { benchmark::DoNotOptimize(gram_pair_ref(x, y)); }, calls);

        {
          auto xs = x;
          auto ys = y;
          auto xr = x;
          auto yr = y;
          double xx = 0, yy = 0;
          t.rotate_and_norms(xs.data(), ys.data(), m, c, s, &xx, &yy);
          const RotatedNorms rn = rotate_and_norms_ref(xr, yr, c, s);
          if (xx != rn.app || yy != rn.aqq || xs != xr || ys != yr)
            return fail("dispatched rotate_and_norms is not bitwise equal to its _ref twin");
        }
        const double rot_simd = time_per_call(
            [&] {
              double xx = 0, yy = 0;
              t.rotate_and_norms(x.data(), y.data(), m, c, s, &xx, &yy);
              benchmark::DoNotOptimize(xx + yy);
            },
            calls);
        const double rot_scalar = time_per_call(
            [&] {
              const RotatedNorms rn = rotate_and_norms_ref(x, y, c, s);
              benchmark::DoNotOptimize(rn.app + rn.aqq);
            },
            calls);

        JsonObject row;
        row.add("tier", t.name);
        row.add("n", static_cast<long long>(m));
        row.add("dot_ns_per_call", dot_simd * 1e9);
        row.add("dot_ref_ns_per_call", dot_scalar * 1e9);
        row.add("dot_speedup_vs_ref", dot_scalar / dot_simd);
        row.add("gram_pair_ns_per_call", gram_simd * 1e9);
        row.add("gram_pair_ref_ns_per_call", gram_scalar * 1e9);
        row.add("gram_pair_speedup_vs_ref", gram_scalar / gram_simd);
        row.add("rotate_and_norms_ns_per_call", rot_simd * 1e9);
        row.add("rotate_and_norms_ref_ns_per_call", rot_scalar * 1e9);
        row.add("rotate_and_norms_speedup_vs_ref", rot_scalar / rot_simd);
        tier_rows.push_back(row);
        std::printf(
            "tier=%-8s n=%5zu  dot %6.1f/%6.1f ns (%.2fx)  gram %6.1f/%6.1f ns (%.2fx)  "
            "rot+norms %6.1f/%6.1f ns (%.2fx)\n",
            t.name, m, dot_simd * 1e9, dot_scalar * 1e9, dot_scalar / dot_simd, gram_simd * 1e9,
            gram_scalar * 1e9, gram_scalar / gram_simd, rot_simd * 1e9, rot_scalar * 1e9,
            rot_scalar / rot_simd);
      }
    }
    root.add_array("isa_tiers", tier_rows);
  }

  // Debug pass counters of a representative run, for the record.
  {
    Rng mrng(31);
    const Matrix a = random_gaussian(128, 64, mrng);
    const auto ord = make_ordering("fat-tree");
    const SvdResult r = one_sided_jacobi(a, *ord);
    JsonObject ks;
    ks.add("pairs", r.kernel_stats.pairs);
    ks.add("dot_passes", r.kernel_stats.dot_passes);
    ks.add("gram_passes", r.kernel_stats.gram_passes);
    ks.add("rotate_passes", r.kernel_stats.rotate_passes);
    ks.add("norm_refreshes", r.kernel_stats.norm_refreshes);
    root.add_array("driver_counters", {ks});
  }

  if (!treesvd::bench::write_json_file(path, root)) return 1;
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) return run_json_mode(argv[i] + 7);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
