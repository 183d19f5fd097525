// Claim C10: batching many independent same-shape SVDs into the SoA
// cross-problem engine (svd/batch.hpp) beats a loop of single-problem
// sequential solves — the per-pair control flow is paid once per lane group
// and the data passes run at SIMD width across problems, so throughput
// scales with batch size while every result stays bitwise identical to the
// sequential driver's.
//
// Two measurement families:
//  * engine: batched solve vs loop-of-one_sided_jacobi over the same inputs,
//    n in {16, 32, 64} (square), B in {8, 32}, median of 7 repetitions. The
//    correctness gate runs first: every batched result must digest-equal its
//    sequential counterpart or the bench exits nonzero without reporting a
//    single timing.
//  * serve: a saturated SvdServer (requests pre-generated, submitted as fast
//    as the bounded queues accept) reporting QPS plus p50/p99 submit-to-done
//    latency from the server's own histograms, and the fault counters
//    (shed/expired/failed — all zero on the clean load).
//  * serve_faults: one deterministic degraded-mode point — doomed deadlines
//    evicted by a kShedExpired admission behind a fault-plan stall — so the
//    shed/timeout counters in BENCH_serve.json are exercised with exact
//    expected values, not just carried as zeros.
//
// `--json=PATH` switches to the perf-smoke mode used by CI: the same gated
// runs, written as machine-readable BENCH_serve.json. Timings are recorded,
// not gated (CI machines are too noisy for ratios); the committed baseline
// is generated from a quiet Release build.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/registry.hpp"
#include "linalg/blas1.hpp"
#include "linalg/generators.hpp"
#include "svd/batch.hpp"
#include "svd/determinism.hpp"
#include "svd/jacobi.hpp"
#include "svd/serve.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace treesvd;
using Clock = std::chrono::steady_clock;

constexpr int kReps = 7;
constexpr std::size_t kLaneWidth = 8;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

int fail(const std::string& what) {
  std::fprintf(stderr, "batched-correctness FAILED: %s\n", what.c_str());
  return 1;
}

struct EngineCase {
  std::size_t n = 0;
  std::size_t batch = 0;
  double batched_s = 0.0;  ///< median wall time, one batched solve of B problems
  double loop_s = 0.0;     ///< median wall time, B sequential one_sided_jacobi calls
  double speedup = 0.0;    ///< loop_s / batched_s
};

/// Gate + measure one (n, B) point; both sides run the same
/// JacobiOptions, so the comparison is FLOP-for-FLOP. Returns false (after
/// printing) on any bitwise divergence between the batched engine and the
/// sequential loop.
bool run_engine_case(const Ordering& ordering, std::size_t n, std::size_t batch,
                     EngineCase& out) {
  Rng rng(0x9e3779b9 + n * 131 + batch);
  std::vector<Matrix> inputs;
  inputs.reserve(batch);
  for (std::size_t b = 0; b < batch; ++b) inputs.push_back(random_gaussian(n, n, rng));

  BatchedSvdOptions bopt;
  bopt.lane_width = kLaneWidth;
  BatchedSvd engine(n, n, ordering, bopt);
  engine.reserve(batch);

  // Correctness gate: bitwise sequential equivalence for every problem.
  const auto batched = engine.solve({inputs.data(), inputs.size()});
  for (std::size_t b = 0; b < batch; ++b) {
    const SvdResult ref = one_sided_jacobi(inputs[b], ordering, bopt.jacobi);
    if (result_digest(batched[b]) != result_digest(ref)) {
      fail("n=" + std::to_string(n) + " B=" + std::to_string(batch) + " problem " +
           std::to_string(b) + " diverged from the sequential solve");
      return false;
    }
  }

  std::vector<double> t_batched, t_loop;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto b0 = Clock::now();
    const auto rs = engine.solve({inputs.data(), inputs.size()});
    t_batched.push_back(seconds_since(b0));
    const auto l0 = Clock::now();
    for (std::size_t b = 0; b < batch; ++b)
      (void)one_sided_jacobi(inputs[b], ordering, bopt.jacobi);
    t_loop.push_back(seconds_since(l0));
    if (rs.empty()) return false;  // keep the solve observable
  }
  out.n = n;
  out.batch = batch;
  out.batched_s = median(t_batched);
  out.loop_s = median(t_loop);
  out.speedup = out.batched_s > 0.0 ? out.loop_s / out.batched_s : 0.0;
  return true;
}

struct ServePoint {
  std::size_t requests = 0;
  double qps = 0.0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  double mean_batch_fill = 0.0;
  // Fault counters (zero on the clean saturation load; the serve_faults
  // point checks them against exact expected values).
  std::uint64_t solved = 0;
  std::uint64_t expired = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
};

/// Saturation load: all requests pre-generated, submitted back-to-back from
/// one producer (submit blocks on the bounded queues, which is the
/// saturation regime by construction on a loaded box).
bool run_serve_case(const Ordering& ordering, std::size_t n, std::size_t requests,
                    ServePoint& out) {
  ServeOptions opt;
  opt.rows = n;
  opt.cols = n;
  opt.shards = 1;
  opt.queue_capacity = 64;
  opt.batch.lane_width = kLaneWidth;

  Rng rng(0xC10 + n);
  std::vector<Matrix> inputs;
  inputs.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) inputs.push_back(random_gaussian(n, n, rng));
  std::vector<SvdResult> results(requests);

  SvdServer server(ordering, opt);
  server.start();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < requests; ++i)
    if (!server.submit(inputs[i], &results[i])) return false;
  server.wait_idle();
  const double elapsed = seconds_since(t0);
  server.stop();

  // Spot-check the served payloads against direct solves (full verification
  // is the serve tool's and the test suite's job).
  for (std::size_t i = 0; i < requests; i += requests / 4 + 1) {
    const SvdResult ref = one_sided_jacobi(inputs[i], ordering, opt.batch.jacobi);
    if (result_digest(results[i]) != result_digest(ref)) {
      fail("serve n=" + std::to_string(n) + " request " + std::to_string(i) +
           " diverged from the direct solve");
      return false;
    }
  }

  const ServeStats stats = server.stats();
  out.requests = requests;
  out.qps = elapsed > 0.0 ? static_cast<double>(requests) / elapsed : 0.0;
  out.p50_ns = stats.latency.p50_ns();
  out.p99_ns = stats.latency.p99_ns();
  out.mean_batch_fill =
      stats.batches != 0
          ? static_cast<double>(stats.batched_lanes) / static_cast<double>(stats.batches)
          : 0.0;
  out.solved = stats.solved;
  out.expired = stats.expired;
  out.failed = stats.failed;
  out.shed = stats.shed;
  // The clean load must not trip any of the fault paths.
  if (stats.expired != 0 || stats.failed != 0 || stats.shed != 0) {
    fail("serve n=" + std::to_string(n) + " clean load tripped a fault counter");
    return false;
  }
  return out.qps > 0.0;
}

/// Deterministic degraded-mode point: eight doomed requests (1 ns deadlines)
/// parked behind a fault-plan stall are shed by a kShedExpired admission.
/// Every surviving payload is still verified bitwise, and the counters have
/// exact expected values (same discipline as the treesvd_serve --chaos gate).
bool run_faulted_serve_case(const Ordering& ordering, ServePoint& out) {
  constexpr std::size_t kN = 16;
  constexpr std::size_t kDoomed = 8;
  constexpr std::size_t kHealthy = 64;
  ServeOptions opt;
  opt.rows = kN;
  opt.cols = kN;
  opt.shards = 1;
  opt.queue_capacity = kDoomed;  // the doomed wave exactly fills the queue
  opt.batch.lane_width = kLaneWidth;
  opt.faults.enabled = true;
  opt.faults.stall_shard = 0;
  opt.faults.stall_until_submitted = kDoomed + 2;  // released by the 2nd healthy submit

  Rng rng(0xC10F);
  std::vector<Matrix> inputs;
  inputs.reserve(kDoomed + kHealthy);
  for (std::size_t i = 0; i < kDoomed + kHealthy; ++i)
    inputs.push_back(random_gaussian(kN, kN, rng));
  std::vector<SvdResult> results(inputs.size());

  SvdServer server(ordering, opt);
  server.start();
  const auto t0 = Clock::now();
  SubmitOptions doomed;
  doomed.deadline_ns = 1;  // expires long before the stall releases
  for (std::size_t i = 0; i < kDoomed; ++i)
    if (server.submit(inputs[i], &results[i], doomed) != SubmitOutcome::kAccepted) return false;
  // First healthy admission meets the full queue of corpses and sheds them;
  // the rest take the blocking path (kShedExpired would bounce once the
  // queue is full of *live* requests — that is saturation, not overload).
  SubmitOptions shedding;
  shedding.policy = SubmitPolicy::kShedExpired;
  if (server.submit(inputs[kDoomed], &results[kDoomed], shedding) != SubmitOutcome::kAccepted)
    return false;
  for (std::size_t i = kDoomed + 1; i < inputs.size(); ++i)
    if (!server.submit(inputs[i], &results[i])) return false;
  server.wait_idle();
  const double elapsed = seconds_since(t0);
  server.stop();

  for (std::size_t i = kDoomed; i < inputs.size(); i += 7) {
    const SvdResult ref = one_sided_jacobi(inputs[i], ordering, opt.batch.jacobi);
    if (result_digest(results[i]) != result_digest(ref)) {
      fail("serve_faults request " + std::to_string(i) + " diverged from the direct solve");
      return false;
    }
  }

  const ServeStats stats = server.stats();
  out.requests = inputs.size();
  out.qps = elapsed > 0.0 ? static_cast<double>(inputs.size()) / elapsed : 0.0;
  out.p50_ns = stats.latency.p50_ns();
  out.p99_ns = stats.latency.p99_ns();
  out.mean_batch_fill =
      stats.batches != 0
          ? static_cast<double>(stats.batched_lanes) / static_cast<double>(stats.batches)
          : 0.0;
  out.solved = stats.solved;
  out.expired = stats.expired;
  out.failed = stats.failed;
  out.shed = stats.shed;
  if (stats.shed != kDoomed || stats.expired != kDoomed || stats.solved != kHealthy ||
      stats.failed != 0) {
    fail("serve_faults counters diverged from the deterministic plan");
    return false;
  }
  return true;
}

constexpr std::size_t kSizes[] = {16, 32, 64};
constexpr std::size_t kBatches[] = {8, 32};

int run(const std::string& json_path) {
  const auto ordering = make_ordering("round-robin");

  // Each point is gated and timed against a sequential loop running the
  // identical options; the cross-problem gram kernel makes the fresh Gram
  // pass per pair nearly free.
  std::vector<EngineCase> cases;
  for (const std::size_t n : kSizes)
    for (const std::size_t batch : kBatches) {
      EngineCase c;
      if (!run_engine_case(*ordering, n, batch, c)) return 1;
      cases.push_back(c);
    }

  std::vector<ServePoint> serve;
  for (const std::size_t n : kSizes) {
    ServePoint p;
    if (!run_serve_case(*ordering, n, /*requests=*/n <= 32 ? 256 : 64, p)) return 1;
    serve.push_back(p);
  }
  ServePoint faulted;
  if (!run_faulted_serve_case(*ordering, faulted)) return 1;

  if (json_path.empty()) {
    std::printf("C10 — batched SoA engine vs loop of sequential solves "
                "(lane width %zu, median of %d)\n\n", kLaneWidth, kReps);
    Table t({"n", "B", "batched (ms)", "loop (ms)", "speedup"});
    for (const EngineCase& c : cases) {
      char b[24], l[24], s[24];
      std::snprintf(b, sizeof b, "%.3f", c.batched_s * 1e3);
      std::snprintf(l, sizeof l, "%.3f", c.loop_s * 1e3);
      std::snprintf(s, sizeof s, "%.2fx", c.speedup);
      t.row()
          .cell(static_cast<long long>(c.n))
          .cell(static_cast<long long>(c.batch))
          .cell(b)
          .cell(l)
          .cell(s);
    }
    std::printf("%s\n", t.str().c_str());

    std::printf("Serve saturation (1 shard, queue 64, submit-to-done latency):\n");
    Table q({"n", "requests", "QPS", "p50 (us)", "p99 (us)", "mean batch fill"});
    for (std::size_t i = 0; i < serve.size(); ++i) {
      char qps[24], p50[24], p99[24], fill[24];
      std::snprintf(qps, sizeof qps, "%.0f", serve[i].qps);
      std::snprintf(p50, sizeof p50, "%.1f", static_cast<double>(serve[i].p50_ns) / 1e3);
      std::snprintf(p99, sizeof p99, "%.1f", static_cast<double>(serve[i].p99_ns) / 1e3);
      std::snprintf(fill, sizeof fill, "%.2f", serve[i].mean_batch_fill);
      q.row()
          .cell(static_cast<long long>(kSizes[i]))
          .cell(static_cast<long long>(serve[i].requests))
          .cell(qps)
          .cell(p50)
          .cell(p99)
          .cell(fill);
    }
    std::printf("%s\n", q.str().c_str());

    std::printf("Serve degraded mode (deterministic shed/expire):\n");
    std::printf("  requests=%zu solved=%llu expired=%llu shed=%llu failed=%llu\n\n",
                faulted.requests, static_cast<unsigned long long>(faulted.solved),
                static_cast<unsigned long long>(faulted.expired),
                static_cast<unsigned long long>(faulted.shed),
                static_cast<unsigned long long>(faulted.failed));
    std::printf("Every batched and served result was verified bitwise against the\n"
                "sequential driver before any timing above was recorded.\n");
    return 0;
  }

  std::vector<bench::JsonObject> engine_rows;
  for (const EngineCase& c : cases) {
    bench::JsonObject row;
    row.add("n", c.n)
        .add("batch", c.batch)
        .add("batched_s", c.batched_s)
        .add("loop_s", c.loop_s)
        .add("speedup", c.speedup);
    engine_rows.push_back(row);
  }
  std::vector<bench::JsonObject> serve_rows;
  for (std::size_t i = 0; i < serve.size(); ++i) {
    bench::JsonObject row;
    row.add("n", kSizes[i])
        .add("requests", serve[i].requests)
        .add("qps", serve[i].qps)
        .add("p50_ns", static_cast<std::size_t>(serve[i].p50_ns))
        .add("p99_ns", static_cast<std::size_t>(serve[i].p99_ns))
        .add("mean_batch_fill", serve[i].mean_batch_fill)
        .add("solved", static_cast<std::size_t>(serve[i].solved))
        .add("expired", static_cast<std::size_t>(serve[i].expired))
        .add("shed", static_cast<std::size_t>(serve[i].shed))
        .add("failed", static_cast<std::size_t>(serve[i].failed));
    serve_rows.push_back(row);
  }
  bench::JsonObject faulted_row;
  faulted_row.add("n", std::size_t{16})
      .add("requests", faulted.requests)
      .add("qps", faulted.qps)
      .add("p50_ns", static_cast<std::size_t>(faulted.p50_ns))
      .add("p99_ns", static_cast<std::size_t>(faulted.p99_ns))
      .add("mean_batch_fill", faulted.mean_batch_fill)
      .add("solved", static_cast<std::size_t>(faulted.solved))
      .add("expired", static_cast<std::size_t>(faulted.expired))
      .add("shed", static_cast<std::size_t>(faulted.shed))
      .add("failed", static_cast<std::size_t>(faulted.failed));
  bench::JsonObject root;
  root.add("bench", "batched_serve");
  root.add("schema", "treesvd-bench-v1");
  root.add("correctness", "ok");
  root.add("ordering", "round-robin");
  root.add("lane_width", kLaneWidth);
  root.add("kernel_isa", batched_kernel_isa());
  root.add("reps", static_cast<long long>(kReps));
  root.add_array("engine", engine_rows);
  root.add_array("serve", serve_rows);
  root.add_array("serve_faults", {faulted_row});
  if (!bench::write_json_file(json_path, root)) return 1;
  std::printf("batched correctness OK (%zu engine cases, %zu serve points), "
              "report written to %s\n",
              cases.size(), serve.size(), json_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  return run(json_path);
}
