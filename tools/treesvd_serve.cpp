// treesvd_serve — many-SVD serving front-end over the batched engine.
//
// Boots an SvdServer (svd/serve.hpp: thread-per-shard, bounded MPSC
// submission queues with backpressure, preallocated SoA arena slabs), replays
// a seeded synthetic request trace against it, verifies a sample of served
// results bitwise against direct sequential solves, and dumps the latency
// histogram and throughput counters as JSON.
//
// Exit status is the contract: 0 when every verified result matches the
// sequential engine bit-for-bit and the histogram is sane (count == requests,
// p50 <= p99, nonzero QPS); 1 on any violation; 2 on usage error.
//
// --chaos flips the tool into the deterministic serve-chaos gate: two
// seeded fault legs (mixed poison/throw/expire; overload with a stalled
// shard and deadline shedding), each replayed to prove the fault counters
// are bit-reproducible. The gate fails on any lost request (a submission
// that never reached a terminal state), any healthy payload that diverges
// from the sequential solve, or any counter drift between replays — the
// serving counterpart of the transport chaos gate.
//
// Usage:
//   treesvd_serve [--rows=32] [--cols=16] [--ordering=round-robin]
//                 [--shards=2] [--lane-width=8] [--queue-cap=64]
//                 [--requests=512] [--seed=2026] [--verify=32]
//                 [--json=PATH]
//   treesvd_serve --chaos [--rows=12] [--cols=8] [--ordering=round-robin]
//                 [--requests=96] [--seed=2026] [--json=PATH]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "linalg/generators.hpp"
#include "svd/determinism.hpp"
#include "svd/jacobi.hpp"
#include "svd/serve.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/text_file.hpp"

namespace treesvd::serve_tool {
namespace {

std::string histogram_json(const LatencyHistogram& h) {
  std::ostringstream os;
  os << "{\"count\": " << h.count() << ", \"p50_ns\": " << h.p50_ns()
     << ", \"p99_ns\": " << h.p99_ns() << ", \"max_ns\": " << h.max_ns()
     << ", \"log2_buckets\": [";
  // Trailing zero buckets are elided; what remains is the occupied prefix.
  std::size_t last = 0;
  for (std::size_t k = 0; k < LatencyHistogram::kBuckets; ++k)
    if (h.buckets()[k] != 0) last = k + 1;
  for (std::size_t k = 0; k < last; ++k) os << (k != 0 ? "," : "") << h.buckets()[k];
  os << "]}";
  return os.str();
}

// ---------------------------------------------------------------------------
// Chaos gate
// ---------------------------------------------------------------------------

/// Sentinel planted in every result slot before submission; any terminal
/// completion overwrites it, so a surviving sentinel is a lost request.
constexpr int kSentinelSweeps = -12345;

/// The ServeStats counters a replay must reproduce bit-for-bit.
struct ChaosCounters {
  std::uint64_t submitted = 0, completed = 0, solved = 0, expired = 0, shed = 0, failed = 0,
                rejected = 0, stalls_injected = 0;

  static ChaosCounters from(const ServeStats& s) {
    return {s.submitted, s.completed, s.solved, s.expired,
            s.shed,      s.failed,    s.rejected, s.stalls_injected};
  }
  bool operator==(const ChaosCounters&) const = default;
};

struct LegReport {
  std::string name;
  bool ok = true;
  std::vector<std::string> errors;
  ServeStats stats;

  void fail(std::string why) {
    ok = false;
    std::cerr << "treesvd_serve[chaos:" << name << "]: " << why << "\n";
    errors.push_back(std::move(why));
  }
  void check(bool cond, const std::string& why) {
    if (!cond) fail(why);
  }
};

struct ChaosConfig {
  std::size_t rows = 12;
  std::size_t cols = 8;
  std::size_t requests = 96;
  std::uint64_t seed = 2026;
  const Ordering* ordering = nullptr;
};

void expect_counter(LegReport& leg, const char* what, std::uint64_t got, std::uint64_t want) {
  if (got != want) {
    leg.fail(std::string(what) + " = " + std::to_string(got) + ", expected " +
             std::to_string(want));
  }
}

/// Common post-run audit: no submission may be lost (sentinel survived or
/// accounting mismatch), and every request must sit in exactly the terminal
/// state its planned fault dictates — healthy ones bitwise equal to the
/// sequential solve.
void audit_results(LegReport& leg, const ChaosConfig& cfg, const ServeFaultPlan& plan,
                   const std::vector<Matrix>& inputs, const std::vector<SvdResult>& results,
                   const JacobiOptions& jopt) {
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SvdResult& r = results[i];
    if (r.sweeps == kSentinelSweeps) {
      leg.fail("request " + std::to_string(i) + " LOST: never reached a terminal state");
      continue;
    }
    switch (plan.request_fault(static_cast<std::uint64_t>(i))) {
      case ServeFaultPlan::RequestFault::kPoison:
        leg.check(r.status == SvdStatus::kFailed && !r.diagnostics.error.empty(),
                  "poison request " + std::to_string(i) + " not kFailed-with-context (status " +
                      to_string(r.status) + ")");
        break;
      case ServeFaultPlan::RequestFault::kThrow:
        leg.check(r.status == SvdStatus::kFailed && !r.diagnostics.error.empty(),
                  "throw request " + std::to_string(i) + " not kFailed-with-context (status " +
                      to_string(r.status) + ")");
        break;
      case ServeFaultPlan::RequestFault::kExpire:
        leg.check(r.status == SvdStatus::kDeadlineExpired,
                  "expire request " + std::to_string(i) + " not kDeadlineExpired (status " +
                      to_string(r.status) + ")");
        break;
      case ServeFaultPlan::RequestFault::kNone: {
        const SvdResult ref = one_sided_jacobi(inputs[i], *cfg.ordering, jopt);
        leg.check(result_digest(r) == result_digest(ref),
                  "healthy request " + std::to_string(i) + " diverged from sequential solve");
        break;
      }
    }
  }
  leg.check(leg.stats.completed == results.size(),
            "completed = " + std::to_string(leg.stats.completed) + ", expected " +
                std::to_string(results.size()));
  leg.check(leg.stats.latency.count() == leg.stats.completed,
            "latency count != completed");
  leg.check(leg.stats.completed == leg.stats.solved + leg.stats.expired + leg.stats.failed,
            "terminal accounting broken: completed != solved + expired + failed");
}

/// Leg A — mixed faults: seeded poison inputs (NaN), injected solver throws
/// and pre-expired deadlines over two shards. The healthy majority must come
/// through bitwise clean.
LegReport run_mixed_leg(const ChaosConfig& cfg) {
  LegReport leg;
  leg.name = "mixed";

  ServeOptions opt;
  opt.rows = cfg.rows;
  opt.cols = cfg.cols;
  opt.shards = 2;
  opt.queue_capacity = 64;
  opt.batch.lane_width = 4;
  ServeFaultPlan& fp = opt.faults;
  fp.enabled = true;
  fp.seed = cfg.seed;
  fp.poison_prob = 0.12;
  fp.throw_prob = 0.10;
  fp.expire_prob = 0.10;

  Rng rng(cfg.seed);
  std::vector<Matrix> inputs;
  inputs.reserve(cfg.requests);
  std::size_t npoison = 0, nthrow = 0, nexpire = 0;
  for (std::size_t i = 0; i < cfg.requests; ++i) {
    inputs.push_back(random_gaussian(cfg.rows, cfg.cols, rng));
    switch (fp.request_fault(static_cast<std::uint64_t>(i))) {
      case ServeFaultPlan::RequestFault::kPoison:
        inputs.back()(0, 0) = std::numeric_limits<double>::quiet_NaN();
        ++npoison;
        break;
      case ServeFaultPlan::RequestFault::kThrow: ++nthrow; break;
      case ServeFaultPlan::RequestFault::kExpire: ++nexpire; break;
      case ServeFaultPlan::RequestFault::kNone: break;
    }
  }
  std::vector<SvdResult> results(cfg.requests);
  for (auto& r : results) r.sweeps = kSentinelSweeps;

  SvdServer server(*cfg.ordering, opt);
  server.start();
  for (std::size_t i = 0; i < cfg.requests; ++i) {
    SubmitOptions so;
    if (fp.request_fault(static_cast<std::uint64_t>(i)) == ServeFaultPlan::RequestFault::kExpire)
      so.deadline_ns = 1;  // unmeetable: expires at batch formation, never solves
    if (server.submit(inputs[i], &results[i], so) != SubmitOutcome::kAccepted)
      leg.fail("submission " + std::to_string(i) + " not accepted");
  }
  server.wait_idle();
  server.stop();
  leg.stats = server.stats();

  audit_results(leg, cfg, fp, inputs, results, opt.batch.jacobi);
  expect_counter(leg, "expired", leg.stats.expired, nexpire);
  expect_counter(leg, "failed", leg.stats.failed, npoison + nthrow);
  expect_counter(leg, "solved", leg.stats.solved, cfg.requests - nexpire - npoison - nthrow);
  return leg;
}

/// Leg B — overload and shedding: one shard, stalled by the plan until the
/// whole trace is submitted, a queue full of already-expired requests, and a
/// healthy wave admitted under kShedExpired that must evict them. Also pins
/// the watermark readiness transitions, which are deterministic here because
/// the stall forbids any completion while the backlog builds.
LegReport run_overload_leg(const ChaosConfig& cfg) {
  LegReport leg;
  leg.name = "overload";

  const std::size_t wave = 8;
  ServeOptions opt;
  opt.rows = cfg.rows;
  opt.cols = cfg.cols;
  opt.shards = 1;
  opt.queue_capacity = wave;
  opt.batch.lane_width = 4;
  ServeFaultPlan& fp = opt.faults;
  fp.enabled = true;
  fp.seed = cfg.seed;
  fp.stall_shard = 0;
  fp.stall_until_submitted = 2 * wave;  // event-released: when the trace is in

  Rng rng(cfg.seed + 1);
  std::vector<Matrix> inputs;
  inputs.reserve(2 * wave);
  for (std::size_t i = 0; i < 2 * wave; ++i)
    inputs.push_back(random_gaussian(cfg.rows, cfg.cols, rng));
  std::vector<SvdResult> results(2 * wave);
  for (auto& r : results) r.sweeps = kSentinelSweeps;

  SvdServer server(*cfg.ordering, opt);
  server.start();
  leg.check(server.ready(), "server not ready before any load");
  // Fill the queue with doomed requests (the shard is stalled, so none can
  // complete and the backlog is exact).
  for (std::size_t i = 0; i < wave; ++i) {
    SubmitOptions so;
    so.deadline_ns = 1;
    if (server.submit(inputs[i], &results[i], so) != SubmitOutcome::kAccepted)
      leg.fail("expired-wave submission " + std::to_string(i) + " not accepted");
  }
  leg.check(!server.ready(), "backlog at the high watermark did not drop readiness");
  // The healthy wave sheds its way in.
  for (std::size_t i = wave; i < 2 * wave; ++i) {
    SubmitOptions so;
    so.policy = SubmitPolicy::kShedExpired;
    if (server.submit(inputs[i], &results[i], so) != SubmitOutcome::kAccepted)
      leg.fail("healthy-wave submission " + std::to_string(i) + " not accepted");
  }
  server.wait_idle();
  leg.check(server.ready(), "server not ready again after the backlog drained");
  server.stop();
  leg.stats = server.stats();

  // The doomed wave must be shed-expired; the healthy wave must be real
  // solves, bitwise equal to the sequential engine.
  for (std::size_t i = 0; i < wave; ++i) {
    const SvdResult& r = results[i];
    leg.check(r.sweeps != kSentinelSweeps,
              "doomed request " + std::to_string(i) + " LOST");
    leg.check(r.status == SvdStatus::kDeadlineExpired,
              "doomed request " + std::to_string(i) + " not kDeadlineExpired (status " +
                  to_string(r.status) + ")");
  }
  for (std::size_t i = wave; i < 2 * wave; ++i) {
    const SvdResult& r = results[i];
    leg.check(r.sweeps != kSentinelSweeps, "healthy request " + std::to_string(i) + " LOST");
    if (r.sweeps == kSentinelSweeps) continue;
    const SvdResult ref = one_sided_jacobi(inputs[i], *cfg.ordering, opt.batch.jacobi);
    leg.check(result_digest(r) == result_digest(ref),
              "healthy request " + std::to_string(i) + " diverged from sequential solve");
  }
  expect_counter(leg, "shed", leg.stats.shed, wave);
  expect_counter(leg, "expired", leg.stats.expired, wave);
  expect_counter(leg, "solved", leg.stats.solved, wave);
  expect_counter(leg, "failed", leg.stats.failed, 0);
  expect_counter(leg, "rejected", leg.stats.rejected, 0);
  expect_counter(leg, "completed", leg.stats.completed, 2 * wave);
  expect_counter(leg, "stalls_injected", leg.stats.stalls_injected, 1);
  leg.check(leg.stats.latency.count() == leg.stats.completed, "latency count != completed");
  return leg;
}

std::string counters_json(const ServeStats& s) {
  std::ostringstream os;
  os << "{\"submitted\": " << s.submitted << ", \"completed\": " << s.completed
     << ", \"solved\": " << s.solved << ", \"expired\": " << s.expired
     << ", \"shed\": " << s.shed << ", \"failed\": " << s.failed
     << ", \"rejected\": " << s.rejected << ", \"stalls_injected\": " << s.stalls_injected
     << "}";
  return os.str();
}

int run_chaos(const Cli& cli) {
  const std::size_t rows = cli.get_count("rows", 12);
  const std::size_t cols = cli.get_count("cols", 8);
  const std::size_t requests = cli.get_count("requests", 96);
  const std::uint64_t seed = cli.get_count("seed", 2026);
  const std::string oname = cli.get("ordering", "round-robin");
  if (rows < cols || cols < 2 || requests < 24) {
    std::cerr << "treesvd_serve --chaos: need rows >= cols >= 2 and requests >= 24\n";
    return 2;
  }
  const OrderingPtr ordering = make_ordering(oname);
  ChaosConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.requests = requests;
  cfg.seed = seed;
  cfg.ordering = ordering.get();

  // Each leg runs twice: the pass/fail audits run on the first, and the
  // replay must reproduce the deterministic counter subset bit-for-bit.
  std::vector<LegReport> legs;
  bool replay_identical = true;
  const auto run_replayed = [&](auto&& leg_fn) {
    LegReport first = leg_fn(cfg);
    LegReport second = leg_fn(cfg);
    if (!(ChaosCounters::from(first.stats) == ChaosCounters::from(second.stats))) {
      replay_identical = false;
      first.fail("replay produced different counters: " + counters_json(first.stats) +
                 " vs " + counters_json(second.stats));
    }
    if (!second.ok) first.ok = false;
    legs.push_back(std::move(first));
  };
  run_replayed(run_mixed_leg);
  run_replayed(run_overload_leg);

  bool ok = replay_identical;
  for (const LegReport& leg : legs) ok = ok && leg.ok;

  std::ostringstream os;
  os << "{\n  \"tool\": \"treesvd_serve\",\n  \"mode\": \"chaos\",\n  \"rows\": " << rows
     << ",\n  \"cols\": " << cols << ",\n  \"ordering\": \"" << oname
     << "\",\n  \"requests\": " << requests << ",\n  \"seed\": " << seed << ",\n  \"legs\": [";
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const LegReport& leg = legs[i];
    os << (i != 0 ? "," : "") << "\n    {\"name\": \"" << leg.name
       << "\", \"pass\": " << (leg.ok ? "true" : "false")
       << ", \"errors\": " << leg.errors.size() << ", \"counters\": " << counters_json(leg.stats)
       << "}";
  }
  os << "\n  ],\n  \"replay_identical\": " << (replay_identical ? "true" : "false")
     << ",\n  \"pass\": " << (ok ? "true" : "false") << "\n}\n";

  const std::string path = cli.get("json", "");
  if (path.empty()) {
    std::cout << os.str();
  } else {
    if (!write_text_file(path, os.str())) return 2;
    std::cout << (ok ? "chaos pass" : "chaos FAIL") << ": " << legs.size()
              << " legs replayed -> " << path << "\n";
  }
  return ok ? 0 : 1;
}

int run_serve(const Cli& cli) {
  const std::size_t rows = cli.get_count("rows", 32);
  const std::size_t cols = cli.get_count("cols", 16);
  const std::size_t shards = cli.get_count("shards", 2);
  const std::size_t lane_width = cli.get_count("lane-width", 8);
  const std::size_t queue_cap = cli.get_count("queue-cap", 64);
  const std::size_t requests = cli.get_count("requests", 512);
  const std::uint64_t seed = cli.get_count("seed", 2026);
  const std::size_t verify = cli.get_count("verify", 32);
  const std::string oname = cli.get("ordering", "round-robin");
  if (rows < cols || cols < 2 || shards < 1 || requests < 1) {
    std::cerr << "treesvd_serve: need rows >= cols >= 2, shards >= 1, requests >= 1\n";
    return 2;
  }
  // The batched engine's shard widths (BatchedSvdOptions::lane_width).
  if (lane_width != 4 && lane_width != 8 && lane_width != 16)
    throw CliError("--lane-width must be 4, 8 or 16, got: " + cli.get("lane-width", ""));

  const OrderingPtr ordering = make_ordering(oname);

  ServeOptions opt;
  opt.rows = rows;
  opt.cols = cols;
  opt.shards = shards;
  opt.queue_capacity = queue_cap;
  opt.batch.lane_width = lane_width;

  // Canned trace: `requests` seeded Gaussian problems, generated up front so
  // the replay measures the server, not the generator.
  Rng rng(seed);
  std::vector<Matrix> inputs;
  inputs.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) inputs.push_back(random_gaussian(rows, cols, rng));
  std::vector<SvdResult> results(requests);

  SvdServer server(*ordering, opt);
  server.start();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < requests; ++i) {
    if (!server.submit(inputs[i], &results[i])) {
      std::cerr << "treesvd_serve: submit rejected at request " << i << "\n";
      return 1;
    }
  }
  server.wait_idle();
  const auto t1 = std::chrono::steady_clock::now();
  server.stop();
  const double elapsed_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0).count();
  const double qps = elapsed_s > 0.0 ? static_cast<double>(requests) / elapsed_s : 0.0;

  // Verification gate: a deterministic sample of served results must be
  // bitwise the direct sequential solve (the engine's lane contract,
  // end-to-end through queueing and batching).
  bool ok = true;
  const std::size_t nverify = std::min(verify, requests);
  const std::size_t stride = nverify == 0 ? 1 : std::max<std::size_t>(1, requests / nverify);
  std::size_t verified = 0;
  for (std::size_t i = 0; i < requests && verified < nverify; i += stride, ++verified) {
    const SvdResult ref = one_sided_jacobi(inputs[i], *ordering, opt.batch.jacobi);
    if (result_digest(results[i]) != result_digest(ref)) {
      std::cerr << "treesvd_serve: VERIFY FAIL request " << i
                << " diverged from sequential solve\n";
      ok = false;
    }
  }

  const ServeStats stats = server.stats();
  if (stats.completed != requests || stats.latency.count() != requests) {
    std::cerr << "treesvd_serve: accounting mismatch: completed=" << stats.completed
              << " latency_count=" << stats.latency.count() << " requests=" << requests << "\n";
    ok = false;
  }
  if (stats.solved != requests || stats.expired != 0 || stats.failed != 0) {
    std::cerr << "treesvd_serve: fault-free run saw faults: solved=" << stats.solved
              << " expired=" << stats.expired << " failed=" << stats.failed << "\n";
    ok = false;
  }
  if (stats.latency.p50_ns() > stats.latency.p99_ns()) {
    std::cerr << "treesvd_serve: histogram insane: p50 > p99\n";
    ok = false;
  }
  if (qps <= 0.0) {
    std::cerr << "treesvd_serve: nonpositive throughput\n";
    ok = false;
  }

  std::ostringstream os;
  os << "{\n  \"tool\": \"treesvd_serve\",\n  \"rows\": " << rows << ",\n  \"cols\": " << cols
     << ",\n  \"ordering\": \"" << oname << "\",\n  \"shards\": " << shards
     << ",\n  \"lane_width\": " << lane_width << ",\n  \"queue_capacity\": " << queue_cap
     << ",\n  \"requests\": " << requests << ",\n  \"seed\": " << seed
     << ",\n  \"elapsed_s\": " << elapsed_s << ",\n  \"qps\": " << qps
     << ",\n  \"batches\": " << stats.batches << ",\n  \"mean_batch_fill\": "
     << (stats.batches != 0
             ? static_cast<double>(stats.batched_lanes) / static_cast<double>(stats.batches)
             : 0.0)
     << ",\n  \"counters\": " << counters_json(stats)
     << ",\n  \"verified\": " << verified << ",\n  \"pass\": " << (ok ? "true" : "false")
     << ",\n  \"latency\": " << histogram_json(stats.latency) << "\n}\n";

  const std::string path = cli.get("json", "");
  if (path.empty()) {
    std::cout << os.str();
  } else {
    if (!write_text_file(path, os.str())) return 2;
    std::cout << (ok ? "pass" : "FAIL") << ": " << requests << " requests, qps=" << qps
              << ", p50=" << stats.latency.p50_ns() << "ns, p99=" << stats.latency.p99_ns()
              << "ns -> " << path << "\n";
  }
  return ok ? 0 : 1;
}

int main(int argc, const char* const* argv) {
  const Cli cli(argc, argv);
  if (cli.has("chaos"))
    cli.require_known({"help", "chaos", "rows", "cols", "ordering", "requests", "seed", "json"});
  else
    cli.require_known({"help", "rows", "cols", "ordering", "shards", "lane-width", "queue-cap",
                       "requests", "seed", "verify", "json"});
  if (cli.has("help")) {
    std::cout << "usage: treesvd_serve [--rows=32] [--cols=16] [--ordering=round-robin]\n"
                 "                     [--shards=2] [--lane-width=8] [--queue-cap=64]\n"
                 "                     [--requests=512] [--seed=2026] [--verify=32]\n"
                 "                     [--json=PATH]\n"
                 "       treesvd_serve --chaos [--rows=12] [--cols=8]\n"
                 "                     [--ordering=round-robin] [--requests=96]\n"
                 "                     [--seed=2026] [--json=PATH]\n";
    return 0;
  }
  if (cli.has("chaos")) return run_chaos(cli);
  return run_serve(cli);
}

}  // namespace
}  // namespace treesvd::serve_tool

int main(int argc, char** argv) {
  return treesvd::run_tool("treesvd_serve", argc, argv, treesvd::serve_tool::main);
}
