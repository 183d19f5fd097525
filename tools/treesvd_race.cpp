// treesvd_race — concurrency-analysis acceptance harness.
//
// For every bitwise-serial engine of the engine table (engines.hpp) but the
// serial reference itself x registry ordering, runs the happens-before race
// detector and the schedule-perturbation determinism oracle:
//
//  * Race detection: a vector-clock tracker (analysis/hb.hpp) receives
//    fork/join, message and barrier edges from the instrumented runtime and
//    checks every annotated shared access (each pair's H columns, kernel/recovery
//    counters, GEMM reduction buffers, SPMD checkpoint ring). A race is two
//    conflicting accesses with no happens-before path — reported with both
//    access stacks, independent of how the host actually interleaved them.
//  * Determinism oracle: each engine runs under K seeded schedule
//    perturbations (chunk-order permutation + yield injection,
//    analysis/fuzz.hpp) and every run's SvdResult digest — sigma/U/V bits,
//    sweep and rotation counts, kernel stats — must equal the serial
//    reference bit-for-bit.
//
// The per-run results are emitted as machine-readable JSON (stdout, or
// --json=PATH); the exit status is the contract: 0 means zero races and all
// digests identical, 1 means at least one violation, 2 means usage error.
// --self-test proves the machinery can fail: a planted write-write race must
// be flagged (with both stacks) and a planted order-dependent reduction must
// diverge under perturbed schedules.
//
// Usage:
//   treesvd_race [--n=8] [--rows=12] [--seed=2026] [--schedules=16]
//                [--threads=4] [--engines=threaded,batched,spmd] [--orderings=...]
//                [--max-sweeps=60] [--json=PATH] [--self-test]

#if !defined(TREESVD_ANALYSIS) || !TREESVD_ANALYSIS

#include <iostream>

int main() {
  std::cerr << "treesvd_race: this build has no concurrency-analysis instrumentation;\n"
               "reconfigure with -DTREESVD_ANALYSIS=ON (default for Debug/RelWithDebInfo)\n";
  return 2;
}

#else

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/digest.hpp"
#include "analysis/fuzz.hpp"
#include "analysis/hb.hpp"
#include "analysis/hooks.hpp"
#include "core/registry.hpp"
#include "engines.hpp"
#include "linalg/generators.hpp"
#include "svd/determinism.hpp"
#include "svd/jacobi.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/text_file.hpp"
#include "util/thread_pool.hpp"

namespace treesvd::race {
namespace {

struct ScheduleRun {
  std::uint64_t seed = 0;
  std::uint64_t digest = 0;
  bool match = false;        ///< digest == serial reference
  std::size_t races = 0;
  std::size_t events = 0;    ///< tracker events observed (instrumentation liveness)
  std::size_t tasks = 0;     ///< logical tasks the tracker saw
  std::size_t yields = 0;    ///< fuzzer yields injected
};

struct RunReport {
  std::string engine;
  std::string ordering;
  bool ok = false;
  std::string detail;  ///< first violation or exception text; empty on success
  std::uint64_t serial_digest = 0;
  std::vector<ScheduleRun> schedules;
  std::vector<std::string> races;  ///< rendered race reports (both stacks)
};

/// The engines the oracle races: every bitwise-serial entry after the table's
/// first, the serial reference itself, which has no schedule to perturb.
std::vector<const EngineEntry*> raced_engines() {
  std::vector<const EngineEntry*> out;
  for (const EngineEntry& eng : std::span(kEngines).subspan(1))
    if (eng.bitwise_serial) out.push_back(&eng);
  return out;
}

RunReport explore(const EngineEntry& eng, const std::string& oname, const Matrix& a,
                  const JacobiOptions& opt, unsigned threads, int schedules,
                  std::uint64_t base_seed) {
  RunReport rep;
  rep.engine = eng.name;
  rep.ordering = oname;
  const OrderingPtr ordering = make_ordering(oname);

  const SvdResult serial = kEngines[0].solve(a, *ordering, opt, threads);
  rep.serial_digest = result_digest(serial);

  bool ok = true;
  std::string detail;
  for (int k = 0; k < schedules; ++k) {
    analysis::FuzzPlan plan;
    plan.seed = analysis::mix64(base_seed ^ (static_cast<std::uint64_t>(k) + 1));
    analysis::ScopedFuzzer fuzzer(plan);
    analysis::ScopedTracker tracker;

    ScheduleRun run;
    run.seed = plan.seed;
    try {
      const SvdResult r = eng.solve(a, *ordering, opt, threads);
      run.digest = result_digest(r);
    } catch (const std::exception& e) {
      ok = false;
      if (detail.empty()) detail = std::string("schedule threw: ") + e.what();
    }
    run.match = run.digest == rep.serial_digest;
    run.races = tracker->race_count();
    run.events = tracker->event_count();
    run.tasks = tracker->task_count();
    run.yields = fuzzer->yields();
    if (!run.match && ok && detail.empty()) {
      ok = false;
      detail = "schedule seed " + std::to_string(run.seed) + " digest " +
               hex_digest(run.digest) + " != serial " + hex_digest(rep.serial_digest);
    }
    if (run.races != 0) {
      ok = false;
      if (detail.empty()) detail = std::to_string(run.races) + " data race(s) detected";
      for (const auto& r : tracker->reports())
        if (rep.races.size() < 16) rep.races.push_back(r.to_string());
    }
    if (run.events == 0 || run.tasks < 2) {
      ok = false;
      if (detail.empty())
        detail = "instrumentation dead: " + std::to_string(run.events) + " events, " +
                 std::to_string(run.tasks) + " tasks";
    }
    rep.schedules.push_back(run);
  }
  rep.ok = ok;
  rep.detail = detail;
  return rep;
}

// ---- self-test: prove the detector and the oracle can actually fail ----

bool self_test_planted_race(std::string* why) {
  analysis::ScopedTracker tracker;
  ThreadPool pool(4);
  double shared = 0.0;
  pool.parallel_for(
      8,
      [&](std::size_t i) {
        // Every chunk writes the same annotated location with no ordering
        // edge between chunks: a write-write race by construction.
        TREESVD_HB_WRITE(&shared, 0, "planted shared scalar");
        shared += static_cast<double>(i);
      },
      1);
  const auto reports = tracker->reports();
  if (reports.empty()) {
    *why = "planted write-write race was not detected";
    return false;
  }
  const analysis::RaceReport& r = reports.front();
  if (r.first.site.empty() || r.second.site.empty()) {
    *why = "race report is missing an access site";
    return false;
  }
  if (r.first.stack.empty() || r.second.stack.empty()) {
    *why = "race report is missing an access stack";
    return false;
  }
  std::cout << "self-test: planted race flagged: " << r.to_string() << "\n";
  return true;
}

/// Order-dependent floating-point reduction: a single CAS accumulator whose
/// final bits depend on summation order.
double order_dependent_sum(const analysis::FuzzPlan* plan) {
  std::optional<analysis::ScopedFuzzer> fuzzer;
  if (plan != nullptr) fuzzer.emplace(*plan);
  ThreadPool pool(4);
  std::atomic<double> sum{0.0};
  pool.parallel_for(
      64,
      [&](std::size_t i) {
        const double term = 1.0 / (3.0 * static_cast<double>(i) + 1.0);
        double cur = sum.load(std::memory_order_relaxed);
        while (!sum.compare_exchange_weak(cur, cur + term, std::memory_order_relaxed)) {
        }
      },
      1);
  return sum.load();
}

bool self_test_planted_divergence(std::string* why) {
  analysis::Fnv1a ref;
  ref.add_double(order_dependent_sum(nullptr));
  bool diverged = false;
  for (std::uint64_t seed = 1; seed <= 8 && !diverged; ++seed) {
    analysis::FuzzPlan plan;
    plan.seed = analysis::mix64(seed);
    analysis::Fnv1a h;
    h.add_double(order_dependent_sum(&plan));
    diverged = h.value() != ref.value();
  }
  if (!diverged) {
    *why = "schedule fuzzer failed to perturb an order-dependent reduction";
    return false;
  }
  std::cout << "self-test: planted order-dependent reduction diverged under fuzzing\n";
  return true;
}

bool self_test_clean_run(std::string* why) {
  Rng rng(7);
  const Matrix a = random_gaussian(12, 8, rng);
  const OrderingPtr ordering = make_ordering("fat-tree");
  const JacobiOptions opt;
  const auto threaded = std::ranges::find_if(
      kEngines, [](const EngineEntry& e) { return std::string_view(e.name) == "threaded"; });
  const RunReport rep = explore(*threaded, "fat-tree", a, opt, 4, 2, 99);
  if (!rep.ok) {
    *why = "clean threaded run failed the contract: " + rep.detail;
    return false;
  }
  std::cout << "self-test: clean threaded run race-free and digest-stable\n";
  return true;
}

int self_test() {
  std::string why;
  for (const auto check :
       {&self_test_planted_race, &self_test_planted_divergence, &self_test_clean_run}) {
    if (!check(&why)) {
      std::cerr << "treesvd_race self-test FAILED: " << why << "\n";
      return 1;
    }
  }
  std::cout << "treesvd_race self-test passed\n";
  return 0;
}

int main(int argc, const char* const* argv) {
  const Cli cli(argc, argv);
  cli.require_known({"help", "self-test", "n", "rows", "schedules", "seed", "threads",
                     "orderings", "engines", "max-sweeps", "json"});
  if (cli.has("help")) {
    std::cout << "usage: treesvd_race [--n=8] [--rows=12] [--seed=2026] [--schedules=16]\n"
                 "                    [--threads=4] [--engines=threaded,batched,spmd]\n"
                 "                    [--orderings=a,b,...] [--max-sweeps=60] [--json=PATH]\n"
                 "                    [--self-test]\n";
    return 0;
  }
  if (cli.has("self-test")) return self_test();

  const int n = cli.get_size("n", 8);
  const int rows = cli.get_size("rows", n + 4);
  const int schedules = cli.get_size("schedules", 16);
  const std::uint64_t base_seed = cli.get_count("seed", 2026);
  const int thread_count = cli.get_size("threads", 4);
  if (n < 4 || n % 2 != 0 || rows < n || schedules < 1 || thread_count < 2) {
    std::cerr << "treesvd_race: need even n >= 4, rows >= n, schedules >= 1, threads >= 2\n";
    return 2;
  }
  const auto threads = static_cast<unsigned>(thread_count);

  const std::vector<std::string> onames = cli.get_list("orderings", ordering_names());
  const std::vector<const EngineEntry*> raced = raced_engines();
  std::vector<std::string> raced_names;
  for (const EngineEntry* eng : raced) raced_names.emplace_back(eng->name);
  const std::vector<std::string> enames = cli.get_list("engines", raced_names);

  Rng rng(base_seed);
  const Matrix a =
      random_gaussian(static_cast<std::size_t>(rows), static_cast<std::size_t>(n), rng);
  JacobiOptions opt;
  opt.max_sweeps = cli.get_size("max-sweeps", 60);

  std::vector<RunReport> reports;
  bool pass = true;
  for (const EngineEntry* eng : raced) {
    if (std::ranges::find(enames, eng->name) == enames.end()) continue;
    for (const std::string& oname : onames) {
      const OrderingPtr ordering = make_ordering(oname);
      if (padded_width(*ordering, n) == 0) continue;  // the drivers' padding search
      RunReport rep = explore(*eng, oname, a, opt, threads, schedules, base_seed);
      pass = pass && rep.ok;
      std::cerr << (rep.ok ? "ok   " : "FAIL ") << eng->name << " x " << oname;
      if (!rep.ok) std::cerr << ": " << rep.detail;
      std::cerr << "\n";
      reports.push_back(std::move(rep));
    }
  }
  if (reports.empty()) {
    std::cerr << "treesvd_race: nothing to run (check --engines/--orderings)\n";
    return 2;
  }

  std::ostringstream os;
  os << "{\n  \"tool\": \"treesvd_race\",\n  \"n\": " << n << ",\n  \"rows\": " << rows
     << ",\n  \"schedules\": " << schedules << ",\n  \"seed\": " << base_seed
     << ",\n  \"threads\": " << threads << ",\n  \"pass\": " << (pass ? "true" : "false")
     << ",\n  \"runs\": [";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const RunReport& r = reports[i];
    os << (i != 0 ? "," : "") << "\n    {\"engine\": \"" << json_escape(r.engine)
       << "\", \"ordering\": \"" << json_escape(r.ordering) << "\", \"ok\": "
       << (r.ok ? "true" : "false") << ", \"serial_digest\": \"" << hex_digest(r.serial_digest)
       << "\"";
    if (!r.detail.empty()) os << ", \"detail\": \"" << json_escape(r.detail) << "\"";
    os << ", \"schedules\": [";
    for (std::size_t k = 0; k < r.schedules.size(); ++k) {
      const ScheduleRun& s = r.schedules[k];
      os << (k != 0 ? "," : "") << "{\"seed\": " << s.seed << ", \"digest\": \""
         << hex_digest(s.digest) << "\", \"match\": " << (s.match ? "true" : "false")
         << ", \"races\": " << s.races << ", \"events\": " << s.events
         << ", \"tasks\": " << s.tasks << ", \"yields\": " << s.yields << "}";
    }
    os << "]";
    if (!r.races.empty()) {
      os << ", \"races\": [";
      for (std::size_t k = 0; k < r.races.size(); ++k)
        os << (k != 0 ? "," : "") << "\"" << json_escape(r.races[k]) << "\"";
      os << "]";
    }
    os << "}";
  }
  os << "\n  ]\n}\n";

  const std::string path = cli.get("json", "");
  if (path.empty()) {
    std::cout << os.str();
  } else if (!write_text_file(path, os.str())) {
    return 2;
  }
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace treesvd::race

int main(int argc, char** argv) {
  return treesvd::run_tool("treesvd_race", argc, argv, treesvd::race::main);
}

#endif  // TREESVD_ANALYSIS
