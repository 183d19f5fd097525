// treesvd_chaos — chaos acceptance harness for the fault-tolerant SPMD engine.
//
// For each seed the tool runs spmd_jacobi twice on the same matrix: once
// fault-free, and once under a hostile deterministic FaultPlan (drops,
// duplicates, corruption, delays, one rank kill) with the reliable transport
// and sweep-checkpoint recovery enabled. The contract is the repo's headline
// robustness claim: every surviving chaos run must be *bit-identical* to the
// fault-free run — same sweeps, rotation/swap counts, kernel pass counters,
// and bitwise-equal sigma/U/V. RecoveryStats for each seed are emitted as
// machine-readable JSON (stdout, or --json=PATH); the exit status is the
// contract: 0 means every seed reproduced the fault-free result, 1 means at
// least one diverged (or died, or its planned rank kill never fired, so the
// respawn and rollback went unexercised), 2 means usage error — a plan the
// world rejects included. CI archives the JSON as an artifact so
// fault/recovery counters are diffable across commits.
//
// --backend selects the transport under test: "inproc" (default) replays the
// faults against the shared-memory mailboxes, "socket" runs every rank as its
// own OS process over UNIX-domain sockets, so the same plan becomes physical —
// dropped frames are closed connections, delays are real stalls, and the rank
// kill is a SIGKILL of a live process followed by respawn + checkpoint
// rollback. The bit-identity contract is the same either way.
//
// Usage:
//   treesvd_chaos [--seeds=42,43,44] [--n=8] [--rows=16] [--ordering=new-ring]
//                 [--backend=inproc|socket] [--drop=0.12] [--dup=0.08]
//                 [--corrupt=0.06] [--delay=0.04] [--kill-rank=2]
//                 [--kill-at-op=31] [--max-retries=12] [--json=PATH]

#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "linalg/generators.hpp"
#include "svd/determinism.hpp"
#include "svd/spmd.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/text_file.hpp"

namespace treesvd::chaos {
namespace {

struct SeedReport {
  std::uint64_t seed = 0;
  bool bit_identical = false;
  /// Divergence, unfired planned kill, or exception text; empty on success.
  std::string detail;
  mp::RecoveryStats recovery;
};

int main(int argc, const char* const* argv) {
  const Cli cli(argc, argv);
  cli.require_known({"help", "seeds", "n", "rows", "ordering", "backend", "drop", "dup",
                     "corrupt", "delay", "kill-rank", "kill-at-op", "max-retries", "json"});
  if (cli.has("help")) {
    std::cout
        << "usage: treesvd_chaos [--seeds=42,43,44] [--n=8] [--rows=16]\n"
           "                     [--ordering=new-ring] [--backend=inproc|socket]\n"
           "                     [--drop=0.12] [--dup=0.08] [--corrupt=0.06]\n"
           "                     [--delay=0.04] [--kill-rank=2] [--kill-at-op=31]\n"
           "                     [--max-retries=12] [--json=PATH]\n";
    return 0;
  }

  const std::string backend = cli.get("backend", "inproc");
  if (backend != "inproc" && backend != "socket") {
    std::cerr << "treesvd_chaos: --backend must be inproc or socket, got \"" << backend
              << "\"\n";
    return 2;
  }

  const int n = static_cast<int>(cli.get_int("n", 8));
  const int rows = static_cast<int>(cli.get_int("rows", n + 8));
  const std::string ordering_name = cli.get("ordering", "new-ring");
  if (n < 4 || n % 2 != 0 || rows < n) {
    std::cerr << "treesvd_chaos: need even n >= 4 and rows >= n\n";
    return 2;
  }
  std::vector<std::uint64_t> seeds;
  for (const long long seed : cli.get_int_list("seeds", {42, 43, 44})) {
    if (seed < 0) {
      std::cerr << "treesvd_chaos: --seeds must be non-negative, got " << seed << "\n";
      return 2;
    }
    seeds.push_back(static_cast<std::uint64_t>(seed));
  }

  OrderingPtr ordering;
  try {
    ordering = make_ordering(ordering_name);
  } catch (const std::invalid_argument& e) {
    std::cerr << "treesvd_chaos: " << e.what() << "\n";
    return 2;
  }

  SpmdTransport transport;
  transport.reliable.enabled = true;
  transport.reliable.max_retries = static_cast<int>(cli.get_int("max-retries", 12));
  transport.faults.enabled = true;
  transport.faults.drop_prob = cli.get_double("drop", 0.12);
  transport.faults.duplicate_prob = cli.get_double("dup", 0.08);
  transport.faults.corrupt_prob = cli.get_double("corrupt", 0.06);
  transport.faults.delay_prob = cli.get_double("delay", 0.04);
  transport.faults.kill_rank = static_cast<int>(cli.get_int("kill-rank", 2));
  transport.faults.kill_at_op = static_cast<std::uint64_t>(cli.get_int("kill-at-op", 31));
  transport.recovery.checkpoint_sweeps = 1;
  transport.recovery.max_rollbacks = 8;
  if (backend == "socket") transport.backend = mp::Backend::kSocket;
  // A plan the engine's world would reject (one rank per column pair of
  // the padded width) is a usage error, not a failed seed.
  try {
    mp::World world(padded_width(*ordering, n) / 2);
    world.set_reliable(transport.reliable);
    world.set_fault_plan(transport.faults);
  } catch (const std::invalid_argument& e) {
    std::cerr << "treesvd_chaos: rejected fault plan: " << e.what() << "\n";
    return 2;
  }

  // Fixed matrix; the seeds vary only the fault schedule.
  Rng rng(2026);
  const Matrix a =
      random_gaussian(static_cast<std::size_t>(rows), static_cast<std::size_t>(n), rng);
  const SvdResult reference = spmd_jacobi(a, *ordering);

  std::vector<SeedReport> reports;
  bool pass = true;
  for (const std::uint64_t seed : seeds) {
    SeedReport r;
    r.seed = seed;
    transport.faults.seed = seed;
    try {
      SpmdStats stats;
      const SvdResult chaotic = spmd_jacobi(a, *ordering, {}, &stats, &transport);
      r.detail = first_divergence(chaotic, reference);
      r.bit_identical = r.detail.empty();
      r.recovery = stats.recovery;
      if (r.bit_identical) r.detail = mp::unfired_kill(transport.faults, r.recovery);
    } catch (const std::exception& e) {
      // A plan that exceeds the retry/rollback budget (or a config the
      // engine rejects) is a failed seed, not a harness crash.
      r.detail = e.what();
    }
    pass = pass && r.detail.empty();
    reports.push_back(std::move(r));
  }

  std::ostringstream os;
  os << "{\n  \"tool\": \"treesvd_chaos\",\n  \"version\": 1,\n";
  os << "  \"n\": " << n << ",\n  \"rows\": " << rows << ",\n";
  os << "  \"ordering\": \"" << ordering_name << "\",\n";
  os << "  \"backend\": {\"kind\": \"" << backend << "\"";
  if (backend == "socket")
    os << ", \"recv_deadline_ms\": " << transport.socket.recv_deadline_ms
       << ", \"heartbeat_interval_ms\": " << transport.socket.heartbeat_interval_ms
       << ", \"heartbeat_timeout_ms\": " << transport.socket.heartbeat_timeout_ms;
  os << "},\n";
  os << "  \"plan\": {\"drop\": " << transport.faults.drop_prob
     << ", \"dup\": " << transport.faults.duplicate_prob
     << ", \"corrupt\": " << transport.faults.corrupt_prob
     << ", \"delay\": " << transport.faults.delay_prob
     << ", \"kill_rank\": " << transport.faults.kill_rank
     << ", \"kill_at_op\": " << transport.faults.kill_at_op << "},\n";
  os << "  \"pass\": " << (pass ? "true" : "false") << ",\n  \"results\": [";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const SeedReport& r = reports[i];
    os << (i ? "," : "") << "\n    {\"seed\": " << r.seed
       << ", \"bit_identical\": " << (r.bit_identical ? "true" : "false");
    if (!r.detail.empty()) os << ", \"detail\": \"" << json_escape(r.detail) << "\"";
    os << ", \"recovery\": " << mp::to_json(r.recovery) << "}";
  }
  os << "\n  ]\n}\n";

  const std::string json = os.str();
  const std::string path = cli.get("json", "");
  if (path.empty()) {
    std::cout << json;
  } else {
    if (!write_text_file(path, json)) return 2;
    std::cout << (pass ? "PASS" : "FAIL") << ": " << reports.size()
              << " seeded chaos runs vs fault-free reference, report written to " << path << "\n";
  }
  if (!pass)
    for (const SeedReport& r : reports)
      if (!r.detail.empty()) std::cerr << "failed: seed " << r.seed << ": " << r.detail << "\n";
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace treesvd::chaos

int main(int argc, char** argv) {
  return treesvd::run_tool("treesvd_chaos", argc, argv, treesvd::chaos::main);
}
