// treesvd_chaos — the spmd gate: spmd_jacobi under a transport configuration
// against the fault-free in-process run, bit for bit.
//
// For every ordering x size the tool factors one fixed matrix twice: once
// fault-free on the in-process backend (ranks as threads, the reference),
// and once on the backend under test. "inproc" (default) is the
// shared-memory mailboxes; "socket" runs every rank as its own OS process
// over UNIX-domain sockets. Without --chaos the second run has no fault
// plan, and over sockets it checks the transport-independence claim of
// DESIGN.md section 15. With --chaos it runs the kill plan: one rank dies at
// a chosen transport op (over sockets, a SIGKILL of a live process), and the
// world respawns and rolls back to its last sweep checkpoint. Sweep
// checkpoints are on either way.
//
// The contract: sigma, U, V, every progress counter and both determinism
// digests equal the reference's, and every planned rank kill fired and rolled
// back. The exit status is 0 when every case holds it, 1 when any diverged,
// died or left its planned kill unfired, and 2 on a usage error, a plan the
// world rejects included. The JSON report (stdout, or --json=PATH) carries
// per-case digests and RecoveryStats; CI archives it so the counters diff
// across commits.
//
// Usage:
//   treesvd_chaos [--ordering=a,b,...] [--sizes=8,16] [--rows-extra=8]
//                 [--backend=inproc|socket] [--chaos] [--kill-rank=2]
//                 [--kill-at-op=31] [--json=PATH]

#include <cstdint>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "engines.hpp"
#include "linalg/generators.hpp"
#include "svd/determinism.hpp"
#include "svd/spmd.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/text_file.hpp"

namespace treesvd::chaos {
namespace {

struct CaseReport {
  std::string ordering;
  int n = 0;
  bool bit_identical = false;
  /// Divergence, unfired planned kill, or exception text; empty on success.
  std::string detail;
  std::uint64_t core_digest = 0;
  std::uint64_t full_digest = 0;
  mp::RecoveryStats recovery;
};

int main(int argc, const char* const* argv) {
  const Cli cli(argc, argv);
  cli.require_known({"help", "ordering", "sizes", "rows-extra", "backend", "chaos", "kill-rank",
                     "kill-at-op", "json"});
  if (cli.has("help")) {
    std::cout
        << "usage: treesvd_chaos [--ordering=a,b,...] [--sizes=8,16] [--rows-extra=8]\n"
           "                     [--backend=inproc|socket] [--chaos] [--kill-rank=2]\n"
           "                     [--kill-at-op=31] [--json=PATH]\n"
           "Runs spmd_jacobi on the chosen backend, with --chaos under a rank-kill\n"
           "plan, and gates bitwise identity with the fault-free in-process run.\n";
    return 0;
  }

  const std::string backend = cli.get("backend", "inproc");
  if (backend != "inproc" && backend != "socket")
    throw CliError("--backend must be inproc or socket, got: " + backend);
  const bool chaos = cli.has("chaos");
  if (!chaos)
    for (const char* flag : {"kill-rank", "kill-at-op"})
      if (cli.has(flag)) throw CliError(std::string("--") + flag + " applies only with --chaos");

  const long long rows_extra = cli.get_int("rows-extra", 8);
  if (rows_extra < 0) throw CliError("--rows-extra must be >= 0");
  std::vector<int> sizes;
  for (const long long n : cli.get_int_list("sizes", {8, 16})) {
    if (n < 4 || n % 2 != 0 || n > std::numeric_limits<int>::max())
      throw CliError("--sizes must be even numbers in [4, INT_MAX], got " + std::to_string(n));
    sizes.push_back(static_cast<int>(n));
  }

  SpmdTransport transport;
  if (backend == "socket") transport.backend = mp::Backend::kSocket;
  if (chaos) {
    const long long kill_rank = cli.get_int("kill-rank", 2);
    if (kill_rank < -1 || kill_rank > std::numeric_limits<int>::max())
      throw CliError("--kill-rank must be -1 (no kill) or a rank in [0, INT_MAX], got " +
                     std::to_string(kill_rank));
    transport.faults.kill_rank = static_cast<int>(kill_rank);
    transport.faults.kill_at_op = cli.get_count("kill-at-op", 31);
  }

  std::vector<std::pair<std::string, OrderingPtr>> orderings;
  for (const std::string& name : cli.get_list("ordering", ordering_names()))
    orderings.emplace_back(name, make_ordering(name));
  // A plan the engine's world would reject (one rank per column pair of the
  // padded width) fails before the first case runs.
  if (chaos)
    for (const auto& [name, ordering] : orderings)
      for (const int n : sizes) {
        mp::World world(padded_width(*ordering, n) / 2);
        world.set_fault_plan(transport.faults);
      }

  std::vector<CaseReport> reports;
  bool pass = true;
  for (const auto& [name, ordering] : orderings) {
    for (const int n : sizes) {
      // Fixed per-size matrix.
      Rng rng(2026 + static_cast<std::uint64_t>(n));
      const Matrix a = random_gaussian(static_cast<std::size_t>(n + rows_extra),
                                       static_cast<std::size_t>(n), rng);
      CaseReport r;
      r.ordering = name;
      r.n = n;
      try {
        const SvdResult reference = spmd_jacobi(a, *ordering);
        SpmdStats stats;
        const SvdResult got = spmd_jacobi(a, *ordering, {}, &stats, &transport);
        r.detail = first_divergence(got, reference);
        r.bit_identical = r.detail.empty();
        r.core_digest = result_core_digest(got);
        r.full_digest = result_digest(got);
        r.recovery = stats.recovery;
        if (r.bit_identical) r.detail = mp::unfired_kill(transport.faults, r.recovery);
      } catch (const std::exception& e) {
        // A death the rollback budget cannot absorb (or a config the engine
        // rejects) is a failed case, not a harness crash.
        r.detail = e.what();
      }
      pass = pass && r.detail.empty();
      reports.push_back(std::move(r));
    }
  }

  std::ostringstream os;
  os << "{\n  \"tool\": \"treesvd_chaos\",\n  \"version\": 3,\n";
  os << "  \"backend\": {\"kind\": \"" << backend << "\"";
  if (backend == "socket")
    os << ", \"heartbeat_interval_ms\": " << transport.socket.heartbeat_interval_ms
       << ", \"heartbeat_timeout_ms\": " << transport.socket.heartbeat_timeout_ms;
  os << "},\n  \"rows_extra\": " << rows_extra << ",\n  \"sizes\": [";
  for (std::size_t i = 0; i < sizes.size(); ++i) os << (i ? ", " : "") << sizes[i];
  os << "],\n  \"plan\": ";
  if (chaos)
    os << "{\"kill_rank\": " << transport.faults.kill_rank
       << ", \"kill_at_op\": " << transport.faults.kill_at_op << "}";
  else
    os << "null";
  os << ",\n  \"pass\": " << (pass ? "true" : "false") << ",\n  \"cases\": [";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const CaseReport& r = reports[i];
    os << (i ? "," : "") << "\n    {\"ordering\": \"" << json_escape(r.ordering)
       << "\", \"n\": " << r.n;
    os << ", \"bit_identical\": " << (r.bit_identical ? "true" : "false");
    if (!r.detail.empty()) os << ", \"detail\": \"" << json_escape(r.detail) << "\"";
    if (r.bit_identical)
      os << ", \"core_digest\": \"" << hex_digest(r.core_digest) << "\", \"full_digest\": \""
         << hex_digest(r.full_digest) << "\"";
    os << ", \"recovery\": " << mp::to_json(r.recovery) << "}";
  }
  os << "\n  ]\n}\n";

  const std::string json = os.str();
  const std::string path = cli.get("json", "");
  if (path.empty()) {
    std::cout << json;
  } else {
    if (!write_text_file(path, json)) return 2;
    std::cout << (pass ? "PASS" : "FAIL") << ": " << reports.size() << " " << backend
              << " spmd runs vs the fault-free in-process reference, report written to " << path
              << "\n";
  }
  if (!pass)
    for (const CaseReport& r : reports)
      if (!r.detail.empty())
        std::cerr << "failed: " << r.ordering << " n=" << r.n << ": " << r.detail << "\n";
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace treesvd::chaos

int main(int argc, char** argv) {
  return treesvd::run_tool("treesvd_chaos", argc, argv, treesvd::chaos::main);
}
