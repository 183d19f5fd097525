// treesvd_launch — multi-process rank launcher and socket-backend acceptance
// gate.
//
// For every registered ordering and every requested problem width the tool
// runs spmd_jacobi twice on the same matrix: once on the default in-process
// backend (ranks as threads, the bitwise reference) and once with
// SpmdTransport::backend == mp::Backend::kSocket, where every rank is its own
// OS process speaking length-prefixed frames over UNIX-domain sockets. The
// contract is the transport-independence claim of DESIGN.md §15: sigma, U, V,
// every progress counter, and both determinism digests must be *bit-identical*
// across backends. With --chaos each socket case additionally replays a
// hostile fault plan (drops, duplicates, corruption, delays, one SIGKILLed
// rank process with respawn + checkpoint rollback) and must still reproduce
// the reference bit-for-bit, with its planned kill fired and rolled back.
//
// Exit status is the contract: 0 when every case is bit-identical, 1 when any
// diverged (or died, or its planned kill never fired), 2 on usage error. The
// JSON report (stdout, or --json=PATH) carries per-case digests and the
// socket run's RecoveryStats so CI can archive and diff them across commits.
//
// Usage:
//   treesvd_launch [--sizes=8,16] [--ordering=NAME] [--rows-extra=8]
//                  [--chaos] [--seed=42] [--json=PATH]

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <limits>
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

namespace treesvd::launch {
namespace {

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

struct CaseReport {
  std::string ordering;
  int n = 0;
  bool bit_identical = false;
  /// Divergence, unfired planned kill, or exception text; empty on success.
  std::string detail;
  std::uint64_t core_digest = 0;
  std::uint64_t full_digest = 0;
  mp::RecoveryStats recovery;  ///< from the socket run
};

int main(int argc, const char* const* argv) {
  const Cli cli(argc, argv);
  cli.require_known({"help", "sizes", "ordering", "rows-extra", "chaos", "seed", "json"});
  if (cli.has("help")) {
    std::cout << "usage: treesvd_launch [--sizes=8,16] [--ordering=NAME] [--rows-extra=8]\n"
                 "                      [--chaos] [--seed=42] [--json=PATH]\n"
                 "Runs spmd_jacobi over rank processes (UNIX-socket backend) and gates\n"
                 "bitwise identity with the in-process backend; --chaos adds physical\n"
                 "faults including a SIGKILLed rank with respawn + rollback.\n";
    return 0;
  }

  const int rows_extra = static_cast<int>(cli.get_int("rows-extra", 8));
  const bool chaos = cli.has("chaos");
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  if (rows_extra < 0) {
    std::cerr << "treesvd_launch: need --rows-extra >= 0\n";
    return 2;
  }
  std::vector<int> sizes;
  for (const long long n : cli.get_int_list("sizes", {8, 16})) {
    if (n < 4 || n % 2 != 0 || n > std::numeric_limits<int>::max()) {
      std::cerr << "treesvd_launch: --sizes must be even numbers in [4, INT_MAX], got " << n
                << "\n";
      return 2;
    }
    sizes.push_back(static_cast<int>(n));
  }

  std::vector<std::string> names;
  if (cli.has("ordering")) {
    names.push_back(cli.get("ordering", ""));
  } else {
    names = ordering_names();
  }

  std::vector<CaseReport> reports;
  bool pass = true;
  for (const std::string& name : names) {
    OrderingPtr ordering;
    try {
      ordering = make_ordering(name);
    } catch (const std::invalid_argument& e) {
      std::cerr << "treesvd_launch: " << e.what() << "\n";
      return 2;
    }
    for (const int n : sizes) {
      CaseReport r;
      r.ordering = name;
      r.n = n;
      // Fixed per-(ordering, n) matrix so the reference and the socket run
      // factor the same input; the engine pads n to a supported width itself.
      Rng rng(2026 + static_cast<std::uint64_t>(n));
      const Matrix a = random_gaussian(static_cast<std::size_t>(n + rows_extra),
                                      static_cast<std::size_t>(n), rng);
      try {
        const SvdResult reference = spmd_jacobi(a, *ordering);

        SpmdTransport transport;
        transport.backend = mp::Backend::kSocket;
        if (chaos) {
          transport.reliable.enabled = true;
          transport.reliable.max_retries = 12;
          transport.faults.enabled = true;
          transport.faults.seed = seed;
          transport.faults.drop_prob = 0.08;
          transport.faults.duplicate_prob = 0.05;
          transport.faults.corrupt_prob = 0.05;
          transport.faults.delay_prob = 0.02;
          transport.faults.kill_rank = 1;
          transport.faults.kill_at_op = 17;
        }
        transport.recovery.checkpoint_sweeps = 1;
        transport.recovery.max_rollbacks = 8;

        SpmdStats stats;
        const SvdResult over_sockets = spmd_jacobi(a, *ordering, {}, &stats, &transport);
        r.detail = first_divergence(over_sockets, reference);
        r.bit_identical = r.detail.empty();
        r.core_digest = result_core_digest(over_sockets);
        r.full_digest = result_digest(over_sockets);
        r.recovery = stats.recovery;
        if (r.bit_identical) r.detail = mp::unfired_kill(transport.faults, r.recovery);
      } catch (const std::exception& e) {
        // A rank-process death the recovery budget cannot absorb (or a config
        // the engine rejects) is a failed case, not a harness crash.
        r.detail = e.what();
      }
      pass = pass && r.detail.empty();
      reports.push_back(std::move(r));
    }
  }

  std::ostringstream os;
  os << "{\n  \"tool\": \"treesvd_launch\",\n  \"version\": 1,\n";
  os << "  \"backend\": \"socket\",\n  \"chaos\": " << (chaos ? "true" : "false") << ",\n";
  os << "  \"sizes\": [";
  for (std::size_t i = 0; i < sizes.size(); ++i) os << (i ? ", " : "") << sizes[i];
  os << "],\n  \"pass\": " << (pass ? "true" : "false") << ",\n  \"cases\": [";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const CaseReport& r = reports[i];
    os << (i ? "," : "") << "\n    {\"ordering\": \"" << json_escape(r.ordering)
       << "\", \"n\": " << r.n
       << ", \"bit_identical\": " << (r.bit_identical ? "true" : "false");
    if (!r.detail.empty()) os << ", \"detail\": \"" << json_escape(r.detail) << "\"";
    if (r.bit_identical)
      os << ", \"core_digest\": \"" << hex64(r.core_digest) << "\", \"full_digest\": \""
         << hex64(r.full_digest) << "\"";
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
              << " socket-backend runs vs in-process reference, report written to " << path
              << "\n";
  }
  if (!pass)
    for (const CaseReport& r : reports)
      if (!r.detail.empty())
        std::cerr << "failed: " << r.ordering << " n=" << r.n << ": " << r.detail << "\n";
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace treesvd::launch

int main(int argc, char** argv) {
  return treesvd::run_tool("treesvd_launch", argc, argv, treesvd::launch::main);
}
