// treesvd_torture — numerical-robustness acceptance harness.
//
// Runs every engine of the engine table (engines.hpp) against every registry
// ordering on the torture-input family (linalg/generators.hpp: graded condition numbers up
// to 1e12, entry magnitudes near 1e+-150, denormal-laced perturbations,
// exact zero and duplicate columns, Hilbert). The contract, per run:
//
//  * the engine must not throw and every reported sigma must be finite;
//  * a converged run reports SvdStatus::kConverged; a non-converged run
//    reports a diagnosed status (kMaxSweeps / kStalled) together with a
//    best-effort factorization and populated quality diagnostics;
//  * on cases with known construction sigma, the scaled error
//    max_k |sigma_k - ref_k| / ref_max must be <= --tol (default 1e-10);
//  * on the well-scaled case, a forced-equilibration run (kAlways) must
//    reproduce the unequilibrated (kOff) run bit-for-bit: same sigma bits
//    and the same sweep count — the scaling is exact powers of two.
//
// The per-run results are emitted as machine-readable JSON (stdout, or
// --json=PATH); the exit status is the contract: 0 means every run honoured
// it, 1 means at least one violation, 2 means usage error. Every run also
// carries "digest", the hex result_core_digest of its factorization, so two
// reports diff bitwise as well as by quality metric.
// CI archives the JSON so both are diffable across commits.
//
// Usage:
//   treesvd_torture [--n=8] [--rows=12] [--seed=2026] [--tol=1e-10]
//                   [--max-sweeps=60] [--json=PATH]

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "engines.hpp"
#include "linalg/generators.hpp"
#include "svd/determinism.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/text_file.hpp"

namespace treesvd::torture {
namespace {

/// max_k |sigma_k - ref_k| / ref_max over descending-sorted copies; ref must
/// be non-empty with ref_max > 0.
double scaled_sigma_error(std::vector<double> got, std::vector<double> ref) {
  std::sort(got.begin(), got.end(), std::greater<>());
  std::sort(ref.begin(), ref.end(), std::greater<>());
  if (got.size() != ref.size()) return std::numeric_limits<double>::infinity();
  const double smax = ref.front();
  double err = 0.0;
  for (std::size_t k = 0; k < ref.size(); ++k)
    err = std::max(err, std::fabs(got[k] - ref[k]) / smax);
  return err;
}

struct RunReport {
  std::string kase;
  std::string engine;
  std::string ordering;
  bool ok = false;
  std::string detail;  ///< first violation or exception text; empty on success
  std::string status;
  bool converged = false;
  int sweeps = 0;
  double sigma_error = -1.0;      ///< scaled error vs known sigma; -1 = unknown sigma
  double scaled_residual = -1.0;  ///< from diagnostics when computed
  bool equilibrated = false;
  std::string digest;             ///< hex result_core_digest; empty when the run threw
};

int main(int argc, const char* const* argv) {
  const Cli cli(argc, argv);
  cli.require_known({"help", "n", "rows", "seed", "tol", "max-sweeps", "json"});
  if (cli.has("help")) {
    std::cout << "usage: treesvd_torture [--n=8] [--rows=12] [--seed=2026] [--tol=1e-10]\n"
                 "                       [--max-sweeps=60] [--json=PATH]\n";
    return 0;
  }

  const int n = static_cast<int>(cli.get_int("n", 8));
  const int rows = static_cast<int>(cli.get_int("rows", n + 4));
  const double tol = cli.get_double("tol", 1e-10);
  const int max_sweeps = static_cast<int>(cli.get_int("max-sweeps", 60));
  if (n < 4 || n % 2 != 0 || rows < n) {
    std::cerr << "treesvd_torture: need even n >= 4 and rows >= n\n";
    return 2;
  }

  Rng rng(cli.get_count("seed", 2026));
  const auto cases =
      torture_suite(static_cast<std::size_t>(rows), static_cast<std::size_t>(n), rng);
  // A second, square family for the two-sided engine (skipping any case the
  // construction leaves non-square).
  Rng rng_sq(cli.get_count("seed", 2026));
  const auto square_cases =
      torture_suite(static_cast<std::size_t>(n), static_cast<std::size_t>(n), rng_sq);

  // Engine options for an equilibration mode; the rest stay at their defaults.
  const auto options = [&](EquilibrateMode mode) {
    JacobiOptions opt;
    opt.equilibrate = mode;
    opt.max_sweeps = max_sweeps;
    return opt;
  };

  std::vector<RunReport> reports;
  bool pass = true;
  for (const EngineEntry& eng : kEngines) {
    const auto& suite = eng.square_only ? square_cases : cases;
    for (const std::string& oname : ordering_names()) {
      const OrderingPtr ordering = make_ordering(oname);
      // The drivers' padding search over the engine's work units.
      if (padded_width(*ordering, (n + eng.unit_width - 1) / eng.unit_width) == 0) continue;
      for (const TortureCase& tc : suite) {
        if (eng.square_only && tc.a.rows() != tc.a.cols()) continue;
        RunReport rep;
        rep.kase = tc.name;
        rep.engine = eng.name;
        rep.ordering = oname;
        try {
          const SvdResult o = eng.solve(tc.a, *ordering, options(EquilibrateMode::kAuto), 0);
          rep.status = to_string(o.status);
          rep.converged = o.converged;
          rep.sweeps = o.sweeps;
          rep.scaled_residual = o.diagnostics.scaled_residual;
          rep.equilibrated = o.diagnostics.equilibrated;
          rep.digest = hex_digest(result_core_digest(o));
          for (const double s : o.sigma)
            if (!std::isfinite(s)) rep.detail = "non-finite sigma";
          if (rep.detail.empty() && o.converged && o.status != SvdStatus::kConverged)
            rep.detail = "converged run not classified kConverged";
          if (rep.detail.empty() && !o.converged && o.status == SvdStatus::kConverged)
            rep.detail = "non-converged run classified kConverged";
          if (rep.detail.empty() && !o.converged && o.diagnostics.scaled_residual < 0.0)
            rep.detail = "non-converged run missing quality diagnostics";
          if (rep.detail.empty() && !tc.sigma.empty()) {
            rep.sigma_error = scaled_sigma_error(o.sigma, tc.sigma);
            if (!(rep.sigma_error <= tol))
              rep.detail = "sigma error " + std::to_string(rep.sigma_error) +
                           " exceeds tol on known-sigma case";
          }
          // Bitwise equilibration transparency, checked once per engine x
          // ordering on the well-scaled case.
          if (rep.detail.empty() && tc.name == "well-scaled") {
            const SvdResult off = eng.solve(tc.a, *ordering, options(EquilibrateMode::kOff), 0);
            const SvdResult always =
                eng.solve(tc.a, *ordering, options(EquilibrateMode::kAlways), 0);
            if (off.sweeps != always.sweeps)
              rep.detail = "equilibrated sweep count differs from unequilibrated";
            for (std::size_t k = 0; rep.detail.empty() && k < off.sigma.size(); ++k)
              if (off.sigma[k] != always.sigma[k])
                rep.detail = "equilibrated sigma[" + std::to_string(k) + "] differs bitwise";
          }
        } catch (const std::exception& e) {
          rep.detail = std::string("exception: ") + e.what();
        }
        rep.ok = rep.detail.empty();
        pass = pass && rep.ok;
        reports.push_back(std::move(rep));
      }
    }
  }

  std::ostringstream os;
  os << "{\n  \"tool\": \"treesvd_torture\",\n  \"version\": 1,\n";
  os << "  \"n\": " << n << ",\n  \"rows\": " << rows << ",\n  \"tol\": " << tol << ",\n";
  os << "  \"pass\": " << (pass ? "true" : "false") << ",\n  \"runs\": [";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const RunReport& r = reports[i];
    os << (i ? "," : "") << "\n    {\"case\": \"" << json_escape(r.kase) << "\", \"engine\": \""
       << json_escape(r.engine) << "\", \"ordering\": \"" << json_escape(r.ordering)
       << "\", \"ok\": " << (r.ok ? "true" : "false") << ", \"status\": \"" << r.status
       << "\", \"converged\": " << (r.converged ? "true" : "false")
       << ", \"sweeps\": " << r.sweeps << ", \"equilibrated\": "
       << (r.equilibrated ? "true" : "false");
    if (r.sigma_error >= 0.0) os << ", \"sigma_error\": " << r.sigma_error;
    if (r.scaled_residual >= 0.0) os << ", \"scaled_residual\": " << r.scaled_residual;
    if (!r.digest.empty()) os << ", \"digest\": \"" << r.digest << "\"";
    if (!r.detail.empty()) os << ", \"detail\": \"" << json_escape(r.detail) << "\"";
    os << "}";
  }
  os << "\n  ]\n}\n";

  const std::string json = os.str();
  const std::string path = cli.get("json", "");
  if (path.empty()) {
    std::cout << json;
  } else {
    if (!write_text_file(path, json)) return 2;
    std::cout << (pass ? "PASS" : "FAIL") << ": " << reports.size()
              << " engine x ordering x case torture runs, report written to " << path << "\n";
  }
  if (!pass)
    for (const RunReport& r : reports)
      if (!r.ok)
        std::cerr << "violation: " << r.engine << " x " << r.ordering << " on " << r.kase << ": "
                  << r.detail << "\n";
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace treesvd::torture

int main(int argc, char** argv) {
  return treesvd::run_tool("treesvd_torture", argc, argv, treesvd::torture::main);
}
