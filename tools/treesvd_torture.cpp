// treesvd_torture — numerical-robustness acceptance harness.
//
// Runs every registered SVD engine against every registry ordering on the
// torture-input family (linalg/generators.hpp: graded condition numbers up
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
// it, 1 means at least one violation, 2 means usage error. Every run of an
// SvdResult engine also carries "digest", the hex result_core_digest of its
// factorization, so two reports diff bitwise as well as by quality metric.
// CI archives the JSON so both are diffable across commits.
//
// Usage:
//   treesvd_torture [--n=8] [--rows=12] [--seed=2026] [--tol=1e-10]
//                   [--max-sweeps=60] [--json=PATH]

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <functional>
#include <iomanip>
#include <limits>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "linalg/generators.hpp"
#include "network/topology.hpp"
#include "sim/distributed.hpp"
#include "svd/block_jacobi.hpp"
#include "svd/determinism.hpp"
#include "svd/jacobi.hpp"
#include "svd/kogbetliantz.hpp"
#include "svd/preconditioned.hpp"
#include "svd/spmd.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace treesvd::torture {
namespace {

/// What the harness needs to know about one engine run, whatever the
/// engine's native result type.
std::string hex_digest(std::uint64_t d) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << d;
  return os.str();
}

struct Outcome {
  std::vector<double> sigma;
  bool converged = false;
  SvdStatus status = SvdStatus::kMaxSweeps;
  SvdDiagnostics diagnostics;
  int sweeps = 0;
  /// SvdResult engines compute the heavy quality metrics for non-converged
  /// runs; KogbetliantzResult reports status/scale diagnostics only.
  bool has_quality = true;
  /// result_core_digest of an SvdResult engine's run; empty for the others.
  std::string digest;
};

Outcome from_svd(const SvdResult& r) {
  Outcome o;
  o.digest = hex_digest(result_core_digest(r));
  o.sigma = r.sigma;
  o.converged = r.converged;
  o.status = r.status;
  o.diagnostics = r.diagnostics;
  o.sweeps = r.sweeps;
  return o;
}

struct Engine {
  std::string name;
  bool square_only = false;        ///< kogbetliantz: two-sided needs m == n
  bool needs_exact_width = false;  ///< distributed: ordering.supports(n), no padding
  /// Units the ordering schedules for this engine: 1 = columns, otherwise
  /// the block width (the block driver schedules ceil(n/b) blocks).
  int unit_width = 1;
  Outcome (*run)(const Matrix&, const Ordering&, EquilibrateMode, int max_sweeps);
};

JacobiOptions jacobi_options(EquilibrateMode mode, int max_sweeps) {
  JacobiOptions opt;
  opt.equilibrate = mode;
  opt.max_sweeps = max_sweeps;
  return opt;
}

const std::vector<Engine>& engines() {
  static const std::vector<Engine> kEngines = {
      {"serial", false, false, 1,
       [](const Matrix& a, const Ordering& ord, EquilibrateMode mode, int sweeps) {
         return from_svd(one_sided_jacobi(a, ord, jacobi_options(mode, sweeps)));
       }},
      {"threaded", false, false, 1,
       [](const Matrix& a, const Ordering& ord, EquilibrateMode mode, int sweeps) {
         return from_svd(one_sided_jacobi_threaded(a, ord, jacobi_options(mode, sweeps)));
       }},
      {"cyclic", false, false, 1,
       [](const Matrix& a, const Ordering&, EquilibrateMode mode, int sweeps) {
         return from_svd(cyclic_jacobi(a, jacobi_options(mode, sweeps)));
       }},
      {"block-gram", false, false, 2,
       [](const Matrix& a, const Ordering& ord, EquilibrateMode mode, int sweeps) {
         BlockJacobiOptions opt;
         opt.block_width = 2;
         opt.equilibrate = mode;
         opt.max_outer_sweeps = sweeps;
         return from_svd(block_one_sided_jacobi(a, ord, opt));
       }},
      {"preconditioned", false, false, 1,
       [](const Matrix& a, const Ordering& ord, EquilibrateMode mode, int sweeps) {
         return from_svd(qr_preconditioned_jacobi(a, ord, jacobi_options(mode, sweeps)));
       }},
      {"spmd", false, false, 1,
       [](const Matrix& a, const Ordering& ord, EquilibrateMode mode, int sweeps) {
         return from_svd(spmd_jacobi(a, ord, jacobi_options(mode, sweeps)));
       }},
      {"distributed", false, true, 1,
       [](const Matrix& a, const Ordering& ord, EquilibrateMode mode, int sweeps) {
         const FatTreeTopology topo(static_cast<int>(a.cols()) / 2, CapacityProfile::kPerfect);
         return from_svd(distributed_jacobi(a, ord, topo, jacobi_options(mode, sweeps)).svd);
       }},
      {"kogbetliantz", true, false, 1,
       [](const Matrix& a, const Ordering& ord, EquilibrateMode mode, int sweeps) {
         KogbetliantzOptions opt;
         opt.equilibrate = mode;
         opt.max_sweeps = sweeps;
         const KogbetliantzResult r = kogbetliantz_svd(a, ord, opt);
         Outcome o;
         o.sigma = r.sigma;
         o.converged = r.converged;
         o.status = r.status;
         o.diagnostics = r.diagnostics;
         o.sweeps = r.sweeps;
         o.has_quality = false;
         return o;
       }},
  };
  return kEngines;
}

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
  std::string digest;             ///< Outcome::digest; empty = none
};

int main(int argc, const char* const* argv) {
  const Cli cli(argc, argv);
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

  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 2026)));
  const auto cases =
      torture_suite(static_cast<std::size_t>(rows), static_cast<std::size_t>(n), rng);
  // A second, square family for the two-sided engine (skipping any case the
  // construction leaves non-square).
  Rng rng_sq(static_cast<std::uint64_t>(cli.get_int("seed", 2026)));
  const auto square_cases =
      torture_suite(static_cast<std::size_t>(n), static_cast<std::size_t>(n), rng_sq);

  std::vector<RunReport> reports;
  bool pass = true;
  for (const Engine& eng : engines()) {
    const auto& suite = eng.square_only ? square_cases : cases;
    for (const std::string& oname : ordering_names()) {
      if (eng.name == "cyclic" && oname != "round-robin") continue;  // ordering-free
      const OrderingPtr ordering = make_ordering(oname);
      if (eng.needs_exact_width && !ordering->supports(n)) continue;
      // The drivers' padding search over the engine's work units.
      if (padded_width(*ordering, (n + eng.unit_width - 1) / eng.unit_width) == 0) continue;
      for (const TortureCase& tc : suite) {
        if (eng.square_only && tc.a.rows() != tc.a.cols()) continue;
        RunReport rep;
        rep.kase = tc.name;
        rep.engine = eng.name;
        rep.ordering = oname;
        try {
          const Outcome o = eng.run(tc.a, *ordering, EquilibrateMode::kAuto, max_sweeps);
          rep.status = to_string(o.status);
          rep.converged = o.converged;
          rep.sweeps = o.sweeps;
          rep.scaled_residual = o.diagnostics.scaled_residual;
          rep.equilibrated = o.diagnostics.equilibrated;
          rep.digest = o.digest;
          for (const double s : o.sigma)
            if (!std::isfinite(s)) rep.detail = "non-finite sigma";
          if (rep.detail.empty() && o.converged && o.status != SvdStatus::kConverged)
            rep.detail = "converged run not classified kConverged";
          if (rep.detail.empty() && !o.converged && o.status == SvdStatus::kConverged)
            rep.detail = "non-converged run classified kConverged";
          if (rep.detail.empty() && !o.converged && o.has_quality &&
              o.diagnostics.scaled_residual < 0.0)
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
            const Outcome off = eng.run(tc.a, *ordering, EquilibrateMode::kOff, max_sweeps);
            const Outcome always = eng.run(tc.a, *ordering, EquilibrateMode::kAlways, max_sweeps);
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
    std::ofstream f(path);
    if (!f) {
      std::cerr << "treesvd_torture: cannot write " << path << "\n";
      return 2;
    }
    f << json;
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
