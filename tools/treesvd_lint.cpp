// treesvd_lint — offline linter for parallel Jacobi orderings.
//
// Enumerates every ordering in the registry across a range of n and checks
// the paper's invariants (core/validate.hpp) ahead of any runtime use:
//   pair-coverage        every unordered index pair rotated exactly once
//   step-disjoint        within each step the active pairs are pairwise
//                        disjoint (no index rotated by two leaves at once —
//                        the static form of a data race on a column)
//   sequence-validity    4 consecutive sweeps chained through final layouts
//   steps-contract       Sweep::steps() matches Ordering::steps(n)
//   rotation-count       n(n-1)/2 active rotations per sweep
//   move-consistency     declared ColumnMoves reproduce the layout sequence
//   restoration          index order restored after at most two sweeps
//   comm-levels          level histogram bounded by the tree height and
//                        consistent with the per-index move accounting
//   one-way-ring         new-ring traffic moves one hop in one direction
//   rr-equivalence       ring orderings are round-robin under relabelling
//
// Output is machine-readable JSON (stdout, or --json=PATH); the exit status
// is the contract: 0 means every check passed, 1 means at least one
// violation, 2 means usage error. --corrupt=<kind> wraps each ordering in a
// deliberately broken adapter (the linter must then exit 1), and --self-test
// runs both directions in-process.
//
// Usage:
//   treesvd_lint [--min-n=4] [--max-n=64] [--orderings=a,b,...]
//                [--sweeps=4] [--json=PATH] [--corrupt=KIND] [--self-test]
//   KIND: duplicate-pair | no-restore | reversed-traffic | overlapping-pair

#include <algorithm>
#include <iostream>
#include <iterator>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/ordering.hpp"
#include "core/registry.hpp"
#include "core/round_robin.hpp"
#include "core/validate.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/text_file.hpp"

namespace treesvd::lint {
namespace {

// ---------------------------------------------------------------------------
// Corruption adapters: orderings broken in exactly the ways the linter must
// detect. Used by --corrupt and the self-test.

enum class Corruption {
  kNone,
  kDuplicatePair,
  kNoRestore,
  kReversedTraffic,
  kOverlappingPair
};

std::optional<Corruption> parse_corruption(const std::string& kind) {
  if (kind.empty()) return Corruption::kNone;
  if (kind == "duplicate-pair") return Corruption::kDuplicatePair;
  if (kind == "no-restore") return Corruption::kNoRestore;
  if (kind == "reversed-traffic") return Corruption::kReversedTraffic;
  if (kind == "overlapping-pair") return Corruption::kOverlappingPair;
  return std::nullopt;
}

/// Wraps an ordering and tampers with its canonical layout sequence.
class CorruptedOrdering final : public Ordering {
 public:
  CorruptedOrdering(OrderingPtr inner, Corruption kind)
      : inner_(std::move(inner)), kind_(kind) {}

  std::string name() const override { return inner_->name() + "+corrupt"; }
  bool supports(int n) const override { return inner_->supports(n); }
  int steps(int n) const override { return inner_->steps(n); }

 protected:
  Canonical canonical(int n, int sweep_index) const override {
    Canonical c = detail_canonical(*inner_, n, sweep_index);
    switch (kind_) {
      case Corruption::kNone:
        break;
      case Corruption::kDuplicatePair: {
        // Swapping two occupants of one mid-sweep layout repeats one pair and
        // omits another — breaks pair coverage without touching the shape.
        if (c.layouts.size() > 2 && n >= 4) {
          auto& mid = c.layouts[c.layouts.size() / 2];
          std::swap(mid[0], mid[2]);
        }
        break;
      }
      case Corruption::kNoRestore: {
        // Tampering with the final layout leaves the sweep itself valid but
        // derails the sweep chain: restoration and sequence validity fail.
        auto& fin = c.layouts.back();
        std::swap(fin.front(), fin.back());
        break;
      }
      case Corruption::kReversedTraffic: {
        // Rotating one intermediate layout the wrong way around the ring
        // sends columns clockwise — the one-way-traffic property breaks.
        if (c.layouts.size() > 2) {
          auto& mid = c.layouts[c.layouts.size() / 2];
          std::rotate(mid.begin(), mid.begin() + 2, mid.end());
        }
        break;
      }
      case Corruption::kOverlappingPair: {
        // Duplicating one occupant into another leaf's slot makes two leaves
        // rotate the same column in the same step. The layout stops being a
        // permutation, so Sweep's constructor rejects it and the linter
        // records the throw as a no-exception violation; the disjointness
        // checker itself is probed on raw StepPairs views in the self-test.
        if (c.layouts.size() > 2 && n >= 4) {
          auto& mid = c.layouts[c.layouts.size() / 2];
          mid[2] = mid[0];
        }
        break;
      }
    }
    return c;
  }

 private:
  // Ordering::canonical is protected; a sibling class may access it through a
  // helper of its own type.
  struct Access : Ordering {
    using Ordering::canonical;
  };
  static Canonical detail_canonical(const Ordering& o, int n, int sweep_index) {
    return (o.*(&Access::canonical))(n, sweep_index);
  }

  OrderingPtr inner_;
  Corruption kind_;
};

// ---------------------------------------------------------------------------
// Checks. Each returns an empty string on success, a diagnostic on failure.

struct CheckResult {
  std::string name;
  bool pass = false;
  std::string detail;  ///< diagnostic on failure, empty on success
};

std::string check_pair_coverage(const Sweep& s) {
  const SweepValidation v = validate_sweep(s);
  return v.valid ? std::string{} : v.error;
}

/// Disjointness of one step's concurrent pairs, on the raw StepPairs view.
/// Factored out of check_step_disjointness so the self-test can exercise the
/// checker on a hand-built overlapping view: a full Sweep cannot carry the
/// violation, because its constructor already rejects non-permutation
/// layouts (the corruption adapter's overlapping-pair tamper throws there).
std::string check_pairs_disjoint(const StepPairs& pairs, int n, int t) {
  std::vector<int> uses(static_cast<std::size_t>(n), 0);
  for (int leaf = 0; leaf < pairs.leaves(); ++leaf) {
    if (!pairs.active_at(leaf)) continue;
    const IndexPair p = pairs.at(leaf);
    if (p.even == p.odd)
      return "step " + std::to_string(t) + ": leaf " + std::to_string(leaf) + " pairs index " +
             std::to_string(p.even) + " with itself";
    for (const int idx : {p.even, p.odd}) {
      if (idx < 0 || idx >= n)
        return "step " + std::to_string(t) + ": leaf " + std::to_string(leaf) +
               " rotates out-of-range index " + std::to_string(idx);
      if (++uses[static_cast<std::size_t>(idx)] > 1)
        return "step " + std::to_string(t) + ": index " + std::to_string(idx) +
               " appears in more than one concurrent pair";
    }
  }
  return {};
}

std::string check_step_disjointness(const Sweep& s, int n) {
  // A step's active pairs execute concurrently (one rotation per leaf); if
  // any column index appeared in two pairs — or twice within one pair — two
  // processors would read and write the same column in the same step. This
  // is the schedule-level statement of data-race freedom: the dynamic
  // detector (treesvd_race) can then trust that same-step rotations touch
  // disjoint columns.
  for (int t = 0; t < s.steps(); ++t) {
    std::string detail = check_pairs_disjoint(s.step_pairs(t), n, t);
    if (!detail.empty()) return detail;
  }
  return {};
}

std::string check_sequence(const Ordering& ord, int n, int sweeps) {
  const SweepValidation v = validate_sweep_sequence(ord, n, sweeps);
  return v.valid ? std::string{} : v.error;
}

std::string check_steps_contract(const Ordering& ord, const Sweep& s, int n) {
  if (s.steps() == ord.steps(n)) return {};
  return "sweep has " + std::to_string(s.steps()) + " steps, contract says " +
         std::to_string(ord.steps(n));
}

std::string check_rotation_count(const Sweep& s, int n) {
  const auto want = static_cast<std::size_t>(n) * static_cast<std::size_t>(n - 1) / 2;
  if (s.rotation_count() == want) return {};
  return "rotation count " + std::to_string(s.rotation_count()) + ", expected " +
         std::to_string(want);
}

std::string check_move_consistency(const Sweep& s) {
  for (int t = 0; t < s.steps(); ++t) {
    const auto from = s.layout(t);
    const auto to = s.layout(t + 1);
    std::vector<int> applied(from.begin(), from.end());
    for (const ColumnMove& mv : s.moves(t)) {
      if (from[static_cast<std::size_t>(mv.from_slot)] != mv.index)
        return "step " + std::to_string(t) + ": move of index " + std::to_string(mv.index) +
               " does not originate from slot " + std::to_string(mv.from_slot);
      applied[static_cast<std::size_t>(mv.to_slot)] = mv.index;
    }
    if (!std::equal(applied.begin(), applied.end(), to.begin(), to.end()))
      return "step " + std::to_string(t) + ": applying declared moves does not yield next layout";
  }
  return {};
}

std::string check_restoration(const Ordering& ord, int n) {
  // Every ordering in the paper restores index order after at most two
  // sweeps (fat-tree after one; rings, odd-even and LLB after two).
  std::vector<int> layout(static_cast<std::size_t>(n));
  std::iota(layout.begin(), layout.end(), 0);
  for (int k = 0; k < 2; ++k) {
    const Sweep s = ord.sweep_from(layout, k);
    const auto fin = s.final_layout();
    layout.assign(fin.begin(), fin.end());
  }
  std::vector<int> ident(static_cast<std::size_t>(n));
  std::iota(ident.begin(), ident.end(), 0);
  if (layout == ident) return {};
  return "index order not restored after two sweeps";
}

std::string check_comm_levels(const Sweep& s) {
  // The histogram must fit inside the tree (no transfer can cross more than
  // ceil(log2(leaves)) levels) and agree with the per-index move accounting:
  // both derive from the same layout deltas, so a mismatch means the sweep's
  // move declarations are internally inconsistent.
  const auto hist = level_histogram(s);
  int height = 0;
  while ((1 << height) < s.leaves()) ++height;
  if (hist.size() != static_cast<std::size_t>(height) + 1)
    return "level histogram has " + std::to_string(hist.size()) + " buckets, tree height is " +
           std::to_string(height);
  const auto per_index = moves_per_index(s);
  const std::size_t inter_leaf =
      std::accumulate(hist.begin() + 1, hist.end(), static_cast<std::size_t>(0));
  const std::size_t from_indices =
      std::accumulate(per_index.begin(), per_index.end(), static_cast<std::size_t>(0));
  if (inter_leaf != from_indices)
    return "histogram counts " + std::to_string(inter_leaf) + " inter-leaf transfers, per-index " +
           "accounting counts " + std::to_string(from_indices);
  return {};
}

std::string check_one_way_ring(const Sweep& s) {
  if (unidirectional_ring_moves(s)) return {};
  return "a column moved against the ring direction (or by more than one hop)";
}

std::string check_rr_equivalence(const Sweep& s, int n) {
  const Sweep rr = RoundRobinOrdering().sweep(n);
  if (find_equivalence_relabelling(s, rr).has_value()) return {};
  return "no relabelling maps this sweep onto round-robin";
}

// ---------------------------------------------------------------------------

struct CaseReport {
  std::string ordering;
  int n = 0;
  std::vector<CheckResult> checks;
  bool pass = true;
};

CaseReport run_case(const std::string& display_name, const Ordering& ord, int n, int sweeps,
                    bool ring_checks) {
  CaseReport report;
  report.ordering = display_name;
  report.n = n;
  const auto add = [&report](const std::string& name, std::string detail) {
    CheckResult r;
    r.name = name;
    r.pass = detail.empty();
    r.detail = std::move(detail);
    report.pass = report.pass && r.pass;
    report.checks.push_back(std::move(r));
  };

  const Sweep s = ord.sweep(n);
  add("pair-coverage", check_pair_coverage(s));
  add("step-disjoint", check_step_disjointness(s, n));
  add("sequence-validity", check_sequence(ord, n, sweeps));
  add("steps-contract", check_steps_contract(ord, s, n));
  add("rotation-count", check_rotation_count(s, n));
  add("move-consistency", check_move_consistency(s));
  add("restoration", check_restoration(ord, n));
  add("comm-levels", check_comm_levels(s));
  if (ring_checks) {
    add("one-way-ring", check_one_way_ring(s));
    add("rr-equivalence", check_rr_equivalence(s, n));
  }
  return report;
}

std::string to_json(const std::vector<CaseReport>& reports, int min_n, int max_n,
                    const std::string& corruption, bool pass) {
  std::ostringstream os;
  os << "{\n  \"tool\": \"treesvd_lint\",\n  \"version\": 1,\n";
  os << "  \"min_n\": " << min_n << ",\n  \"max_n\": " << max_n << ",\n";
  os << "  \"corruption\": \"" << json_escape(corruption) << "\",\n";
  std::size_t violations = 0;
  for (const CaseReport& r : reports)
    for (const CheckResult& c : r.checks) violations += c.pass ? 0 : 1;
  os << "  \"violations\": " << violations << ",\n";
  os << "  \"pass\": " << (pass ? "true" : "false") << ",\n  \"results\": [";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const CaseReport& r = reports[i];
    os << (i ? "," : "") << "\n    {\"ordering\": \"" << json_escape(r.ordering)
       << "\", \"n\": " << r.n << ", \"pass\": " << (r.pass ? "true" : "false")
       << ", \"checks\": [";
    for (std::size_t j = 0; j < r.checks.size(); ++j) {
      const CheckResult& c = r.checks[j];
      os << (j ? ", " : "") << "{\"name\": \"" << c.name << "\", \"pass\": "
         << (c.pass ? "true" : "false");
      if (!c.pass) os << ", \"detail\": \"" << json_escape(c.detail) << "\"";
      os << "}";
    }
    os << "]}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

/// The one-way-traffic and round-robin-equivalence theorems apply to the
/// ring orderings; equivalence additionally holds for modified-ring.
bool has_one_way_traffic(const std::string& name) { return name == "new-ring"; }
bool is_rr_equivalent(const std::string& name) {
  return name == "new-ring" || name == "modified-ring";
}

struct RunOutcome {
  std::vector<CaseReport> reports;
  bool pass = true;
};

RunOutcome run_all(const std::vector<std::string>& names, int min_n, int max_n, int sweeps,
                   Corruption corruption) {
  RunOutcome out;
  for (const std::string& name : names) {
    OrderingPtr ord = make_ordering(name);
    std::string display = name;
    if (corruption != Corruption::kNone) {
      ord = std::make_shared<CorruptedOrdering>(std::move(ord), corruption);
      display = ord->name();
    }
    for (int n = min_n; n <= max_n; ++n) {
      if (!ord->supports(n)) continue;
      // The ring theorems are about the canonical (uncorrupted) schedule;
      // corrupted runs still exercise them so the linter can flag the break.
      const bool ring = has_one_way_traffic(name);
      CaseReport r;
      try {
        r = run_case(display, *ord, n, sweeps, ring);
        if (!ring && is_rr_equivalent(name)) {
          CheckResult c;
          c.name = "rr-equivalence";
          c.detail = check_rr_equivalence(ord->sweep(n), n);
          c.pass = c.detail.empty();
          r.pass = r.pass && c.pass;
          r.checks.push_back(std::move(c));
        }
      } catch (const std::exception& e) {
        // A throwing ordering is itself a violation, not a linter crash.
        r.ordering = display;
        r.n = n;
        r.pass = false;
        r.checks.push_back({"no-exception", false, e.what()});
      }
      out.pass = out.pass && r.pass;
      out.reports.push_back(std::move(r));
    }
  }
  return out;
}

int self_test() {
  // Direction 1: the clean registry must pass.
  const auto names = ordering_names({2, 4});
  const RunOutcome clean = run_all(names, 4, 16, 3, Corruption::kNone);
  if (!clean.pass) {
    std::cerr << "self-test FAILED: clean registry reported violations\n";
    return 1;
  }
  // Direction 2: every corruption kind must be caught on every ordering it
  // structurally applies to (all sweeps have >= 3 layouts for n >= 4).
  const Corruption kinds[] = {Corruption::kDuplicatePair, Corruption::kNoRestore,
                              Corruption::kReversedTraffic, Corruption::kOverlappingPair};
  const char* kind_names[] = {"duplicate-pair", "no-restore", "reversed-traffic",
                              "overlapping-pair"};
  for (std::size_t k = 0; k < std::size(kinds); ++k) {
    const RunOutcome corrupted = run_all({"fat-tree", "new-ring", "round-robin"}, 8, 8, 3,
                                         kinds[k]);
    if (corrupted.pass) {
      std::cerr << "self-test FAILED: corruption '" << kind_names[k]
                << "' slipped past every check\n";
      return 1;
    }
  }
  // Direction 3: the disjointness checker itself must flag an overlapping
  // step, a self-pair, and an out-of-range index on a raw StepPairs view
  // (a full Sweep cannot carry these — its constructor rejects them — so
  // the checker is probed directly; see check_pairs_disjoint).
  const std::vector<int> overlapping = {0, 1, 0, 3, 4, 5, 6, 7};
  const std::vector<int> self_pair = {0, 0, 2, 3, 4, 5, 6, 7};
  const std::vector<int> out_of_range = {0, 1, 2, 3, 4, 5, 6, 9};
  for (const auto* bad : {&overlapping, &self_pair, &out_of_range}) {
    const StepPairs view(std::span<const int>(*bad), {});
    if (check_pairs_disjoint(view, 8, 0).empty()) {
      std::cerr << "self-test FAILED: corrupt step layout not caught by the step-disjoint "
                   "check\n";
      return 1;
    }
  }
  const std::vector<int> clean_step = {0, 1, 2, 3, 4, 5, 6, 7};
  if (!check_pairs_disjoint(StepPairs(std::span<const int>(clean_step), {}), 8, 0).empty()) {
    std::cerr << "self-test FAILED: step-disjoint check flagged a clean step\n";
    return 1;
  }
  std::cout << "self-test passed: clean registry accepted, all corruption kinds detected\n";
  return 0;
}

int main(int argc, const char* const* argv) {
  const Cli cli(argc, argv);
  cli.require_known({"help", "self-test", "min-n", "max-n", "orderings", "sweeps", "json",
                     "corrupt"});
  if (cli.has("help")) {
    std::cout << "usage: treesvd_lint [--min-n=4] [--max-n=64] [--orderings=a,b,...]\n"
                 "                    [--sweeps=4] [--json=PATH] [--corrupt=KIND] [--self-test]\n"
                 "KIND: duplicate-pair | no-restore | reversed-traffic | overlapping-pair\n";
    return 0;
  }
  if (cli.has("self-test")) return self_test();

  const int min_n = cli.get_size("min-n", 4);
  const int max_n = cli.get_size("max-n", 64);
  const int sweeps = cli.get_size("sweeps", 4);
  if (min_n < 4 || max_n < min_n) {
    std::cerr << "treesvd_lint: invalid n range [" << min_n << ", " << max_n << "]\n";
    return 2;
  }
  const auto corruption = parse_corruption(cli.get("corrupt", ""));
  if (!corruption) {
    std::cerr << "treesvd_lint: unknown corruption kind '" << cli.get("corrupt", "") << "'\n";
    return 2;
  }

  const std::vector<std::string> names = cli.get_list("orderings", ordering_names({2, 4, 8}));

  const RunOutcome outcome = run_all(names, min_n, max_n, sweeps, *corruption);
  const std::string json =
      to_json(outcome.reports, min_n, max_n, cli.get("corrupt", ""), outcome.pass);
  const std::string path = cli.get("json", "");
  if (path.empty()) {
    std::cout << json;
  } else {
    if (!write_text_file(path, json)) return 2;
    std::cout << (outcome.pass ? "PASS" : "FAIL") << ": " << outcome.reports.size()
              << " ordering/size cases, report written to " << path << "\n";
  }
  if (!outcome.pass) {
    for (const CaseReport& r : outcome.reports)
      for (const CheckResult& c : r.checks)
        if (!c.pass)
          std::cerr << "violation: " << r.ordering << " n=" << r.n << " " << c.name << ": "
                    << c.detail << "\n";
  }
  return outcome.pass ? 0 : 1;
}

}  // namespace
}  // namespace treesvd::lint

int main(int argc, char** argv) {
  return treesvd::run_tool("treesvd_lint", argc, argv, treesvd::lint::main);
}
