#include "core/sweep_plan.hpp"

#include <utility>

#include "util/require.hpp"

namespace treesvd {
namespace {

/// Leaf ranges split at the middle, the left half taking the odd leaf.
int split(int lo, int hi) { return lo + (hi - lo + 1) / 2; }

/// The depth-d subtrees of leaves [lo, hi), left to right (some may be empty).
void subtrees(int lo, int hi, int depth, std::vector<std::pair<int, int>>& out) {
  if (depth == 0) {
    out.emplace_back(lo, hi);
    return;
  }
  const int mid = split(lo, hi);
  subtrees(lo, mid, depth - 1, out);
  subtrees(mid, hi, depth - 1, out);
}

/// Lists one canonical sweep in subtree order (see the header comment).
class Planner {
 public:
  explicit Planner(const Sweep& sweep)
      : sweep_(sweep), n_(sweep.n()),
        next_leaf_(static_cast<std::size_t>(sweep.steps() - 1) * static_cast<std::size_t>(n_)) {
    std::vector<int> slot_of(static_cast<std::size_t>(n_));
    for (int t = 0; t + 1 < sweep.steps(); ++t) {
      const auto next = sweep.layout(t + 1);
      for (int slot = 0; slot < n_; ++slot)
        slot_of[static_cast<std::size_t>(next[static_cast<std::size_t>(slot)])] = slot;
      const auto lay = sweep.layout(t);
      for (int slot = 0; slot < n_; ++slot)
        next_leaf_[at(t, slot)] =
            slot_of[static_cast<std::size_t>(lay[static_cast<std::size_t>(slot)])] / 2;
    }
  }

  /// Leaf that holds, at step t + 1, the column in `slot` at step t.
  int next_leaf(int t, int slot) const { return next_leaf_[at(t, slot)]; }

  /// True when transition t -> t+1 moves a column of leaves [lo, hi) between
  /// [lo, mid) and [mid, hi). The caller's window guarantees that the range's
  /// columns stay inside it.
  bool crosses(int t, int lo, int mid, int hi) const {
    for (int slot = 2 * lo; slot < 2 * hi; ++slot)
      if ((slot / 2 < mid) != (next_leaf(t, slot) < mid)) return true;
    return false;
  }

  /// Appends the plan of leaves [lo, hi) over steps [t0, t1).
  void plan(int lo, int hi, int t0, int t1, std::vector<IndexPair>& out) const {
    if (hi - lo == 1) {
      for (int t = t0; t < t1; ++t) {
        if (!sweep_.leaf_active(t, lo)) continue;
        const auto lay = sweep_.layout(t);
        out.push_back({lay[static_cast<std::size_t>(2 * lo)],
                       lay[static_cast<std::size_t>(2 * lo + 1)]});
      }
      return;
    }
    if (hi <= lo) return;
    const int mid = split(lo, hi);
    int piece = t0;
    for (int t = t0; t < t1; ++t) {
      if (t + 1 < t1 && !crosses(t, lo, mid, hi)) continue;
      plan(lo, mid, piece, t + 1, out);
      plan(mid, hi, piece, t + 1, out);
      piece = t + 1;
    }
  }

 private:
  std::size_t at(int t, int slot) const {
    return static_cast<std::size_t>(t) * static_cast<std::size_t>(n_) + static_cast<std::size_t>(slot);
  }

  const Sweep& sweep_;
  int n_;
  /// next_leaf_[at(t, slot)]: see next_leaf (steps 0 .. steps-2).
  std::vector<int> next_leaf_;
};

}  // namespace

SweepPlan::SweepPlan(const Sweep& canonical, int depth) : depth_(depth) {
  TREESVD_REQUIRE(depth >= 0 && depth <= 16, "plan depth must lie in [0, 16]");
  const auto fin = canonical.final_layout();
  final_.assign(fin.begin(), fin.end());

  const Planner planner(canonical);
  std::vector<std::pair<int, int>> ranges;
  subtrees(0, canonical.leaves(), depth, ranges);
  std::vector<std::size_t> owner(static_cast<std::size_t>(canonical.leaves()));
  for (std::size_t k = 0; k < ranges.size(); ++k)
    for (int leaf = ranges[k].first; leaf < ranges[k].second; ++leaf)
      owner[static_cast<std::size_t>(leaf)] = k;

  pairs_.reserve(canonical.rotation_count());
  bounds_.push_back(0);
  int phase_start = 0;
  for (int t = 0; t < canonical.steps(); ++t) {
    // A phase ends where a column moves between two depth-d subtrees (or at
    // the end of the sweep).
    bool cut = t + 1 == canonical.steps();
    for (int slot = 0; slot < canonical.n() && !cut; ++slot)
      cut = owner[static_cast<std::size_t>(slot / 2)] !=
            owner[static_cast<std::size_t>(planner.next_leaf(t, slot))];
    if (!cut) continue;
    for (const auto& [lo, hi] : ranges) {
      planner.plan(lo, hi, phase_start, t + 1, pairs_);
      bounds_.push_back(pairs_.size());
    }
    ++phases_;
    phase_start = t + 1;
  }
}

std::span<const IndexPair> SweepPlan::task(std::size_t phase, std::size_t task) const {
  TREESVD_REQUIRE(phase < phases() && task < tasks(), "phase or task index out of range");
  const std::size_t b = bounds_[phase * tasks() + task];
  return std::span<const IndexPair>(pairs_).subspan(b, bounds_[phase * tasks() + task + 1] - b);
}

void SweepPlan::advance(std::span<const int> layout, std::span<int> next) const {
  TREESVD_REQUIRE(layout.size() == final_.size() && next.size() == final_.size(),
                  "advance needs layouts of the plan's width");
  for (std::size_t s = 0; s < final_.size(); ++s)
    next[s] = layout[static_cast<std::size_t>(final_[s])];
}

std::vector<SweepPlan> plan_sweeps(const Ordering& ordering, int n, int depth) {
  std::vector<SweepPlan> plans;
  for (int k = 0; k < ordering.procedures(); ++k) plans.emplace_back(ordering.sweep(n, k), depth);
  return plans;
}

}  // namespace treesvd
