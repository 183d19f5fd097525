#pragma once
// Subtree-ordered sweep plans: the rotations of one canonical sweep, listed
// so that the work of a subtree runs together.
//
// A Sweep lists its rotations step by step, and a driver that follows it
// touches every column at every step. The tree orderings keep most column
// movement low in the tree, though: between the paper's super-step
// boundaries at level k, the columns of each level-k subtree stay inside
// that subtree. A SweepPlan reorders the sweep by that structure. For a
// leaf range and a window of steps, it cuts the window at every step
// transition that moves a column between the range's two halves; each piece
// then lists the left half's plan, then the right half's, recursing down to
// single leaves. No cache size enters: a subtree's columns are reused while
// they fit in whichever cache holds them (the order is cache-oblivious).
//
// Why the order is free. Every column still meets the same partners in the
// same order — within a piece each column stays on one side, pieces run in
// step order, and a leaf runs its steps in order. A one-sided rotation reads
// and writes only its own two columns, so rotations of disjoint columns
// commute exactly, and running a plan is bitwise identical to running the
// sweep step by step. (The two-sided Kogbetliantz engine rotates rows too,
// so rotations of one step share matrix entries and must keep step order.)
//
// Phases. A plan is built at a tree depth d. Its rotations are grouped into
// phases, and each phase into 2^d tasks, one per depth-d subtree: the phase
// windows are cut at every transition that moves a column between two
// depth-d subtrees, so the tasks of one phase touch pairwise-disjoint
// columns and may run concurrently. Each task lists its subtree's plan over
// the phase window. At depth 0 there is one phase holding the whole sweep,
// which is the serial order.
//
// Plans are position procedures like the orderings: entries are canonical
// positions, and a sweep that opens in layout L rotates columns L[a] and
// L[b] for each entry {a, b}. One plan per Ordering::procedures() therefore
// serves every sweep of a solve.

#include <cstddef>
#include <span>
#include <vector>

#include "core/ordering.hpp"

namespace treesvd {

class SweepPlan {
 public:
  /// Plans `canonical` (a sweep from the identity layout) at tree depth
  /// `depth` >= 0.
  explicit SweepPlan(const Sweep& canonical, int depth = 0);

  /// Every active rotation of the sweep, phase by phase and task by task.
  std::span<const IndexPair> pairs() const noexcept { return pairs_; }

  /// Phases in run order; one at depth 0.
  std::size_t phases() const noexcept { return phases_; }
  /// Subtrees per phase: 2^depth (some may be empty when the sweep has
  /// fewer leaves).
  std::size_t tasks() const noexcept { return std::size_t{1} << depth_; }
  /// The rotations of one subtree within one phase. The tasks, phase by
  /// phase, tile pairs() in order.
  std::span<const IndexPair> task(std::size_t phase, std::size_t task) const;

  /// Writes into `next` the layout after a sweep that opened in `layout`:
  /// the final layout of the sweep the plan was built from, transported.
  void advance(std::span<const int> layout, std::span<int> next) const;

 private:
  int depth_ = 0;
  std::size_t phases_ = 0;
  std::vector<IndexPair> pairs_;
  /// Task k of phase p is pairs_[bounds_[p*tasks()+k], bounds_[p*tasks()+k+1]).
  std::vector<std::size_t> bounds_;
  std::vector<int> final_;
};

/// The plans a solve needs: one per procedure of `ordering` at width n, all
/// at `depth`. Sweep k of the solve runs plans[k % plans.size()].
std::vector<SweepPlan> plan_sweeps(const Ordering& ordering, int n, int depth = 0);

}  // namespace treesvd
