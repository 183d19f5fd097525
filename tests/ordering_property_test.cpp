// Property tests that every ordering must satisfy: each sweep is a valid
// parallel Jacobi sweep (all n(n-1)/2 pairs exactly once, disjoint pairs per
// step), across several consecutive sweeps, for a range of problem sizes.
// The registry suite (SweepPlanProperty) checks every registered ordering at
// every supported n in [4, 64] against the paper's invariants, and its
// subtree-ordered plans (core/sweep_plan.hpp) against the sweeps they
// reorder; a newly registered ordering is checked with no test change.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "core/registry.hpp"
#include "core/sweep_plan.hpp"
#include "core/validate.hpp"

namespace treesvd {
namespace {

using Param = std::tuple<std::string, int>;

std::vector<int> identity(int n) {
  std::vector<int> ident(static_cast<std::size_t>(n));
  std::iota(ident.begin(), ident.end(), 0);
  return ident;
}

/// The layout after `sweeps` sweeps chained from the identity.
std::vector<int> layout_after(const Ordering& ord, int n, int sweeps) {
  std::vector<int> layout = identity(n);
  for (int k = 0; k < sweeps; ++k) {
    const Sweep s = ord.sweep_from(layout, k);
    const auto fin = s.final_layout();
    layout.assign(fin.begin(), fin.end());
  }
  return layout;
}

/// Applying each step's declared moves to its layout yields the next one.
void expect_moves_reproduce_layouts(const Sweep& s) {
  for (int t = 0; t < s.steps(); ++t) {
    const auto from = s.layout(t);
    const auto to = s.layout(t + 1);
    std::vector<int> applied(from.begin(), from.end());
    for (const ColumnMove& mv : s.moves(t)) {
      EXPECT_EQ(from[static_cast<std::size_t>(mv.from_slot)], mv.index) << "step " << t;
      applied[static_cast<std::size_t>(mv.to_slot)] = mv.index;
    }
    EXPECT_EQ(applied, std::vector<int>(to.begin(), to.end())) << "step " << t;
  }
}

class OrderingProperty : public ::testing::TestWithParam<Param> {
 protected:
  OrderingPtr ordering() const { return make_ordering(std::get<0>(GetParam())); }
  int n() const { return std::get<1>(GetParam()); }
  bool supported() const { return ordering()->supports(n()); }
};

TEST_P(OrderingProperty, SingleSweepIsValid) {
  if (!supported()) GTEST_SKIP() << "n not supported";
  const Sweep s = ordering()->sweep(n());
  const SweepValidation v = validate_sweep(s);
  EXPECT_TRUE(v.valid) << v.error;
}

TEST_P(OrderingProperty, FourConsecutiveSweepsAreValid) {
  if (!supported()) GTEST_SKIP() << "n not supported";
  const SweepValidation v = validate_sweep_sequence(*ordering(), n(), 4);
  EXPECT_TRUE(v.valid) << v.error;
}

TEST_P(OrderingProperty, StepCountMatchesContract) {
  if (!supported()) GTEST_SKIP() << "n not supported";
  const Sweep s = ordering()->sweep(n());
  EXPECT_EQ(s.steps(), ordering()->steps(n()));
}

TEST_P(OrderingProperty, RotationCountIsAllPairs) {
  if (!supported()) GTEST_SKIP() << "n not supported";
  const Sweep s = ordering()->sweep(n());
  EXPECT_EQ(s.rotation_count(),
            static_cast<std::size_t>(n()) * static_cast<std::size_t>(n() - 1) / 2);
}

TEST_P(OrderingProperty, LayoutRestoredAfterTwoSweepsOrOne) {
  if (!supported()) GTEST_SKIP() << "n not supported";
  // Every ordering in the paper restores the original index order after at
  // most two sweeps (fat-tree after one; rings and odd-even after two;
  // Lee-Luk-Boley after a forward+backward pair).
  EXPECT_EQ(layout_after(*ordering(), n(), 2), identity(n()));
}

TEST_P(OrderingProperty, MovesAreConsistentWithLayouts) {
  if (!supported()) GTEST_SKIP() << "n not supported";
  expect_moves_reproduce_layouts(ordering()->sweep(n()));
}

TEST_P(OrderingProperty, SweepFromTransportsThePositionProcedure) {
  if (!supported()) GTEST_SKIP() << "n not supported";
  // Starting from a shuffled layout must pair the occupants of the same
  // positions the canonical sweep pairs.
  std::vector<int> shuffled(static_cast<std::size_t>(n()));
  std::iota(shuffled.begin(), shuffled.end(), 0);
  std::rotate(shuffled.begin(), shuffled.begin() + 3, shuffled.end());
  const auto ord = ordering();
  const Sweep canonical = ord->sweep(n());
  const Sweep moved = ord->sweep_from(shuffled);
  for (int t = 0; t <= canonical.steps(); ++t) {
    const auto lc = canonical.layout(t);
    const auto lm = moved.layout(t);
    for (int slot = 0; slot < n(); ++slot)
      EXPECT_EQ(lm[static_cast<std::size_t>(slot)],
                shuffled[static_cast<std::size_t>(lc[static_cast<std::size_t>(slot)])]);
  }
}

TEST_P(OrderingProperty, UnsupportedSizesThrow) {
  const auto ord = ordering();
  if (ord->supports(n())) GTEST_SKIP() << "n supported";
  EXPECT_THROW(ord->sweep(n()), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    AllOrderings, OrderingProperty,
    ::testing::Combine(::testing::Values("round-robin", "odd-even", "fat-tree", "llb-fat-tree",
                                         "new-ring", "modified-ring", "hybrid-g2", "hybrid-g4",
                                         "hybrid-g8", "block-ring-g2", "block-ring-g4"),
                       ::testing::Values(4, 6, 8, 12, 16, 32, 64, 128, 256)),
    [](const ::testing::TestParamInfo<Param>& param_info) {
      std::string name = std::get<0>(param_info.param) + "_n" + std::to_string(std::get<1>(param_info.param));
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

std::pair<int, int> unordered(IndexPair p) {
  return {std::min(p.even, p.odd), std::max(p.even, p.odd)};
}

bool same_sweep(const Sweep& a, const Sweep& b) {
  if (a.n() != b.n() || a.steps() != b.steps()) return false;
  for (int t = 0; t <= a.steps(); ++t) {
    const auto la = a.layout(t);
    const auto lb = b.layout(t);
    if (!std::equal(la.begin(), la.end(), lb.begin(), lb.end())) return false;
  }
  for (int t = 0; t < a.steps(); ++t)
    for (int leaf = 0; leaf < a.leaves(); ++leaf)
      if (a.leaf_active(t, leaf) != b.leaf_active(t, leaf)) return false;
  return true;
}

/// Checks that `pairs` holds each active pair of `sweep` exactly once and
/// visits every column's pairs in step order.
void expect_reorders_sweep(const Sweep& sweep, std::span<const IndexPair> pairs) {
  std::map<std::pair<int, int>, int> step_of;
  for (int t = 0; t < sweep.steps(); ++t)
    for (const IndexPair& p : sweep.pairs(t)) step_of[unordered(p)] = t;
  ASSERT_EQ(pairs.size(), sweep.rotation_count());
  std::set<std::pair<int, int>> seen;
  std::vector<int> last_step(static_cast<std::size_t>(sweep.n()), -1);
  for (const IndexPair& p : pairs) {
    const auto key = unordered(p);
    const auto it = step_of.find(key);
    ASSERT_NE(it, step_of.end()) << "plan pair (" << key.first << "," << key.second
                                 << ") is not an active pair of the sweep";
    ASSERT_TRUE(seen.insert(key).second) << "plan repeats (" << key.first << "," << key.second
                                         << ")";
    for (const int col : {p.even, p.odd}) {
      auto& last = last_step[static_cast<std::size_t>(col)];
      ASSERT_LT(last, it->second) << "column " << col << " leaves step order";
      last = it->second;
    }
  }
}

class SweepPlanProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(SweepPlanProperty, PlanInvariants) {
  const OrderingPtr ord = make_ordering(GetParam());
  const int procs = ord->procedures();
  EXPECT_EQ(procs, GetParam() == "llb-fat-tree" ? 2 : 1);
  int covered = 0;
  for (int n = 4; n <= 64; ++n) {
    if (!ord->supports(n)) continue;
    ++covered;
    SCOPED_TRACE("n=" + std::to_string(n));

    // The paper's invariants of the canonical sweep: every index pair met
    // exactly once, in one sweep and across four chained ones; the declared
    // step count; declared moves that reproduce each next layout; index
    // order restored after at most two sweeps; and transfers that fit the
    // tree and agree with the per-index accounting. No index can sit in two
    // pairs of one step: Sweep's constructor rejects any layout that is not
    // a permutation.
    const Sweep sweep = ord->sweep(n);
    const SweepValidation single = validate_sweep(sweep);
    EXPECT_TRUE(single.valid) << single.error;
    const SweepValidation chained = validate_sweep_sequence(*ord, n, 4);
    EXPECT_TRUE(chained.valid) << chained.error;
    EXPECT_EQ(sweep.steps(), ord->steps(n));
    EXPECT_EQ(sweep.rotation_count(),
              static_cast<std::size_t>(n) * static_cast<std::size_t>(n - 1) / 2);
    expect_moves_reproduce_layouts(sweep);
    EXPECT_EQ(layout_after(*ord, n, 2), identity(n)) << "index order not restored";
    // One bucket per level of a tree of ceil(log2(leaves)) levels, plus the
    // free intra-leaf moves.
    const std::vector<std::size_t> hist = level_histogram(sweep);
    ASSERT_EQ(hist.size(), std::bit_width(static_cast<unsigned>(sweep.leaves() - 1)) + 1u);
    const std::vector<std::size_t> per_index = moves_per_index(sweep);
    EXPECT_EQ(std::accumulate(hist.begin() + 1, hist.end(), std::size_t{0}),
              std::accumulate(per_index.begin(), per_index.end(), std::size_t{0}));
    // The ring theorems: one-way traffic (new-ring) and Definition 1's
    // equivalence to round-robin (new-ring and modified-ring).
    if (GetParam() == "new-ring") {
      EXPECT_TRUE(unidirectional_ring_moves(sweep)) << "a column moved against the ring";
    }
    if (GetParam() == "new-ring" || GetParam() == "modified-ring") {
      const Sweep rr = make_ordering("round-robin")->sweep(n);
      EXPECT_TRUE(find_equivalence_relabelling(sweep, rr).has_value())
          << "no relabelling maps this sweep onto round-robin";
    }

    for (int k = 0; k < 4; ++k) {
      EXPECT_TRUE(same_sweep(ord->sweep(n, k), ord->sweep(n, k + procs)))
          << "sweep " << k << " differs from sweep " << k + procs;
    }
    if (procs == 2) {
      EXPECT_FALSE(same_sweep(ord->sweep(n, 0), ord->sweep(n, 1)));
    }

    for (int d = 0; d <= 3; ++d) {
      SCOPED_TRACE("depth=" + std::to_string(d));
      const std::vector<SweepPlan> plans = plan_sweeps(*ord, n, d);
      ASSERT_EQ(plans.size(), static_cast<std::size_t>(procs));
      for (int k = 0; k < procs; ++k) {
        const Sweep canonical = ord->sweep(n, k);
        const SweepPlan& plan = plans[static_cast<std::size_t>(k)];
        ASSERT_EQ(plan.tasks(), std::size_t{1} << d);
        expect_reorders_sweep(canonical, plan.pairs());
        EXPECT_GE(plan.phases(), std::size_t{1});
        if (d == 0) {
          EXPECT_EQ(plan.phases(), std::size_t{1});
        }
        // The tasks, phase by phase, tile pairs() in order: a driver that
        // runs them all runs the plan.
        std::vector<IndexPair> tiled;
        for (std::size_t ph = 0; ph < plan.phases(); ++ph) {
          // The tasks of one phase touch pairwise-disjoint columns.
          std::vector<int> owner(static_cast<std::size_t>(n), -1);
          for (std::size_t task = 0; task < plan.tasks(); ++task) {
            for (const IndexPair& p : plan.task(ph, task)) {
              for (const int col : {p.even, p.odd}) {
                auto& o = owner[static_cast<std::size_t>(col)];
                EXPECT_TRUE(o == -1 || o == static_cast<int>(task))
                    << "phase " << ph << ": column " << col << " in tasks " << o << " and "
                    << task;
                o = static_cast<int>(task);
              }
              tiled.push_back(p);
            }
          }
        }
        EXPECT_EQ(tiled, std::vector<IndexPair>(plan.pairs().begin(), plan.pairs().end()));
      }
    }

    // Mapped through each sweep's opening layout, the plans reproduce the
    // chained sweeps the drivers used to build with sweep_from.
    const std::vector<SweepPlan> plans = plan_sweeps(*ord, n);
    std::vector<int> layout = identity(n);
    std::vector<int> next(layout.size());
    for (int k = 0; k < 4; ++k) {
      const Sweep s = ord->sweep_from(layout, k);
      const SweepPlan& plan = plans[static_cast<std::size_t>(k % procs)];
      std::vector<IndexPair> mapped;
      for (const IndexPair& p : plan.pairs())
        mapped.push_back({layout[static_cast<std::size_t>(p.even)],
                          layout[static_cast<std::size_t>(p.odd)]});
      expect_reorders_sweep(s, mapped);
      plan.advance(layout, next);
      const auto fin = s.final_layout();
      EXPECT_EQ(next, std::vector<int>(fin.begin(), fin.end())) << "after sweep " << k;
      layout.swap(next);
    }
  }
  EXPECT_GT(covered, 0);
}

INSTANTIATE_TEST_SUITE_P(Registry, SweepPlanProperty,
                         ::testing::ValuesIn(ordering_names({2, 4, 8})),
                         [](const ::testing::TestParamInfo<std::string>& param_info) {
                           std::string name = param_info.param;
                           for (auto& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST(OrderingRegistry, UnknownNameThrows) {
  EXPECT_THROW(make_ordering("nope"), std::invalid_argument);
  EXPECT_THROW(make_ordering("hybrid-gX"), std::invalid_argument);
}

TEST(OrderingRegistry, RejectionNamesOnlyTheProblem) {
  // A library rejection reaches users verbatim (tools print it as a usage
  // error), so it carries the message alone: no condition text, no path.
  try {
    (void)make_ordering("bogus");
    FAIL() << "an unknown ordering name was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("treesvd: unknown ordering 'bogus'", 0), 0u) << what;
    EXPECT_EQ(what.find("precondition failed"), std::string::npos) << what;
    EXPECT_EQ(what.find(".cpp"), std::string::npos) << what;
  }
}

TEST(OrderingRegistry, NamesRoundTrip) {
  for (const auto& name : ordering_names({2, 4})) {
    const auto ord = make_ordering(name);
    EXPECT_EQ(ord->name(), name);
  }
}

TEST(OrderingRegistry, HybridRejectsOddGroups) {
  EXPECT_THROW(make_ordering("hybrid-g3"), std::invalid_argument);
}

}  // namespace
}  // namespace treesvd
