#include "core/ordering.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace treesvd {

Sweep::Sweep(std::vector<std::vector<int>> layouts, std::vector<std::vector<std::uint8_t>> active)
    : layouts_(std::move(layouts)), active_(std::move(active)) {
  TREESVD_REQUIRE(layouts_.size() >= 2, "a sweep needs at least one step plus a final layout");
  const std::size_t n = layouts_.front().size();
  TREESVD_REQUIRE(n >= 2 && n % 2 == 0, "sweep needs an even number of indices");
  for (const auto& l : layouts_) {
    TREESVD_REQUIRE(l.size() == n, "all layouts must have equal length");
    std::vector<std::uint8_t> seen(n, 0);
    for (int idx : l) {
      TREESVD_REQUIRE(idx >= 0 && static_cast<std::size_t>(idx) < n && !seen[idx],
                      "layout is not a permutation");
      seen[idx] = 1;
    }
  }
  if (!active_.empty()) {
    TREESVD_REQUIRE(active_.size() == layouts_.size() - 1, "one activity mask per step");
    for (const auto& a : active_)
      TREESVD_REQUIRE(a.size() == n / 2, "activity mask has one flag per leaf");
  }
}

std::span<const int> Sweep::layout(int t) const {
  TREESVD_REQUIRE(t >= 0 && static_cast<std::size_t>(t) < layouts_.size(),
                  "step index out of range");
  return layouts_[static_cast<std::size_t>(t)];
}

bool Sweep::leaf_active(int t, int leaf) const {
  TREESVD_REQUIRE(t >= 0 && t < steps(), "step index out of range");
  TREESVD_REQUIRE(leaf >= 0 && leaf < leaves(), "leaf index out of range");
  if (active_.empty()) return true;
  return active_[static_cast<std::size_t>(t)][static_cast<std::size_t>(leaf)] != 0;
}

std::vector<IndexPair> Sweep::pairs(int t) const {
  const auto lay = layout(t);
  TREESVD_REQUIRE(t < steps(), "pairs are defined for steps 0..steps()-1");
  std::vector<IndexPair> out;
  out.reserve(static_cast<std::size_t>(leaves()));
  for (int k = 0; k < leaves(); ++k) {
    if (!leaf_active(t, k)) continue;
    out.push_back({lay[static_cast<std::size_t>(2 * k)], lay[static_cast<std::size_t>(2 * k + 1)]});
  }
  return out;
}

StepPairs Sweep::step_pairs(int t) const {
  TREESVD_REQUIRE(t >= 0 && t < steps(), "pairs are defined for steps 0..steps()-1");
  return StepPairs(layouts_[static_cast<std::size_t>(t)],
                   active_.empty() ? std::span<const std::uint8_t>()
                                   : std::span<const std::uint8_t>(active_[static_cast<std::size_t>(t)]));
}

std::vector<ColumnMove> Sweep::moves(int t) const {
  TREESVD_REQUIRE(t >= 0 && t < steps(), "moves are defined between consecutive steps");
  const auto from = layout(t);
  const auto to = layout(t + 1);
  std::vector<int> slot_of(from.size());
  for (std::size_t s = 0; s < from.size(); ++s) slot_of[static_cast<std::size_t>(from[s])] = static_cast<int>(s);
  std::vector<ColumnMove> out;
  for (std::size_t s = 0; s < to.size(); ++s) {
    const int idx = to[s];
    const int prev = slot_of[static_cast<std::size_t>(idx)];
    if (prev != static_cast<int>(s)) out.push_back({idx, prev, static_cast<int>(s)});
  }
  return out;
}

std::size_t Sweep::rotation_count() const {
  std::size_t c = 0;
  for (int t = 0; t < steps(); ++t)
    for (int k = 0; k < leaves(); ++k)
      if (leaf_active(t, k)) ++c;
  return c;
}

Sweep Ordering::sweep(int n, int sweep_index) const {
  TREESVD_REQUIRE(supports(n), name() + " does not support n=" + std::to_string(n));
  Canonical c = canonical(n, sweep_index % procedures());
  return Sweep(std::move(c.layouts), std::move(c.active));
}

Sweep Ordering::sweep_from(std::span<const int> layout0, int sweep_index) const {
  const int n = static_cast<int>(layout0.size());
  TREESVD_REQUIRE(supports(n), name() + " does not support n=" + std::to_string(n));
  Canonical c = canonical(n, sweep_index % procedures());
  // Transport the position procedure: canonical layout entry p means "the
  // index that started at position p", which under layout0 is layout0[p].
  for (auto& lay : c.layouts)
    for (auto& v : lay) v = layout0[static_cast<std::size_t>(v)];
  return Sweep(std::move(c.layouts), std::move(c.active));
}

int padded_width(const Ordering& ordering, int n) noexcept {
  for (int w = n; w <= 2 * n + 4; ++w)
    if (ordering.supports(w)) return w;
  return 0;
}

}  // namespace treesvd
