#pragma once
// Parallel Jacobi orderings — the paper's central abstraction.
//
// Model. n column indices (0-based internally, printed 1-based as in the
// paper) live in n slots; slot s belongs to leaf processor s/2, so each leaf
// of the tree holds exactly two columns. At every parallel step the two
// columns co-located on a leaf form an index pair and are orthogonalised by
// one plane rotation; between steps columns move between slots, which on a
// tree architecture is communication.
//
// A Sweep is therefore just a sequence of layouts: layout(t)[slot] = index
// occupying the slot when step t executes (t = 0..steps-1), plus one final
// layout — the state handed to the next sweep. Pairs, column movements and
// communication levels are all derived from the layouts. Some orderings
// (odd-even) have a step in which one co-located pair is idle; the `active`
// mask records this.
//
// A valid Jacobi sweep pairs every one of the n(n-1)/2 index pairs exactly
// once (validate.hpp checks this property for every ordering in the tests).

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace treesvd {

/// One rotation's operands: the indices at the even/odd slot of a leaf.
/// `even` sits at slot 2k (the paper's left/top position), `odd` at 2k+1.
struct IndexPair {
  int even = 0;
  int odd = 0;

  friend bool operator==(const IndexPair&, const IndexPair&) = default;
};

/// A column transfer implied by two consecutive layouts.
struct ColumnMove {
  int index = 0;      ///< which column
  int from_slot = 0;
  int to_slot = 0;
};

/// Non-allocating view of one step's pairs: spans into the Sweep's layout
/// and activity storage (valid while the Sweep lives). The hot drivers walk
/// leaves through this view instead of materialising a std::vector<IndexPair>
/// per step.
class StepPairs {
 public:
  StepPairs(std::span<const int> layout, std::span<const std::uint8_t> active) noexcept
      : layout_(layout), active_(active) {}

  int leaves() const noexcept { return static_cast<int>(layout_.size()) / 2; }

  /// False for a leaf idle in this step (odd-even's unpaired column).
  bool active_at(int leaf) const noexcept {
    return active_.empty() || active_[static_cast<std::size_t>(leaf)] != 0;
  }

  /// The pair co-located on `leaf`; meaningful when active_at(leaf).
  IndexPair at(int leaf) const noexcept {
    return {layout_[static_cast<std::size_t>(2 * leaf)],
            layout_[static_cast<std::size_t>(2 * leaf + 1)]};
  }

  /// Number of active pairs (what pairs(t).size() would be).
  std::size_t count() const noexcept {
    if (active_.empty()) return static_cast<std::size_t>(leaves());
    std::size_t c = 0;
    for (std::uint8_t a : active_) c += a != 0 ? 1 : 0;
    return c;
  }

 private:
  std::span<const int> layout_;
  std::span<const std::uint8_t> active_;
};

/// One sweep of a parallel Jacobi ordering (see file comment).
class Sweep {
 public:
  /// `layouts` must contain steps+1 entries, each a permutation of 0..n-1.
  /// `active[t]` has one flag per leaf (n/2); empty means all leaves active.
  Sweep(std::vector<std::vector<int>> layouts, std::vector<std::vector<std::uint8_t>> active);

  int n() const noexcept { return static_cast<int>(layouts_.front().size()); }
  int steps() const noexcept { return static_cast<int>(layouts_.size()) - 1; }
  int leaves() const noexcept { return n() / 2; }

  /// Slot occupancy when step t executes; t == steps() gives the post-sweep
  /// layout.
  std::span<const int> layout(int t) const;

  /// The index pairs rotated at step t (inactive leaves omitted).
  std::vector<IndexPair> pairs(int t) const;

  /// Non-allocating view of step t's pairs (see StepPairs); valid while this
  /// Sweep is alive.
  StepPairs step_pairs(int t) const;

  bool leaf_active(int t, int leaf) const;

  /// Column transfers between step t and step t+1 (t = steps()-1 yields the
  /// post-sweep restore moves). Moves within a leaf are included with
  /// from_slot/to_slot on the same leaf; callers decide whether those are
  /// free.
  std::vector<ColumnMove> moves(int t) const;

  std::span<const int> final_layout() const { return layout(steps()); }

  /// Total number of active rotations in the sweep.
  std::size_t rotation_count() const;

 private:
  std::vector<std::vector<int>> layouts_;
  std::vector<std::vector<std::uint8_t>> active_;
};

/// Abstract parallel Jacobi ordering.
///
/// Orderings are defined as *position procedures*: the canonical sweep is
/// generated from the identity layout, and sweep(layout0, k) transports the
/// procedure to an arbitrary starting layout (the procedure pairs whatever
/// occupies the positions). `sweep_index` k matters only to orderings whose
/// procedure alternates between sweeps (Lee-Luk-Boley forward/backward), and
/// only through k % procedures(): sweep() and sweep_from() reduce it before
/// calling canonical(), so the drivers that build procedures() plans once
/// and the engines that chain sweep_from(layout, k) run the same sweeps.
class Ordering {
 public:
  virtual ~Ordering() = default;

  virtual std::string name() const = 0;

  /// Smallest supported n and the constraint n must satisfy.
  virtual bool supports(int n) const = 0;

  /// Steps per sweep for a given n.
  virtual int steps(int n) const = 0;

  /// Number of distinct canonical sweeps the ordering cycles through: sweep
  /// k runs procedure k % procedures(), and canonical() only ever sees that
  /// residue. 1 unless the procedure alternates between sweeps
  /// (Lee-Luk-Boley: forward, then backward).
  virtual int procedures() const { return 1; }

  /// Canonical sweep (from the identity layout).
  Sweep sweep(int n, int sweep_index = 0) const;

  /// Sweep starting from an arbitrary layout (e.g. the previous sweep's
  /// final layout).
  Sweep sweep_from(std::span<const int> layout0, int sweep_index = 0) const;

  /// Canonical sweep representation produced by concrete orderings: the
  /// layout sequence (steps + final) plus optional per-step activity masks.
  struct Canonical {
    std::vector<std::vector<int>> layouts;
    std::vector<std::vector<std::uint8_t>> active;  ///< may be empty
  };

 protected:
  /// `sweep_index` arrives reduced modulo procedures().
  virtual Canonical canonical(int n, int sweep_index) const = 0;
};

using OrderingPtr = std::shared_ptr<const Ordering>;

/// Smallest width w in [n, 2n+4] that `ordering` supports, or 0 when none
/// does. Every registered family supports some width within a factor of two
/// of any request (next power of two, next even width, next group multiple);
/// the +4 covers the tiny corner. The drivers pad to this width — columns,
/// or blocks for the block driver — and each caller words its own error.
int padded_width(const Ordering& ordering, int n) noexcept;

}  // namespace treesvd
