#pragma once
// The paper's fat-tree ordering (Section 3): two-block ordering, four-block
// ordering, and the merge procedure that composes them into a full Jacobi
// sweep whose communication is overwhelmingly local on a binary fat-tree.

#include <span>
#include <vector>

#include "core/ordering.hpp"

namespace treesvd {

/// Result of a (partial) block ordering: one region layout per step, plus the
/// region layout after the final movement. Regions list indices slot by slot.
struct BlockRows {
  std::vector<std::vector<int>> rows;
  std::vector<int> final_layout;
};

/// Two-block ordering (Section 3.1). Blocks x and y (equal power-of-two
/// sizes) are interleaved in a region [x0,y0,x1,y1,...]; each step pairs the
/// region's even/odd slots; |x| steps pair every x-index with every y-index
/// exactly once. The y side is the rotating block: after the sweep its two
/// halves have exchanged places (each half internally in order), which is
/// undone by the next application — exactly the paper's bookkeeping.
///
/// A region of 2^(k+1) slots needs one level-k exchange between its two
/// super-steps (and recursively below), which is where the divide-and-conquer
/// keeps communication local.
BlockRows two_block_rows(std::span<const int> x, std::span<const int> y);

/// Four-block basic module variants of Fig. 4.
enum class FourBlockVariant {
  kOrderPreserving,  ///< Fig. 4(a): (1,2)(3,4) / (1,3)(2,4) / (1,4)(2,3); order kept
  kSwapping,         ///< Fig. 4(b): (1,2)(3,4) / (1,4)(2,3) / (1,3)(2,4); 3,4 end swapped
};

/// Basic four-block module on four indices (Fig. 4): three steps pairing all
/// six index pairs.
BlockRows four_block_module(std::span<const int> ids, FourBlockVariant variant);

/// One full fat-tree sweep applied to an arbitrary region (used by the hybrid
/// ordering's intra-group super-step): rows are the region layouts of the
/// region.size()-1 steps; final_layout equals the input region (the ordering
/// restores its arrangement).
BlockRows fat_tree_region_rows(std::span<const int> region);

/// The fat-tree ordering (Sections 3.2-3.3): stage 1 runs the four-block
/// module on groups of four; each later stage merges neighbouring groups with
/// super-steps 2 and 3 of the four-block ordering (super-step 1 is the
/// previous stage) realised by two-block orderings, then returns the blocks
/// to their home positions. One sweep takes n-1 steps and restores the
/// original index order (the property the Lee-Luk-Boley ordering [8] lacks).
///
/// Requires n to be a power of two, n >= 4.
class FatTreeOrdering final : public Ordering {
 public:
  std::string name() const override { return "fat-tree"; }
  bool supports(int n) const override { return n >= 4 && (n & (n - 1)) == 0; }
  int steps(int n) const override { return n - 1; }

 protected:
  Canonical canonical(int n, int sweep_index) const override;
};

/// Lee-Luk-Boley-style fat-tree ordering [8], reconstructed as the
/// *non-restoring* variant of the merge procedure: identical pair coverage
/// and communication structure, but the blocks are left where the exchanges
/// deposited them, so a forward sweep ends with the indices permuted. Even
/// sweeps therefore run the procedure backwards (the forward step sequence in
/// reverse), after which the order is restored — reproducing the behaviour
/// the paper criticises: variable spacing between repetitions of a pair and,
/// on average, an extra half-sweep when convergence needs an even sweep
/// count. The first rotation of each backward sweep repeats the last forward
/// pair, the "free" rotation noted in Section 3.
class LlbFatTreeOrdering final : public Ordering {
 public:
  std::string name() const override { return "llb-fat-tree"; }
  bool supports(int n) const override { return n >= 4 && (n & (n - 1)) == 0; }
  int steps(int n) const override { return n - 1; }
  int procedures() const override { return 2; }

 protected:
  Canonical canonical(int n, int sweep_index) const override;
};

}  // namespace treesvd
