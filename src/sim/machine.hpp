#pragma once
// Step-synchronous tree-machine model: binds an ordering to a fat-tree
// topology and prices a full SVD run the way the CM-5 experiments of the
// paper would measure it — per-step compute plus contended communication.

#include <cstddef>
#include <vector>

#include "core/ordering.hpp"
#include "network/topology.hpp"
#include "network/traffic.hpp"

namespace treesvd {

/// Cost parameters. The time unit is "one word through a base-capacity
/// channel"; flop_time converts arithmetic into the same unit.
struct CostParams {
  double words_per_column = 64.0;  ///< message size: the column length m
  double alpha = 2.0;              ///< per-tree-level hop latency
  double flop_time = 0.05;         ///< time per flop relative to one word
  /// Flops a leaf spends on one rotation of two length-m columns: the Gram
  /// pass (6m) + the update (6m) + the V update (6n ~ folded into beta).
  double flops_per_rotation_per_row = 14.0;
};

/// Cost breakdown of one sweep on one topology.
struct SweepCost {
  double total_time = 0.0;
  double compute_time = 0.0;
  double comm_time = 0.0;
  double comm_words = 0.0;
  std::size_t messages = 0;
  double max_overload = 0.0;   ///< worst per-channel words/capacity of any step
  double max_contention = 0.0; ///< worst stream contention of any step (<= 1: none)
  std::vector<std::size_t> transitions_using_level;  ///< [lvl]: transitions whose
                                                     ///< deepest message is lvl
  std::vector<double> words_per_level;  ///< [lvl]: words routed through LCA lvl
};

/// Adds one step to `cost`: one rotation on every leaf in parallel, then the
/// transition's `moves` as one synchronous message exchange priced by the
/// busiest channel. `cost`'s per-level vectors hold topo.levels() + 1
/// entries.
void add_step_cost(SweepCost& cost, const std::vector<ColumnMove>& moves,
                   const FatTreeTopology& topo, const CostParams& params);

/// Prices one sweep: each step costs one rotation (all leaves in parallel);
/// each transition is a synchronous message exchange priced by the busiest
/// channel. Requires sweep.leaves() == topo.leaves().
SweepCost analyze_sweep(const Sweep& sweep, const FatTreeTopology& topo,
                        const CostParams& params);

/// A full modelled run of `sweeps` sweeps (layout composed between sweeps).
struct ModeledRun {
  SweepCost per_sweep_total;  ///< sums/maxima over all sweeps
  int sweeps = 0;
};

ModeledRun model_run(const Ordering& ordering, const FatTreeTopology& topo, int n,
                     const CostParams& params, int sweeps);

}  // namespace treesvd
