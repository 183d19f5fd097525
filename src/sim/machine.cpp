#include "sim/machine.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace treesvd {
namespace {

/// Adds one step to `cost`: one rotation on every leaf in parallel, then the
/// transition's `moves` as one synchronous message exchange priced by the
/// busiest channel. `cost`'s per-level vectors hold topo.levels() + 1
/// entries.
void add_step_cost(SweepCost& cost, const std::vector<ColumnMove>& moves,
                   const FatTreeTopology& topo, const CostParams& params) {
  cost.compute_time +=
      params.flops_per_rotation_per_row * params.words_per_column * params.flop_time;
  TrafficStep step(topo);
  for (const ColumnMove& mv : moves) {
    const int from = mv.from_slot / 2;
    const int to = mv.to_slot / 2;
    if (from == to) continue;
    step.add({from, to, params.words_per_column});
    cost.words_per_level[static_cast<std::size_t>(topo.route_level(from, to))] +=
        params.words_per_column;
  }
  const StepTraffic st = step.finish(params.alpha);
  cost.comm_time += st.time;
  cost.comm_words += st.total_words;
  cost.messages += st.messages;
  cost.max_overload = std::max(cost.max_overload, st.max_overload);
  cost.max_contention = std::max(cost.max_contention, st.max_contention);
  ++cost.transitions_using_level[static_cast<std::size_t>(st.max_level)];
}

}  // namespace

SweepCost analyze_sweep(const Sweep& sweep, const FatTreeTopology& topo,
                        const CostParams& params) {
  TREESVD_REQUIRE(sweep.leaves() == topo.leaves(),
                  "sweep leaf count must match the topology (one leaf per column pair)");
  SweepCost cost;
  cost.transitions_using_level.assign(static_cast<std::size_t>(topo.levels()) + 1, 0);
  cost.words_per_level.assign(static_cast<std::size_t>(topo.levels()) + 1, 0.0);
  // The final transition hands the columns to the next sweep, so it is part
  // of this sweep.
  for (int t = 0; t < sweep.steps(); ++t) add_step_cost(cost, sweep.moves(t), topo, params);
  cost.total_time = cost.compute_time + cost.comm_time;
  return cost;
}

ModeledRun model_run(const Ordering& ordering, const FatTreeTopology& topo, int n,
                     const CostParams& params, int sweeps) {
  TREESVD_REQUIRE(ordering.supports(n), "ordering does not support n");
  TREESVD_REQUIRE(n / 2 == topo.leaves(), "topology must have n/2 leaves");
  std::vector<int> layout(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) layout[static_cast<std::size_t>(i)] = i;

  ModeledRun run;
  run.per_sweep_total.transitions_using_level.assign(
      static_cast<std::size_t>(topo.levels()) + 1, 0);
  run.per_sweep_total.words_per_level.assign(static_cast<std::size_t>(topo.levels()) + 1, 0.0);
  for (int k = 0; k < sweeps; ++k) {
    const Sweep s = ordering.sweep_from(layout, k);
    const SweepCost c = analyze_sweep(s, topo, params);
    run.per_sweep_total.total_time += c.total_time;
    run.per_sweep_total.compute_time += c.compute_time;
    run.per_sweep_total.comm_time += c.comm_time;
    run.per_sweep_total.comm_words += c.comm_words;
    run.per_sweep_total.messages += c.messages;
    run.per_sweep_total.max_overload =
        std::max(run.per_sweep_total.max_overload, c.max_overload);
    run.per_sweep_total.max_contention =
        std::max(run.per_sweep_total.max_contention, c.max_contention);
    for (std::size_t l = 0; l < c.transitions_using_level.size(); ++l) {
      run.per_sweep_total.transitions_using_level[l] += c.transitions_using_level[l];
      run.per_sweep_total.words_per_level[l] += c.words_per_level[l];
    }
    const auto fin = s.final_layout();
    layout.assign(fin.begin(), fin.end());
    run.sweeps = k + 1;
  }
  return run;
}

}  // namespace treesvd
