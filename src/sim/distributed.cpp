#include "sim/distributed.hpp"

#include <algorithm>
#include <span>
#include <string>
#include <utility>

#include "svd/driver_detail.hpp"
#include "svd/equilibrate.hpp"
#include "svd/pair_kernel.hpp"
#include "util/require.hpp"

namespace treesvd {
namespace {

/// Column storage physically owned by slots: slot s lives on leaf s/2.
class SlotStore {
 public:
  SlotStore(std::size_t slots, std::size_t rows)
      : data_(slots, std::vector<double>(rows, 0.0)) {}

  std::span<double> at(int slot) { return data_[static_cast<std::size_t>(slot)]; }

  void swap_slots(int a, int b) {
    std::swap(data_[static_cast<std::size_t>(a)], data_[static_cast<std::size_t>(b)]);
  }

  void move_all(const std::vector<ColumnMove>& moves) {
    // Two-phase synchronous exchange: every message is captured before any
    // delivery, exactly as a barrier-separated communication step behaves.
    std::vector<std::pair<int, std::vector<double>>> in_flight;
    in_flight.reserve(moves.size());
    for (const ColumnMove& mv : moves)
      in_flight.emplace_back(mv.to_slot, std::move(data_[static_cast<std::size_t>(mv.from_slot)]));
    for (auto& [to, col] : in_flight) data_[static_cast<std::size_t>(to)] = std::move(col);
  }

 private:
  std::vector<std::vector<double>> data_;
};

}  // namespace

DistributedResult distributed_jacobi(const Matrix& a, const Ordering& ordering,
                                     const FatTreeTopology& topology,
                                     const JacobiOptions& options, const CostParams& params) {
  const int n = static_cast<int>(a.cols());
  TREESVD_REQUIRE(a.rows() >= a.cols() && n >= 2, "distributed_jacobi expects m >= n >= 2");
  TREESVD_REQUIRE(ordering.supports(n),
                  ordering.name() + " does not support n=" + std::to_string(n) +
                      " (the distributed machine does not pad)");
  TREESVD_REQUIRE(topology.leaves() == n / 2, "topology must have n/2 leaves");
  require_finite_columns(a, "distributed_jacobi");

  const std::size_t rows = a.rows();
  // Equilibrate once, before the initial distribution, so every travelling
  // column works at the same exact power-of-two scale.
  Matrix a_eq = a;
  detail::SweepGuards guards(options.stall_window);
  guards.eq = equilibrate(a_eq, options.equilibrate);
  SlotStore h(static_cast<std::size_t>(n), rows);
  SlotStore v(static_cast<std::size_t>(n), static_cast<std::size_t>(n));

  // Initial distribution: slot s holds column s of A and e_s of V.
  std::vector<int> index_at_slot(static_cast<std::size_t>(n));
  const detail::PairKernel kernel(options);
  KernelCounters counters;
  for (int s = 0; s < n; ++s) {
    index_at_slot[static_cast<std::size_t>(s)] = s;
    const auto src = a_eq.col(static_cast<std::size_t>(s));
    std::copy(src.begin(), src.end(), h.at(s).begin());
    v.at(s)[static_cast<std::size_t>(s)] = 1.0;
  }

  DistributedResult out;
  out.cost.transitions_using_level.assign(static_cast<std::size_t>(topology.levels()) + 1, 0);
  out.cost.words_per_level.assign(static_cast<std::size_t>(topology.levels()) + 1, 0.0);
  const double rot_time =
      params.flops_per_rotation_per_row * params.words_per_column * params.flop_time;

  std::vector<int> layout(index_at_slot);
  for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
    const Sweep s = ordering.sweep_from(layout, sweep);
    // A sweep's opening layout may orient pairs within a leaf differently
    // from how the previous sweep deposited them (intra-leaf placement is
    // free); reconcile the slot buffers. Anything beyond an intra-leaf swap
    // would be an unscheduled transfer and is rejected.
    {
      const auto lay0 = s.layout(0);
      for (int leaf = 0; leaf < n / 2; ++leaf) {
        const int lo = 2 * leaf;
        const int hi = 2 * leaf + 1;
        if (lay0[static_cast<std::size_t>(lo)] == index_at_slot[static_cast<std::size_t>(lo)])
          continue;
        TREESVD_ASSERT(lay0[static_cast<std::size_t>(lo)] ==
                           index_at_slot[static_cast<std::size_t>(hi)] &&
                       lay0[static_cast<std::size_t>(hi)] ==
                           index_at_slot[static_cast<std::size_t>(lo)]);
        std::swap(index_at_slot[static_cast<std::size_t>(lo)],
                  index_at_slot[static_cast<std::size_t>(hi)]);
        h.swap_slots(lo, hi);
        v.swap_slots(lo, hi);
      }
    }
    std::size_t sweep_rot = 0;
    std::size_t sweep_swap = 0;
    for (int t = 0; t < s.steps(); ++t) {
      // Residency check: the schedule's layout must equal physical placement.
      const auto lay = s.layout(t);
      for (int slot = 0; slot < n; ++slot)
        TREESVD_ASSERT(lay[static_cast<std::size_t>(slot)] ==
                       index_at_slot[static_cast<std::size_t>(slot)]);

      // Compute phase: every active leaf rotates its resident pair.
      for (int leaf = 0; leaf < n / 2; ++leaf) {
        if (!s.leaf_active(t, leaf)) continue;
        int slot_lo = 2 * leaf;
        int slot_hi = 2 * leaf + 1;
        if (index_at_slot[static_cast<std::size_t>(slot_lo)] >
            index_at_slot[static_cast<std::size_t>(slot_hi)])
          std::swap(slot_lo, slot_hi);  // x = column of the smaller index
        const detail::PairOutcome o = kernel.process(h.at(slot_lo), h.at(slot_hi), v.at(slot_lo),
                                                     v.at(slot_hi), &counters);
        sweep_rot += o.rotated ? 1 : 0;
        sweep_swap += o.swapped ? 1 : 0;
      }
      out.cost.compute_time += rot_time;

      // Communication phase: route each inter-leaf move through the tree.
      const std::vector<ColumnMove> moves = s.moves(t);
      TrafficStep step(topology);
      for (const ColumnMove& mv : moves) {
        const int from = mv.from_slot / 2;
        const int to = mv.to_slot / 2;
        if (from == to) continue;
        step.add({from, to, params.words_per_column});
        out.cost.words_per_level[static_cast<std::size_t>(topology.route_level(from, to))] +=
            params.words_per_column;
        ++out.delivered_messages;
        out.delivered_words += params.words_per_column;
      }
      const StepTraffic st = step.finish(params.alpha);
      out.cost.comm_time += st.time;
      out.cost.comm_words += st.total_words;
      out.cost.messages += st.messages;
      out.cost.max_overload = std::max(out.cost.max_overload, st.max_overload);
      out.cost.max_contention = std::max(out.cost.max_contention, st.max_contention);
      ++out.cost.transitions_using_level[static_cast<std::size_t>(st.max_level)];

      // Deliver: physically relocate the columns (H and V travel
      // together, like the spmd engine's column payload).
      h.move_all(moves);
      v.move_all(moves);
      for (const ColumnMove& mv : moves)
        index_at_slot[static_cast<std::size_t>(mv.to_slot)] = mv.index;
    }
    const auto fin = s.final_layout();
    layout.assign(fin.begin(), fin.end());
    if (detail::end_sweep(out.svd, sweep, sweep_rot, sweep_swap, guards.stall)) break;
  }
  out.cost.total_time = out.cost.compute_time + out.cost.comm_time;
  out.svd.kernel_stats = counters.snapshot();
  out.svd.kernel_stats.isa_tier = static_cast<int>(resolved_isa());

  // Index i's column sits at the slot the final layout assigns it.
  std::vector<std::span<const double>> hc(static_cast<std::size_t>(n));
  std::vector<std::span<const double>> vc(options.compute_v ? hc.size() : 0);
  for (int slot = 0; slot < n; ++slot) {
    const auto i = static_cast<std::size_t>(index_at_slot[static_cast<std::size_t>(slot)]);
    hc[i] = h.at(slot);
    if (!vc.empty()) vc[i] = v.at(slot);
  }
  out.svd = detail::finalize(hc, vc, a, options.rank_tol, options.full_diagnostics, guards,
                             std::move(out.svd));
  return out;
}

}  // namespace treesvd
