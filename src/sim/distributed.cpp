#include "sim/distributed.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "linalg/blas1.hpp"
#include "svd/equilibrate.hpp"
#include "svd/pair_kernel.hpp"
#include "util/require.hpp"

namespace treesvd {
namespace {

/// Column storage physically owned by slots: slot s lives on leaf s/2.
class SlotStore {
 public:
  SlotStore(std::size_t slots, std::size_t rows) : rows_(rows) {
    data_.resize(slots);
    for (auto& c : data_) c.assign(rows, 0.0);
  }

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

  std::size_t rows() const noexcept { return rows_; }

 private:
  std::size_t rows_;
  std::vector<std::vector<double>> data_;
};

/// Full machine state at a sweep boundary: restoring it and replaying is
/// bit-identical to the uninterrupted run because every decision downstream
/// (schedule, rotations, fault injection) is a deterministic function of it.
struct MachineCheckpoint {
  int sweep = 0;
  std::vector<std::vector<double>> h, v;
  std::vector<int> index_at_slot, layout;
  KernelStats kernels;
  SweepCost cost;
  std::size_t delivered_messages = 0;
  double delivered_words = 0.0;
  std::size_t rotations = 0, swaps = 0;
  int sweeps = 0;
  std::uint64_t comm_op = 0;
  StallDetector stall;
};

void validate_chaos(const DistributedChaos& chaos, int leaves) {
  const mp::FaultPlan& p = chaos.faults;
  if (!p.enabled) return;
  TREESVD_REQUIRE(p.drop_prob == 0.0 && p.duplicate_prob == 0.0 && p.corrupt_prob == 0.0 &&
                      p.delay_prob == 0.0 && p.resend_drop_prob == 0.0,
                  "distributed_jacobi honours only kill faults; drop, duplicate, corrupt, delay "
                  "and resend faults require the real message transport (spmd_jacobi)");
  TREESVD_REQUIRE(p.kill_rank < leaves,
                  "kill_rank " + std::to_string(p.kill_rank) + " out of range for " +
                      std::to_string(leaves) + " leaves");
  TREESVD_REQUIRE(p.stall_rank < 0,
                  "distributed_jacobi is single-threaded; stall faults are meaningless here");
}

}  // namespace

DistributedResult distributed_jacobi(const Matrix& a, const Ordering& ordering,
                                     const FatTreeTopology& topology,
                                     const JacobiOptions& options, const CostParams& params,
                                     const DistributedChaos* chaos) {
  const int n = static_cast<int>(a.cols());
  TREESVD_REQUIRE(a.rows() >= a.cols() && n >= 2, "distributed_jacobi expects m >= n >= 2");
  TREESVD_REQUIRE(ordering.supports(n),
                  ordering.name() + " does not support n=" + std::to_string(n) +
                      " (the distributed machine does not pad)");
  TREESVD_REQUIRE(topology.leaves() == n / 2, "topology must have n/2 leaves");
  require_finite_columns(a, "distributed_jacobi");

  const RecoveryOptions recovery = chaos != nullptr ? chaos->recovery : RecoveryOptions{};
  const bool checkpointing = chaos != nullptr && recovery.checkpoint_sweeps > 0;
  std::optional<mp::FaultInjector> injector;
  if (chaos != nullptr && chaos->faults.enabled) {
    validate_chaos(*chaos, n / 2);
    injector.emplace(chaos->faults);
  }
  mp::RecoveryStats rec;

  const std::size_t rows = a.rows();
  // Equilibrate once, before the initial distribution, so every travelling
  // column works at the same exact power-of-two scale.
  Matrix a_eq = a;
  const Equilibration eq = equilibrate(a_eq, options.equilibrate);
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
  StallDetector stall(options.stall_window);
  std::uint64_t comm_op = 0;  // executed communication steps (kill ordinal)
  std::optional<MachineCheckpoint> checkpoint;
  int start_sweep = 0;

  // The machine is single-threaded, so a single latest sweep-boundary
  // snapshot is always globally consistent; a kill rolls the whole machine
  // back to it and the deterministic replay reproduces the interrupted run
  // bit-for-bit (the kill latch is one-shot, so the replay proceeds past it).
  for (;;) {
    try {
      for (int sweep = start_sweep; sweep < options.max_sweeps; ++sweep) {
        if (checkpointing && sweep % recovery.checkpoint_sweeps == 0) {
          MachineCheckpoint cp;
          cp.sweep = sweep;
          cp.h.reserve(static_cast<std::size_t>(n));
          cp.v.reserve(static_cast<std::size_t>(n));
          for (int s2 = 0; s2 < n; ++s2) {
            cp.h.emplace_back(h.at(s2).begin(), h.at(s2).end());
            cp.v.emplace_back(v.at(s2).begin(), v.at(s2).end());
          }
          cp.index_at_slot = index_at_slot;
          cp.layout = layout;
          cp.kernels = counters.snapshot();
          cp.cost = out.cost;
          cp.delivered_messages = out.delivered_messages;
          cp.delivered_words = out.delivered_words;
          cp.rotations = out.svd.rotations;
          cp.swaps = out.svd.swaps;
          cp.sweeps = out.svd.sweeps;
          cp.comm_op = comm_op;
          cp.stall = stall;
          checkpoint = std::move(cp);
          ++rec.checkpoints;
        }
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
            const detail::PairOutcome o = kernel.process(
                h.at(slot_lo), h.at(slot_hi), v.at(slot_lo), v.at(slot_hi), &counters);
            sweep_rot += o.rotated ? 1 : 0;
            sweep_swap += o.swapped ? 1 : 0;
          }
          out.cost.compute_time += rot_time;

          // Fault hook: the kill ordinal counts executed communication steps.
          if (injector && chaos->faults.kill_rank >= 0 &&
              injector->should_kill(chaos->faults.kill_rank, comm_op)) {
            ++rec.kills;
            throw mp::RankKilledError(chaos->faults.kill_rank, comm_op);
          }

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
          ++comm_op;
        }
        const auto fin = s.final_layout();
        layout.assign(fin.begin(), fin.end());
        out.svd.rotations += sweep_rot;
        out.svd.swaps += sweep_swap;
        out.svd.sweeps = sweep + 1;
        if (sweep_rot == 0 && sweep_swap == 0) {
          out.svd.converged = true;
          break;
        }
        stall.observe(static_cast<double>(sweep_rot + sweep_swap));
      }
      break;
    } catch (const mp::RankKilledError&) {
      if (!checkpoint.has_value() ||
          rec.rollbacks >= static_cast<std::size_t>(recovery.max_rollbacks))
        throw;
      ++rec.rollbacks;
      const MachineCheckpoint& cp = *checkpoint;
      for (int s2 = 0; s2 < n; ++s2) {
        std::copy(cp.h[static_cast<std::size_t>(s2)].begin(),
                  cp.h[static_cast<std::size_t>(s2)].end(), h.at(s2).begin());
        std::copy(cp.v[static_cast<std::size_t>(s2)].begin(),
                  cp.v[static_cast<std::size_t>(s2)].end(), v.at(s2).begin());
      }
      index_at_slot = cp.index_at_slot;
      layout = cp.layout;
      counters.store(cp.kernels);
      out.cost = cp.cost;
      out.delivered_messages = cp.delivered_messages;
      out.delivered_words = cp.delivered_words;
      out.svd.rotations = cp.rotations;
      out.svd.swaps = cp.swaps;
      out.svd.sweeps = cp.sweeps;
      comm_op = cp.comm_op;
      stall = cp.stall;
      start_sweep = cp.sweep;
    }
  }
  out.cost.total_time = out.cost.compute_time + out.cost.comm_time;
  out.svd.kernel_stats = counters.snapshot();
  out.svd.kernel_stats.isa_tier = static_cast<int>(resolved_isa());
  out.recovery = rec;

  // Gather: index i's column sits at the slot the final layout assigns it.
  std::vector<int> slot_of(static_cast<std::size_t>(n));
  for (int slot = 0; slot < n; ++slot)
    slot_of[static_cast<std::size_t>(index_at_slot[static_cast<std::size_t>(slot)])] = slot;

  out.svd.sigma.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    out.svd.sigma[static_cast<std::size_t>(i)] = nrm2(h.at(slot_of[static_cast<std::size_t>(i)]));
  const double smax = *std::max_element(out.svd.sigma.begin(), out.svd.sigma.end());

  out.svd.u = Matrix(rows, static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double sig = out.svd.sigma[static_cast<std::size_t>(i)];
    if (sig <= options.rank_tol * smax || sig == 0.0) continue;
    const auto src = h.at(slot_of[static_cast<std::size_t>(i)]);
    const auto dst = out.svd.u.col(static_cast<std::size_t>(i));
    for (std::size_t r = 0; r < rows; ++r) dst[r] = src[r] / sig;
  }
  if (options.compute_v) {
    out.svd.v = Matrix(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const auto src = v.at(slot_of[static_cast<std::size_t>(i)]);
      const auto dst = out.svd.v.col(static_cast<std::size_t>(i));
      std::copy(src.begin(), src.end(), dst.begin());
    }
  }
  // U was formed at the equilibrated scale (the 2^e factor cancels bitwise);
  // only sigma carries the scale and is undone exactly here.
  unscale_sigma(out.svd.sigma, eq);
  out.svd.status = out.svd.converged
                       ? SvdStatus::kConverged
                       : (stall.stalled() ? SvdStatus::kStalled : SvdStatus::kMaxSweeps);
  out.svd.diagnostics.input_scale = eq.stats;
  out.svd.diagnostics.equilibrated = eq.applied;
  out.svd.diagnostics.equilibration_exponent = eq.exponent;
  out.svd.diagnostics.stalled_sweeps = stall.streak();
  if (!out.svd.converged || options.full_diagnostics)
    assess_quality(a, out.svd, eq.exponent, options.rank_tol);
  return out;
}

}  // namespace treesvd
