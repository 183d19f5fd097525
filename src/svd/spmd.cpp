#include "svd/spmd.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "mp/message_passing.hpp"
#include "svd/driver_detail.hpp"
#include "svd/equilibrate.hpp"
#include "svd/pair_kernel.hpp"
#include "util/require.hpp"

namespace treesvd {
namespace {

/// Rollbacks a run under a SpmdTransport may take before a rank kill is
/// rethrown to the caller.
constexpr int kMaxRollbacks = 8;

/// Unique message tag per (sweep, step, destination slot): ranks never need
/// a step barrier — matching tags order the dataflow.
std::uint64_t make_tag(int sweep, int step, int to_slot) {
  return (static_cast<std::uint64_t>(sweep) << 40) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(step)) << 20) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(to_slot));
}

struct SlotState {
  int label = -1;               ///< which logical column occupies the slot
  std::vector<double> h;        ///< column of A/H
  std::vector<double> v;        ///< column of V (empty when not tracked)
};

/// One rank's state at a sweep boundary. It travels through the world's
/// durable blob board twice over: as a checkpoint before a sweep (everything
/// needed to replay the run bit-identically from the sweep it names), and as
/// the rank's share of the result after its last sweep.
struct RankState {
  int sweep = 0;              ///< checkpoint: the sweep about to run; result: sweeps run
  bool converged = false;     ///< the run ended on a zero-activity sweep
  std::size_t rot = 0;        ///< rotations accumulated so far
  std::size_t swap = 0;       ///< swaps accumulated so far
  std::vector<int> layout;    ///< the next sweep's opening layout (global)
  KernelStats kernels;        ///< this rank's kernel counters at the boundary
  StallDetector stall;        ///< observational status classifier state
  SlotState slot[2];
};

// ---------------------------------------------------------------------------
// Durable blob board layout. Checkpoints and results travel through
// Context::publish so they survive rank *processes* dying (socket backend);
// the in-process backend stores the identical bytes on the same board, which
// is what keeps the two backends bit-identical: one serialisation, one code
// path. Doubles round-trip exactly; integer counters stay below 2^53.

/// Checkpoints: a ring of two board slots per rank, cycled by boundary index
/// (ranks drift by at most one boundary, so the newest boundary *all* ranks
/// committed is always on the board). Results: one slot per rank.
std::uint64_t checkpoint_key(int rank, int slot) {
  return (std::uint64_t{1} << 56) | (static_cast<std::uint64_t>(rank) << 8) |
         static_cast<std::uint64_t>(slot);
}
std::uint64_t result_key(int rank) {
  return (std::uint64_t{2} << 56) | static_cast<std::uint64_t>(rank);
}

void pack_slot(const SlotState& s, std::vector<double>& out) {
  out.push_back(static_cast<double>(s.label));
  out.push_back(static_cast<double>(s.h.size()));
  out.push_back(static_cast<double>(s.v.size()));
  out.insert(out.end(), s.h.begin(), s.h.end());
  out.insert(out.end(), s.v.begin(), s.v.end());
}

/// Returns the number of doubles consumed.
std::size_t unpack_slot(const double* p, SlotState* s) {
  s->label = static_cast<int>(p[0]);
  const auto hn = static_cast<std::size_t>(p[1]);
  const auto vn = static_cast<std::size_t>(p[2]);
  s->h.assign(p + 3, p + 3 + hn);
  s->v.assign(p + 3 + hn, p + 3 + hn + vn);
  return 3 + hn + vn;
}

/// The live KernelStats counters; dot_passes and norm_refreshes always read
/// 0 and are not packed.
constexpr std::size_t kKernelsPacked = 6;

/// Blob: [sweep, converged, rot, swap, layout(n), kernels, stall, slot0,
/// slot1]. `sweep` stays the first word: the recovery loop reads it alone.
std::vector<double> pack_state(const RankState& st) {
  std::vector<double> out;
  out.reserve(4 + st.layout.size() + kKernelsPacked + StallDetector::kPacked +
              2 * (3 + st.slot[0].h.size() + st.slot[0].v.size()));
  out.push_back(static_cast<double>(st.sweep));
  out.push_back(st.converged ? 1.0 : 0.0);
  out.push_back(static_cast<double>(st.rot));
  out.push_back(static_cast<double>(st.swap));
  for (const int l : st.layout) out.push_back(static_cast<double>(l));
  const KernelStats& k = st.kernels;
  for (const std::size_t c : {k.pairs, k.gram_passes, k.rotate_passes, k.gram_builds,
                              k.accum_rotations, k.blocked_applies})
    out.push_back(static_cast<double>(c));
  st.stall.pack(out);
  pack_slot(st.slot[0], out);
  pack_slot(st.slot[1], out);
  return out;
}

RankState unpack_state(const std::vector<double>& blob, int n) {
  RankState st;
  const double* p = blob.data();
  st.sweep = static_cast<int>(p[0]);
  st.converged = p[1] != 0.0;
  st.rot = static_cast<std::size_t>(p[2]);
  st.swap = static_cast<std::size_t>(p[3]);
  p += 4;
  st.layout.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) st.layout[static_cast<std::size_t>(i)] = static_cast<int>(p[i]);
  p += n;
  KernelStats& k = st.kernels;
  for (std::size_t* c : {&k.pairs, &k.gram_passes, &k.rotate_passes, &k.gram_builds,
                         &k.accum_rotations, &k.blocked_applies})
    *c = static_cast<std::size_t>(*p++);
  st.stall = StallDetector::unpack(p);
  p += StallDetector::kPacked;
  p += unpack_slot(p, &st.slot[0]);
  unpack_slot(p, &st.slot[1]);
  return st;
}

}  // namespace

SvdResult spmd_jacobi(const Matrix& a, const Ordering& ordering, const JacobiOptions& options,
                      SpmdStats* stats, const SpmdTransport* transport) {
  TREESVD_REQUIRE(a.rows() >= a.cols() && a.cols() >= 2, "spmd_jacobi expects m >= n >= 2");
  require_finite_columns(a, "spmd_jacobi");
  const int n0 = static_cast<int>(a.cols());
  const int n = detail::require_padded_width(ordering, n0);
  const std::size_t rows = a.rows();
  const int ranks = n / 2;

  // A transport turns on the sweep checkpoints a rollback restores from.
  const bool checkpointing = transport != nullptr;
  // Level 0 of the engine hierarchy, bound once and shared by every rank
  // (thread-safe across disjoint pairs).
  const detail::PairKernel kernel(options);

  // Equilibration happens once, before the scatter, so every rank works at
  // the same exact power-of-two scale.
  Matrix a_eq = a;
  detail::SweepGuards guards;
  guards.eq = equilibrate(a_eq, options.equilibrate);

  mp::World world(ranks);
  if (transport != nullptr) {
    if (transport->backend == mp::Backend::kSocket)
      world.set_backend(mp::Backend::kSocket, transport->socket);
    world.set_fault_plan(transport->faults);
  }
  mp::RecoveryCounters& rc = world.recovery_counters();

  // All cross-run state — checkpoints, per-rank results, per-rank kernel
  // counters — lives on the world's durable blob board (see the key helpers
  // above): it is the only rank-written state that survives a rank process
  // dying, and the in-process backend uses the identical serialisation, so
  // both backends run one code path.
  int restore_sweep = -1;  // < 0: fresh start from the input matrix

  const auto program = [&](mp::Context& ctx) {
    const int me = ctx.rank();
    // Rank-local kernel counters: zero on a fresh start, restored from the
    // checkpoint on a replay, folded into the result blob at the end — so a
    // respawned rank process starts from the same counter state a rolled-back
    // thread would.
    KernelCounters counters;
    // Local state: this rank's two slots and its sweep progress. Control is
    // replicated: every rank feeds the same collective activity, so the
    // classifier state is identical everywhere; rank 0's is the result's.
    RankState st;
    auto& slot = st.slot;
    if (restore_sweep < 0) {
      for (int k = 0; k < 2; ++k) {
        const int s = 2 * me + k;
        slot[k].label = s;
        slot[k].h.assign(rows, 0.0);
        if (s < n0) {
          const auto src = a_eq.col(static_cast<std::size_t>(s));
          std::copy(src.begin(), src.end(), slot[k].h.begin());
        }
        if (options.compute_v) {
          slot[k].v.assign(static_cast<std::size_t>(n), 0.0);
          slot[k].v[static_cast<std::size_t>(s)] = 1.0;
        }
      }
      // Every rank derives the identical schedule (SPMD-style replicated
      // control); the layout evolves deterministically between sweeps.
      st.layout.resize(static_cast<std::size_t>(n));
      std::iota(st.layout.begin(), st.layout.end(), 0);
    } else {
      // Respawn: resume from the newest boundary every rank committed. The
      // board is readable here on both backends — shared memory in-process,
      // the forked copy of the launcher's board in a rank process.
      bool found = false;
      for (int sl = 0; sl < 2 && !found; ++sl) {
        const std::uint64_t key = checkpoint_key(me, sl);
        if (!world.has_published(key)) continue;
        RankState cand = unpack_state(world.published(key), n);
        if (cand.sweep == restore_sweep) {
          st = std::move(cand);
          found = true;
        }
      }
      TREESVD_ASSERT(found);
      counters.store(st.kernels);
    }
    // Newest boundary already on this rank's board ring: a rank that rolled
    // back past boundaries it had committed skips re-publishing them — the
    // deterministic replay would recreate the same bytes.
    int ring_newest = -1;
    for (int sl = 0; sl < 2; ++sl) {
      const std::uint64_t key = checkpoint_key(me, sl);
      if (world.has_published(key))
        ring_newest = std::max(ring_newest, static_cast<int>(world.published(key)[0]));
    }

    for (; st.sweep < options.max_sweeps && !st.converged; ++st.sweep) {
      const int sweep = st.sweep;
      // Sweep-boundary checkpoint, before any of this sweep's work. A rank
      // that already holds this boundary (rolled back past it) skips the
      // push — the deterministic replay would recreate the same bytes.
      if (checkpointing && ring_newest < sweep) {
        st.kernels = counters.snapshot();
        // The two board slots per rank form the ring: the sweep index
        // alternates between them, overwriting the snapshot that is two
        // boundaries old.
        ctx.publish(checkpoint_key(me, sweep % 2), pack_state(st));
        ring_newest = sweep;
        if (me == 0) rc.add_checkpoint();
      }
      const Sweep s = ordering.sweep_from(st.layout, sweep);
      // Intra-leaf reconciliation: the sweep's opening layout may orient this
      // leaf's pair the other way round; swapping locally is free.
      {
        const auto lay0 = s.layout(0);
        if (lay0[static_cast<std::size_t>(2 * me)] != slot[0].label) {
          TREESVD_ASSERT(lay0[static_cast<std::size_t>(2 * me)] == slot[1].label);
          std::swap(slot[0], slot[1]);
        }
      }
      std::size_t sweep_rot = 0;
      std::size_t sweep_swap = 0;
      for (int t = 0; t < s.steps(); ++t) {
        // Compute: rotate the resident pair (if this leaf is active).
        if (s.leaf_active(t, me)) {
          const int lo = slot[0].label < slot[1].label ? 0 : 1;
          const int hi = 1 - lo;
          const std::span<double> none;
          const std::span<double> vlo = options.compute_v ? std::span<double>(slot[lo].v) : none;
          const std::span<double> vhi = options.compute_v ? std::span<double>(slot[hi].v) : none;
          const detail::PairOutcome o =
              kernel.process(slot[lo].h, slot[hi].h, vlo, vhi, &counters);
          sweep_rot += o.rotated ? 1 : 0;
          sweep_swap += o.swapped ? 1 : 0;
        }
        // Communicate: emit this leaf's departures, then absorb arrivals.
        const auto moves = s.moves(t);
        for (const ColumnMove& mv : moves) {
          const int from_leaf = mv.from_slot / 2;
          if (from_leaf != me) continue;
          const int k = mv.from_slot - 2 * me;
          TREESVD_ASSERT(slot[k].label == mv.index);
          const int to_leaf = mv.to_slot / 2;
          if (to_leaf == me) continue;  // intra-leaf handled below
          std::vector<double> payload;
          payload.reserve(1 + rows + slot[k].v.size());
          payload.push_back(static_cast<double>(mv.index));
          payload.insert(payload.end(), slot[k].h.begin(), slot[k].h.end());
          payload.insert(payload.end(), slot[k].v.begin(), slot[k].v.end());
          ctx.send(to_leaf, make_tag(sweep, t, mv.to_slot), std::move(payload));
        }
        // Intra-leaf rearrangement and arrivals build the next layout state.
        SlotState next[2];
        const auto to = s.layout(t + 1);
        for (int k = 0; k < 2; ++k) {
          const int dst_slot = 2 * me + k;
          const int want = to[static_cast<std::size_t>(dst_slot)];
          if (slot[0].label == want) {
            next[k] = std::move(slot[0]);
            slot[0].label = -1;
          } else if (slot[1].label == want) {
            next[k] = std::move(slot[1]);
            slot[1].label = -1;
          } else {
            // Arrives by message; sender is known from the schedule.
            int src_leaf = -1;
            for (const ColumnMove& mv : moves) {
              if (mv.to_slot == dst_slot) {
                src_leaf = mv.from_slot / 2;
                break;
              }
            }
            TREESVD_ASSERT(src_leaf >= 0 && src_leaf != me);
            std::vector<double> payload = ctx.recv(src_leaf, make_tag(sweep, t, dst_slot));
            TREESVD_ASSERT(payload.size() ==
                           1 + rows + (options.compute_v ? static_cast<std::size_t>(n) : 0u));
            next[k].label = static_cast<int>(payload[0]);
            TREESVD_ASSERT(next[k].label == want);
            next[k].h.assign(payload.begin() + 1,
                             payload.begin() + 1 + static_cast<std::ptrdiff_t>(rows));
            if (options.compute_v)
              next[k].v.assign(payload.begin() + 1 + static_cast<std::ptrdiff_t>(rows),
                               payload.end());
          }
        }
        slot[0] = std::move(next[0]);
        slot[1] = std::move(next[1]);
      }
      const auto fin = s.final_layout();
      st.layout.assign(fin.begin(), fin.end());
      st.rot += sweep_rot;
      st.swap += sweep_swap;
      // Convergence is a collective decision: the rule applied to the
      // allreduced activity.
      const double active = ctx.allreduce_sum(static_cast<double>(sweep_rot + sweep_swap));
      st.converged = detail::sweep_converged(active, st.stall);
    }

    // Publish: each rank posts its two slots of the final state (and its
    // share of the totals) to the durable board — the only channel that
    // survives the rank when it is a process.
    st.kernels = counters.snapshot();
    ctx.publish(result_key(me), pack_state(st));
  };

  // Recovery loop: a killed rank is respawned by rolling the whole world
  // back to the newest checkpoint every rank committed and running it again
  // (each run starts from an empty transport) — the engine is
  // deterministic, so the replay is bit-identical to the run the kill
  // interrupted. Program errors are not recoverable and propagate.
  for (;;) {
    try {
      world.run(program);
      break;
    } catch (const mp::RankKilledError&) {
      if (!checkpointing) throw;
      int newest_common = -1;
      for (int rr = 0; rr < ranks; ++rr) {
        // Every rank publishes its sweep-0 boundary before its first
        // transport op, and a process's pre-kill publishes reach the board
        // in stream order, so the board always has a boundary per rank.
        int newest = -1;
        for (int sl = 0; sl < 2; ++sl) {
          const std::uint64_t key = checkpoint_key(rr, sl);
          if (world.has_published(key))
            newest = std::max(newest, static_cast<int>(world.published(key)[0]));
        }
        TREESVD_ASSERT(newest >= 0);
        newest_common = newest_common < 0 ? newest : std::min(newest_common, newest);
      }
      if (rc.snapshot().rollbacks >= static_cast<std::size_t>(kMaxRollbacks)) throw;
      rc.add_rollback();
      restore_sweep = newest_common;
    }
  }

  if (stats != nullptr) {
    stats->messages = world.delivered();
    stats->recovery = world.recovery_stats();
  }

  // Assemble the result by label from the published rank states, exactly
  // like the other engines. Replicated control (sweeps/converged/stall) is
  // read from rank 0; the additive totals are summed in rank order.
  std::vector<RankState> results;
  results.reserve(static_cast<std::size_t>(ranks));
  for (int rr = 0; rr < ranks; ++rr)
    results.push_back(unpack_state(world.published(result_key(rr)), n));

  SvdResult r;
  r.sweeps = results[0].sweep;
  r.converged = results[0].converged;
  guards.stall = results[0].stall;
  for (const RankState& res : results) {
    r.rotations += res.rot;
    r.swaps += res.swap;
    r.kernel_stats += res.kernels;
  }
  r.kernel_stats.isa_tier = static_cast<int>(resolved_isa());

  std::vector<std::span<const double>> h(static_cast<std::size_t>(n0));
  std::vector<std::span<const double>> v(options.compute_v ? h.size() : 0);
  for (const RankState& res : results)
    for (const SlotState& sl : res.slot) {
      if (sl.label >= n0) continue;  // padding
      h[static_cast<std::size_t>(sl.label)] = sl.h;
      if (!v.empty()) v[static_cast<std::size_t>(sl.label)] = sl.v;
    }
  return detail::finalize(h, v, a, options.rank_tol, options.full_diagnostics, guards,
                          std::move(r));
}

}  // namespace treesvd
