#pragma once
// SPMD one-sided Jacobi over the message-passing runtime — the shape of the
// paper's actual CM-5 implementation: one process per leaf, two columns per
// process, columns exchanged by tagged messages, convergence decided by an
// allreduce per sweep. There is no global clock: ranks synchronise only
// through the column messages themselves (dataflow), plus one collective per
// sweep. Every departing column is checked against the schedule's move, and
// every slot against the next step's layout, so a run also proves the
// ordering's schedule executable with exactly its moves as messages.
//
// Fault tolerance (opt-in via SpmdTransport): a fault plan with message
// faults runs the world over the reliable transport, which makes the run
// bit-identical to the fault-free one under any drop / duplicate / corrupt /
// delay schedule that stays below the plan's retry budget; sweep-boundary
// checkpoints let a killed rank be respawned — the engine picks the newest
// sweep every rank committed and calls World::run again — and the
// deterministic replay again reproduces the fault-free result bit-for-bit.
// All recovery activity is surfaced as SpmdStats::recovery.

#include "core/ordering.hpp"
#include "linalg/matrix.hpp"
#include "mp/message_passing.hpp"
#include "svd/jacobi.hpp"
#include "svd/recovery.hpp"

namespace treesvd {

struct SpmdStats {
  std::size_t messages = 0;      ///< logical column sends (replays included)
  mp::RecoveryStats recovery;    ///< transport + checkpoint/rollback counters
};

/// Chaos/robustness configuration for spmd_jacobi. Default-constructed it
/// enables sweep checkpointing but injects nothing; set a FaultPlan to run
/// under chaos.
struct SpmdTransport {
  mp::FaultPlan faults;         ///< deterministic fault schedule
  RecoveryOptions recovery;     ///< checkpoint cadence, rollback budget
  /// Transport backend: kInproc runs ranks as threads (default); kSocket
  /// runs every rank as its own OS process over UNIX-domain sockets, with
  /// `socket` supplying the wall-clock deadlines and heartbeat knobs. The
  /// engine publishes checkpoints and results to the world's durable blob
  /// board either way, so σ/U/V and every digest are bit-identical across
  /// backends (mp_socket_test and treesvd_chaos --backend=socket gate this).
  mp::Backend backend = mp::Backend::kInproc;
  mp::SocketConfig socket;
};

/// Runs the rank-per-leaf SPMD Jacobi program on n/2 concurrent ranks —
/// threads by default, one OS process each under SpmdTransport::backend ==
/// kSocket (after padding n to a width the ordering supports). Results are
/// bit-identical to one_sided_jacobi with the same options — also under any
/// fault plan in `transport` that stays below its retry and rollback
/// budgets.
SvdResult spmd_jacobi(const Matrix& a, const Ordering& ordering,
                      const JacobiOptions& options = {}, SpmdStats* stats = nullptr,
                      const SpmdTransport* transport = nullptr);

}  // namespace treesvd
