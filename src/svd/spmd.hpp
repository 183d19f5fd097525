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
// Fault tolerance (opt-in via SpmdTransport): the transports deliver every
// message, and the one failure is a rank dying — the fault plan's kill, or
// on the socket backend a rank process killed from outside. With a
// transport, every sweep boundary is checkpointed, so a killed rank is
// respawned: the engine picks the newest sweep every rank committed and
// calls World::run again, up to 8 times, and the deterministic replay
// reproduces the fault-free result bit-for-bit. All recovery activity is
// surfaced as SpmdStats::recovery.

#include "core/ordering.hpp"
#include "linalg/matrix.hpp"
#include "mp/message_passing.hpp"
#include "svd/jacobi.hpp"

namespace treesvd {

struct SpmdStats {
  std::size_t messages = 0;      ///< logical column sends (replays included)
  mp::RecoveryStats recovery;    ///< kill, checkpoint and rollback counters
};

/// Transport and chaos configuration for spmd_jacobi. Passing one turns on
/// sweep checkpointing (every sweep boundary); default-constructed it
/// injects nothing. Set a FaultPlan to kill a rank.
struct SpmdTransport {
  mp::FaultPlan faults;         ///< the planned rank kill, if any
  /// Transport backend: kInproc runs ranks as threads (default); kSocket
  /// runs every rank as its own OS process over UNIX-domain sockets, with
  /// `socket` supplying the heartbeat knobs. The engine publishes
  /// checkpoints and results to the world's durable blob board either way,
  /// so σ/U/V and every digest are bit-identical across backends
  /// (mp_socket_test and treesvd_chaos --backend=socket gate this).
  mp::Backend backend = mp::Backend::kInproc;
  mp::SocketConfig socket;
};

/// Runs the rank-per-leaf SPMD Jacobi program on n/2 concurrent ranks —
/// threads by default, one OS process each under SpmdTransport::backend ==
/// kSocket (after padding n to a width the ordering supports). Results are
/// bit-identical to one_sided_jacobi with the same options — also under a
/// rank kill in `transport`: up to 8 rollbacks replay past kills before the
/// RankKilledError reaches the caller.
SvdResult spmd_jacobi(const Matrix& a, const Ordering& ordering,
                      const JacobiOptions& options = {}, SpmdStats* stats = nullptr,
                      const SpmdTransport* transport = nullptr);

}  // namespace treesvd
