#pragma once
// SPMD one-sided Jacobi over the message-passing runtime — the shape of the
// paper's actual CM-5 implementation: one process per leaf, two columns per
// process, columns exchanged by tagged messages, convergence decided by an
// allreduce per sweep. Unlike the step-synchronous distributed machine
// (sim/distributed.hpp) there is no global clock: ranks synchronise only
// through the column messages themselves (dataflow), plus one collective per
// sweep.
//
// Fault tolerance (opt-in via SpmdTransport): the reliable transport makes
// the run bit-identical to the fault-free one under any drop / duplicate /
// corrupt / delay schedule that stays below the retry budget; sweep-boundary
// checkpoints let a killed rank be respawned with the world rolled back to
// the last state every rank had committed, and the deterministic replay
// again reproduces the fault-free result bit-for-bit. All recovery activity
// is surfaced as SpmdStats::recovery.

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
/// enables sweep checkpointing but injects nothing; install a FaultPlan (and
/// the reliable transport for message faults) to run under chaos.
struct SpmdTransport {
  mp::ReliableConfig reliable;  ///< opt-in reliable send/recv layer
  mp::FaultPlan faults;         ///< deterministic fault schedule
  RecoveryOptions recovery;     ///< checkpoint cadence, rollback budget
  /// Transport backend: kInproc runs ranks as threads (default); kSocket
  /// runs every rank as its own OS process over UNIX-domain sockets, with
  /// `socket` supplying the wall-clock deadlines and heartbeat knobs. The
  /// engine publishes checkpoints and results to the world's durable blob
  /// board either way, so σ/U/V and every digest are bit-identical across
  /// backends (mp_socket_test and tools/treesvd_launch gate this).
  mp::Backend backend = mp::Backend::kInproc;
  mp::SocketConfig socket;
};

/// Runs the rank-per-leaf SPMD Jacobi program on n/2 concurrent ranks —
/// threads by default, one OS process each under SpmdTransport::backend ==
/// kSocket (after padding n to a width the ordering supports). Results are
/// bit-identical to one_sided_jacobi with the same options — also under a
/// surviving fault plan when `transport` enables the reliable layer.
SvdResult spmd_jacobi(const Matrix& a, const Ordering& ordering,
                      const JacobiOptions& options = {}, SpmdStats* stats = nullptr,
                      const SpmdTransport* transport = nullptr);

}  // namespace treesvd
