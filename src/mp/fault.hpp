#pragma once
// Fault model of the message-passing runtime: a rank kill.
//
// Both transports deliver every message: an in-process mailbox or a
// UNIX-domain stream socket never loses, duplicates, corrupts or holds back
// a frame. The one failure a run meets is a rank dying, planned (the
// FaultPlan's kill) or, on the socket backend, by an external signal or a
// heartbeat timeout. The planned kill keys off the rank's own
// transport-operation counter, which is deterministic because each rank's
// program is, so every RecoveryStats counter is reproducible bit-for-bit.
// An engine with checkpoints (svd/spmd.cpp) rolls the world back and runs
// it again, and the replay is bit-identical to the fault-free run.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "analysis/hooks.hpp"

namespace treesvd::mp {

/// Deterministic fault schedule for a World: at most one rank kill. A
/// default plan injects nothing.
struct FaultPlan {
  int kill_rank = -1;            ///< rank to kill once (-1 = never)
  std::uint64_t kill_at_op = 0;  ///< fires at this 0-based transport op
                                 ///< (send/recv/barrier/allreduce) of the rank
};

/// Plain snapshot of every recovery counter (copyable, reported on
/// SpmdStats; the style of KernelStats).
struct RecoveryStats {
  std::size_t kills = 0;        ///< rank kills fired
  std::size_t checkpoints = 0;  ///< sweep-boundary snapshots committed
  std::size_t rollbacks = 0;    ///< replays from the last checkpoint
  /// Message recovery attempts and retransmissions. Always 0: no transport
  /// loses a message. Kept because benchmark reports read the counter set.
  std::size_t retries = 0;
  std::size_t resends = 0;

  RecoveryStats& operator+=(const RecoveryStats& o) noexcept {
    kills += o.kills;
    checkpoints += o.checkpoints;
    rollbacks += o.rollbacks;
    retries += o.retries;
    resends += o.resends;
    return *this;
  }
  bool operator==(const RecoveryStats&) const = default;
};

/// The three live RecoveryStats counters (kills, checkpoints, rollbacks) as
/// one JSON object: the form the chaos tool reports.
std::string to_json(const RecoveryStats& s);

/// Why a run under `plan` left its planned rank kill unexercised: empty when
/// the plan names no kill, or when `stats` show the kill fired and a
/// rollback replayed past it; otherwise a message naming the rank and the
/// op. The chaos tool fails such a run: it covers no respawn and no
/// rollback.
std::string unfired_kill(const FaultPlan& plan, const RecoveryStats& stats);

/// Relaxed-atomic counters shared by concurrent ranks; snapshot() into
/// RecoveryStats (the KernelCounters idiom).
class RecoveryCounters {
 public:
  void add_kill() noexcept { bump(kills_); }
  void add_checkpoint() noexcept { bump(checkpoints_); }
  void add_rollback() noexcept { bump(rollbacks_); }

  /// Folds a whole RecoveryStats delta in at once — how a rank *process*
  /// (socket backend) ships its counters home: the child snapshots at fork,
  /// subtracts the baseline at exit, and the launcher accumulates the delta,
  /// landing every tick in the same place an in-process rank's would.
  void accumulate(const RecoveryStats& s) noexcept {
    TREESVD_HB_ATOMIC(this, 0, "RecoveryCounters");
    kills_.fetch_add(s.kills, std::memory_order_relaxed);
    checkpoints_.fetch_add(s.checkpoints, std::memory_order_relaxed);
    rollbacks_.fetch_add(s.rollbacks, std::memory_order_relaxed);
  }

  RecoveryStats snapshot() const noexcept {
    TREESVD_HB_ATOMIC(this, 0, "RecoveryCounters");
    RecoveryStats s;
    s.kills = kills_.load(std::memory_order_relaxed);
    s.checkpoints = checkpoints_.load(std::memory_order_relaxed);
    s.rollbacks = rollbacks_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  /// Every bump is declared to the race detector as a relaxed atomic on this
  /// counter block: concurrent ranks may tick freely, but an unsynchronised
  /// plain write (there is none today) would be flagged.
  void bump(std::atomic<std::size_t>& c) noexcept {
    TREESVD_HB_ATOMIC(this, 0, "RecoveryCounters");
    c.fetch_add(1, std::memory_order_relaxed);
  }
  std::atomic<std::size_t> kills_{0}, checkpoints_{0}, rollbacks_{0};
};

/// Thrown inside the killed rank's transport op; engines with checkpointing
/// catch it, roll back, and replay. The socket backend reconstructs it in
/// the launcher after the rank process actually died (planned SIGKILL or an
/// external one), so the engine-side recovery path is backend-agnostic.
class RankKilledError : public std::runtime_error {
 public:
  RankKilledError(int rank, std::uint64_t op)
      : std::runtime_error("mp: rank " + std::to_string(rank) + " killed by fault plan at op " +
                           std::to_string(op)),
        rank_(rank),
        op_(op) {}

  /// A rank process killed from *outside* the fault plan (external SIGKILL,
  /// hung-heartbeat SIGKILL, crash): the op is unknown, the signal is not.
  struct External {};
  RankKilledError(External, int rank, int signal, const std::string& detail)
      : std::runtime_error("mp: rank " + std::to_string(rank) + " process killed by signal " +
                           std::to_string(signal) + " (" + detail + ")"),
        rank_(rank),
        signal_(signal),
        external_(true) {}

  int rank() const noexcept { return rank_; }
  std::uint64_t op() const noexcept { return op_; }
  /// Terminating signal for an external kill (0 for a fault-plan kill).
  int killed_by_signal() const noexcept { return signal_; }
  bool external() const noexcept { return external_; }

 private:
  int rank_;
  std::uint64_t op_ = 0;
  int signal_ = 0;
  bool external_ = false;
};

/// Thrown by blocked transport ops on surviving ranks when the world aborts;
/// a *secondary* failure — World::run never rethrows it while a primary
/// (program) exception exists. Every throw site names the operation it
/// interrupted (and its src/dst/tag where one exists) so a multi-process
/// failure is diagnosable from a single rank's stderr.
class WorldAbortedError : public std::runtime_error {
 public:
  WorldAbortedError() : std::runtime_error("mp: world aborted by a failing rank") {}
  explicit WorldAbortedError(const std::string& context)
      : std::runtime_error("mp: world aborted by a failing rank [" + context + "]") {}
};

/// Thrown when the transport machinery itself fails (the socket launcher
/// cannot poll its rank processes).
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Holds the plan and its one-shot kill latch. The latch persists across
/// World::run calls, so a replay proceeds past the kill.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  /// One-shot: true exactly once, for the planned (rank, op).
  bool should_kill(int rank, std::uint64_t op);

  /// Marks the one-shot kill as fired without consuming it locally: the
  /// socket launcher latches its own injector when a rank *process* reports
  /// the kill firing (the child consumed the latch in its forked copy, which
  /// the launcher never sees), so a respawned rank inherits a spent latch
  /// and the replay proceeds past the kill, as it does in-process.
  void latch_kill() noexcept { kill_fired_.store(true, std::memory_order_relaxed); }

 private:
  FaultPlan plan_;
  std::atomic<bool> kill_fired_{false};
};

}  // namespace treesvd::mp
