#pragma once
// Deterministic fault model for the message-passing runtime.
//
// A FaultPlan is a *schedule*, not a dice roll: every per-message decision
// (drop / duplicate / corrupt / delay) is a pure function of the message's
// identity (src, dst, tag, sequence number, retry attempt) mixed with the
// plan's seed. Two runs with the same plan therefore inject exactly the same
// faults regardless of thread interleaving, and every RecoveryStats counter
// is reproducible bit-for-bit. Rank kill/stall faults key off a rank's own
// transport-operation counter, which is equally deterministic because each
// rank's program is.
//
// The companion ReliableConfig turns on the reliable transport inside
// mp::World: per-(src, dst, tag) sequence numbers, payload checksums,
// receive deadlines with bounded retry and deterministic exponential backoff
// (virtual time — the simulator never waits on a wall clock), NACK/resend
// from the sender's clean retransmit store, and duplicate suppression. Under
// any plan that stays below the retry budget the delivered payloads are the
// clean ones, so a program's numerical results are bit-identical to its
// fault-free run (chaos_recovery_test asserts this for the SPMD Jacobi).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/hooks.hpp"

namespace treesvd::mp {

/// Seeded, fully deterministic fault schedule for a World.
struct FaultPlan {
  bool enabled = false;        ///< master switch; a default plan injects nothing
  std::uint64_t seed = 1;      ///< mixes into every per-message decision

  // Message faults (require the reliable transport; first match wins, so the
  // probabilities are a partition of [0, 1) and at most one fault hits a
  // given frame).
  double drop_prob = 0.0;       ///< frame silently lost
  double duplicate_prob = 0.0;  ///< frame delivered twice
  double corrupt_prob = 0.0;    ///< one payload element bit-flipped or NaN'd
  double delay_prob = 0.0;      ///< frame held past the receive deadline
                                ///< (treated as lost; the late copy is
                                ///< suppressed by its sequence number)
  double resend_drop_prob = 0.0;  ///< loss applied to retransmissions too
                                  ///< (exercises the bounded retry loop)

  // Rank faults (usable with or without the reliable transport).
  int kill_rank = -1;             ///< rank to kill once (-1 = never)
  std::uint64_t kill_at_op = 0;   ///< fires at this 0-based transport op
                                  ///< (send/recv/barrier/allreduce) of the rank
  int stall_rank = -1;            ///< rank to stall (-1 = never)
  std::uint64_t stall_at_op = 0;  ///< op at which the stall occurs
  std::uint64_t stall_micros = 2000;  ///< bounded real-time stall length

  bool has_message_faults() const noexcept {
    return enabled && (drop_prob > 0.0 || duplicate_prob > 0.0 || corrupt_prob > 0.0 ||
                       delay_prob > 0.0 || resend_drop_prob > 0.0);
  }
};

/// Opt-in reliable transport layered over Context::send/recv.
struct ReliableConfig {
  bool enabled = false;
  int max_retries = 8;      ///< recovery attempts per message before giving up
};

/// Retry timing of the reliable transport: the first retry waits
/// kRetryDeadline (virtual-time units in-process; one
/// SocketConfig::recv_deadline_ms over sockets), and each further retry
/// waits kRetryBackoff times longer than the one before.
inline constexpr double kRetryDeadline = 1.0;
inline constexpr double kRetryBackoff = 2.0;

/// Plain snapshot of every recovery counter (copyable, reported on
/// SpmdStats/DistributedResult; the style of KernelStats).
struct RecoveryStats {
  // Injector side (what the chaos plan actually did).
  std::size_t drops_seen = 0;            ///< frames lost (first sends + resends)
  std::size_t duplicates_injected = 0;   ///< frames delivered twice
  std::size_t corruptions_injected = 0;  ///< frames delivered with a flipped payload
  std::size_t delays_seen = 0;           ///< frames held past the deadline
  std::size_t kills = 0;                 ///< rank kills fired
  std::size_t stalls = 0;                ///< rank stalls fired

  // Transport side (what the reliable layer did about it).
  std::size_t corruptions_detected = 0;   ///< checksum/NaN frames rejected at recv
  std::size_t duplicates_suppressed = 0;  ///< stale frames discarded (live + purge)
  std::size_t retries = 0;                ///< deadline expiries (recovery attempts)
  std::size_t resends = 0;                ///< successful retransmissions
  double virtual_backoff = 0.0;           ///< summed virtual backoff time

  // Engine side (checkpoint/rollback machinery).
  std::size_t checkpoints = 0;        ///< sweep-boundary snapshots committed
  std::size_t rollbacks = 0;          ///< replays from the last checkpoint

  RecoveryStats& operator+=(const RecoveryStats& o) noexcept {
    drops_seen += o.drops_seen;
    duplicates_injected += o.duplicates_injected;
    corruptions_injected += o.corruptions_injected;
    delays_seen += o.delays_seen;
    kills += o.kills;
    stalls += o.stalls;
    corruptions_detected += o.corruptions_detected;
    duplicates_suppressed += o.duplicates_suppressed;
    retries += o.retries;
    resends += o.resends;
    virtual_backoff += o.virtual_backoff;
    checkpoints += o.checkpoints;
    rollbacks += o.rollbacks;
    return *this;
  }
  bool operator==(const RecoveryStats&) const = default;
};

/// All thirteen RecoveryStats counters as one JSON object, in declaration
/// order: the form the chaos and launch tools report.
std::string to_json(const RecoveryStats& s);

/// Relaxed-atomic counters shared by concurrent ranks; snapshot() into
/// RecoveryStats (the KernelCounters idiom).
class RecoveryCounters {
 public:
  void add_drop() noexcept { bump(drops_); }
  void add_duplicate_injected() noexcept { bump(dups_injected_); }
  void add_corruption_injected() noexcept { bump(corrupts_injected_); }
  void add_delay() noexcept { bump(delays_); }
  void add_kill() noexcept { bump(kills_); }
  void add_stall() noexcept { bump(stalls_); }
  void add_corruption_detected() noexcept { bump(corrupts_detected_); }
  void add_duplicate_suppressed(std::size_t k = 1) noexcept {
    TREESVD_HB_ATOMIC(this, 0, "RecoveryCounters");
    dups_suppressed_.fetch_add(k, std::memory_order_relaxed);
  }
  void add_retry() noexcept { bump(retries_); }
  void add_resend() noexcept { bump(resends_); }
  void add_checkpoint() noexcept { bump(checkpoints_); }
  void add_rollback() noexcept { bump(rollbacks_); }
  void add_virtual_backoff(double t) noexcept {
    TREESVD_HB_ATOMIC(this, 0, "RecoveryCounters");
    // CAS loop: fetch_add on atomic<double> is C++20 but patchy pre-GCC-12.
    double cur = backoff_.load(std::memory_order_relaxed);
    while (!backoff_.compare_exchange_weak(cur, cur + t, std::memory_order_relaxed)) {
    }
  }

  /// Folds a whole RecoveryStats delta in at once — how a rank *process*
  /// (socket backend) ships its counters home: the child snapshots at fork,
  /// subtracts the baseline at exit, and the launcher accumulates the delta,
  /// landing every tick in the same place an in-process rank's would.
  void accumulate(const RecoveryStats& s) noexcept {
    TREESVD_HB_ATOMIC(this, 0, "RecoveryCounters");
    drops_.fetch_add(s.drops_seen, std::memory_order_relaxed);
    dups_injected_.fetch_add(s.duplicates_injected, std::memory_order_relaxed);
    corrupts_injected_.fetch_add(s.corruptions_injected, std::memory_order_relaxed);
    delays_.fetch_add(s.delays_seen, std::memory_order_relaxed);
    kills_.fetch_add(s.kills, std::memory_order_relaxed);
    stalls_.fetch_add(s.stalls, std::memory_order_relaxed);
    corrupts_detected_.fetch_add(s.corruptions_detected, std::memory_order_relaxed);
    dups_suppressed_.fetch_add(s.duplicates_suppressed, std::memory_order_relaxed);
    retries_.fetch_add(s.retries, std::memory_order_relaxed);
    resends_.fetch_add(s.resends, std::memory_order_relaxed);
    checkpoints_.fetch_add(s.checkpoints, std::memory_order_relaxed);
    rollbacks_.fetch_add(s.rollbacks, std::memory_order_relaxed);
    add_virtual_backoff(s.virtual_backoff);
  }

  RecoveryStats snapshot() const noexcept {
    TREESVD_HB_ATOMIC(this, 0, "RecoveryCounters");
    RecoveryStats s;
    s.drops_seen = drops_.load(std::memory_order_relaxed);
    s.duplicates_injected = dups_injected_.load(std::memory_order_relaxed);
    s.corruptions_injected = corrupts_injected_.load(std::memory_order_relaxed);
    s.delays_seen = delays_.load(std::memory_order_relaxed);
    s.kills = kills_.load(std::memory_order_relaxed);
    s.stalls = stalls_.load(std::memory_order_relaxed);
    s.corruptions_detected = corrupts_detected_.load(std::memory_order_relaxed);
    s.duplicates_suppressed = dups_suppressed_.load(std::memory_order_relaxed);
    s.retries = retries_.load(std::memory_order_relaxed);
    s.resends = resends_.load(std::memory_order_relaxed);
    s.virtual_backoff = backoff_.load(std::memory_order_relaxed);
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
  std::atomic<std::size_t> drops_{0}, dups_injected_{0}, corrupts_injected_{0}, delays_{0},
      kills_{0}, stalls_{0}, corrupts_detected_{0}, dups_suppressed_{0}, retries_{0}, resends_{0},
      checkpoints_{0}, rollbacks_{0};
  std::atomic<double> backoff_{0.0};
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

/// Thrown when a message exhausts the reliable transport's retry budget.
/// Construct through transport_exhausted() so every site carries the full
/// (src, dst, tag, seq, attempts) context.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Uniform retry-budget-exhaustion error: names the backend and the message
/// identity, so one rank's stderr pinpoints the lost frame.
inline TransportError transport_exhausted(const std::string& backend, int src, int dst,
                                          std::uint64_t tag, std::uint64_t seq, int attempts) {
  return TransportError("mp[" + backend + "]: reliable transport exhausted its retry budget (" +
                        std::to_string(attempts) + " attempts) for src=" + std::to_string(src) +
                        " dst=" + std::to_string(dst) + " tag=" + std::to_string(tag) +
                        " seq=" + std::to_string(seq));
}

/// What the injector decides to do with one freshly sent frame.
enum class FaultAction { kDeliver, kDrop, kDuplicate, kCorrupt, kDelay };

/// Stateless-per-message decision engine. Decisions hash the message
/// identity with the plan seed, so they are independent of thread timing;
/// the only mutable state is the one-shot kill latch (survives
/// World::reset_for_replay so a replay proceeds past the kill).
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  const FaultPlan& plan() const noexcept { return plan_; }

  /// Decision for a first transmission of (src, dst, tag, seq).
  FaultAction action(int src, int dst, std::uint64_t tag, std::uint64_t seq) const;

  /// Whether retransmission attempt `attempt` of the frame survives.
  bool resend_survives(int src, int dst, std::uint64_t tag, std::uint64_t seq,
                       int attempt) const;

  /// Deterministically corrupts one element of `payload` (bit flip or NaN).
  void corrupt_payload(std::vector<double>& payload, int src, int dst, std::uint64_t tag,
                       std::uint64_t seq) const;

  /// One-shot: true exactly once, for the planned (rank, op).
  bool should_kill(int rank, std::uint64_t op);

  /// Marks the one-shot kill as fired without consuming it locally: the
  /// socket launcher latches its own injector when a rank *process* reports
  /// the kill firing (the child consumed the latch in its forked copy, which
  /// the launcher never sees), so a respawned rank inherits a spent latch
  /// and the replay proceeds past the kill — the exact contract
  /// reset_for_replay documents for the in-process backend.
  void latch_kill() noexcept { kill_fired_.store(true, std::memory_order_relaxed); }

  /// True whenever (rank, op) matches the stall schedule.
  bool should_stall(int rank, std::uint64_t op) const;

 private:
  FaultPlan plan_;
  std::atomic<bool> kill_fired_{false};
};

}  // namespace treesvd::mp
