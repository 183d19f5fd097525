#pragma once
// Minimal message-passing runtime (a CMMD/MPI-flavoured substrate).
//
// The paper's implementation target was the CM-5's message-passing library;
// this header provides the same programming model behind one interface and
// two transport backends (DESIGN.md section 15):
//
//   * Backend::kInproc (default) — an SPMD world of P ranks (std::threads)
//     with per-rank mailboxes in shared memory.
//   * Backend::kSocket — every rank is its own OS process, exchanging the
//     same payloads over UNIX-domain stream sockets; the launcher process
//     coordinates collectives, heartbeats and respawn.
//
// Semantics (identical across backends):
//   * send(dst, tag, data) — asynchronous (buffered), never blocks.
//                            dst must be a valid, different rank.
//   * recv(src, tag)       — blocks until a matching message arrives;
//                            messages from one src with one tag arrive in
//                            send order. src must be a valid, different rank.
//   * barrier()            — all ranks (an allreduce of zeros).
//   * allreduce_sum(x)     — returns the sum over all ranks.
//   * publish(key, blob)   — durable result board: the blob survives rank
//                            exit (and, on the socket backend, rank death)
//                            and is read back with World::published() after
//                            run() returns, or by a respawned rank. This is
//                            how multi-process engines return results and
//                            keep checkpoints across respawns.
//
// Both transports deliver every message, so the fault model is a rank kill
// (see mp/fault.hpp):
//   * set_fault_plan(plan) installs a deterministic one-shot rank kill at a
//     chosen transport op. On the socket backend a rank process can also die
//     from outside the plan (an external signal, a heartbeat timeout); both
//     surface as RankKilledError.
//   * When any rank's program throws, the world aborts — deterministically.
//     A blocked recv gives up (WorldAbortedError, a secondary failure) only
//     once its *source rank has finished*, never merely because the abort
//     flag is up: a message that is still coming from a live peer is always
//     waited for, so every surviving rank runs exactly its maximal
//     deterministic prefix and the recovery counters are reproducible
//     bit-for-bit. Collectives throw on abort outright (a dead rank can
//     never complete them). run() joins *all* ranks, then rethrows the
//     lowest-rank primary exception. The next run() on the same world starts
//     from an empty transport, so an engine rolls back to a checkpoint and
//     replays by calling run() again (svd/spmd.cpp does).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mp/fault.hpp"

namespace treesvd::mp {

/// Which transport carries the world's messages.
enum class Backend {
  kInproc,  ///< ranks are threads; mailboxes in shared memory (default)
  kSocket,  ///< ranks are processes; UNIX-domain stream sockets
};

/// Knobs for the socket backend. Durations are wall-clock milliseconds.
struct SocketConfig {
  /// Child -> launcher liveness beacon cadence; below INT_MAX.
  double heartbeat_interval_ms = 25.0;
  /// Silence after which the launcher declares a rank hung and SIGKILLs it
  /// (feeding the same abort/respawn path as a planned kill); longer than
  /// the beacon cadence, so a healthy rank is never between beacons for it.
  double heartbeat_timeout_ms = 10000.0;
  /// Directory for the per-rank listener sockets (empty: a fresh mkdtemp
  /// under $TMPDIR, removed with the World).
  std::string socket_dir;
};

class World;
class TransportBackend;

/// Per-rank handle passed to the SPMD program.
class Context {
 public:
  int rank() const noexcept { return rank_; }
  int size() const noexcept;

  /// Buffered send; never blocks. Requires 0 <= dst < size() and dst != rank()
  /// (send-to-self is a program bug: local state needs no mailbox).
  void send(int dst, std::uint64_t tag, std::vector<double> data);

  /// Blocking receive of the next message from `src` with `tag`.
  /// Requires 0 <= src < size() and src != rank().
  std::vector<double> recv(int src, std::uint64_t tag);

  /// Synchronises all ranks: an allreduce_sum of zeros, counted as one
  /// transport op of its own by the fault plan.
  void barrier();

  /// Sum of `value` over all ranks (synchronising).
  double allreduce_sum(double value);

  /// Posts a blob to the world's durable result board (overwrites the key).
  /// Readable with World::published() after run(), and by respawned ranks —
  /// the only rank-written state guaranteed to survive process death.
  void publish(std::uint64_t key, std::vector<double> blob);

 private:
  friend class World;
  friend class TransportBackend;
  Context(World* world, int rank);
  /// Applies the fault plan's rank kill to this transport op.
  void check_rank_faults();
  World* world_;
  int rank_;
  bool hooks_enabled_;          ///< analysis hooks are in-process only
  std::uint64_t ops_ = 0;       ///< transport ops performed (kill keying)
  std::uint64_t hook_ops_ = 0;  ///< analysis-hook salt; never keys fault plans
};

/// An SPMD world: P ranks behind a pluggable transport backend.
class World {
 public:
  explicit World(int ranks);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const noexcept { return ranks_; }

  /// Selects the transport (call before run(); kInproc is the default).
  /// The fault plan and the recovery counters are shared, so a program
  /// moves between backends without any other change. Throws
  /// std::invalid_argument for socket timings that are not positive, a
  /// heartbeat_interval_ms of INT_MAX or more, or a heartbeat_timeout_ms
  /// no longer than the interval.
  void set_backend(Backend backend, const SocketConfig& config = {});

  Backend backend() const noexcept { return backend_kind_; }
  const char* backend_name() const noexcept;
  /// True when ranks are OS processes (kSocket): rank-local memory does not
  /// survive run() — results must travel via publish().
  bool multiprocess() const noexcept;

  /// Runs program(ctx) on every rank concurrently; returns when all finish.
  /// If ranks fail, every rank is joined/reaped first, then the exception
  /// from the lowest failing rank is rethrown (documented tie-break: rank
  /// order, with secondary WorldAbortedError unwindings surfaced only when
  /// no primary program exception exists).
  ///
  /// Every run starts from an empty transport and a cleared abort flag: no
  /// message or half-finished collective of an earlier run (aborted or not)
  /// reaches it. The one-shot kill latch, the cumulative counters and the published-blob
  /// board persist across runs, so calling run() again after a
  /// RankKilledError replays past the kill, keeps the full fault history and
  /// can restore from published checkpoints.
  void run(const std::function<void(Context&)>& program);

  /// Total messages sent since construction (for tests/stats), replays
  /// included.
  std::size_t delivered() const noexcept { return delivered_.load(); }

  /// Installs a deterministic fault schedule (call before run()). Throws
  /// std::invalid_argument for a kill rank outside the world.
  void set_fault_plan(const FaultPlan& plan);

  /// Snapshot of every transport/recovery counter.
  RecoveryStats recovery_stats() const noexcept { return counters_.snapshot(); }

  /// Shared counters — engines add their checkpoint/rollback events
  /// here so one snapshot covers the whole recovery story.
  RecoveryCounters& recovery_counters() noexcept { return counters_; }

  /// True once a rank failure has aborted the world (cleared by the next
  /// run()).
  bool aborted() const noexcept { return aborted_.load(std::memory_order_acquire); }

  /// True when `key` has been publish()ed (by any rank, any run).
  bool has_published(std::uint64_t key) const;

  /// Reads a published blob; throws std::invalid_argument for a missing key.
  std::vector<double> published(std::uint64_t key) const;

  /// OS process id of a rank while run() is live on a multiprocess backend
  /// (0 otherwise) — lets chaos harnesses deliver real signals.
  long process_id(int rank) const noexcept;

 private:
  friend class Context;
  friend class TransportBackend;

  int ranks_;
  Backend backend_kind_ = Backend::kInproc;
  std::unique_ptr<TransportBackend> backend_;

  std::atomic<std::size_t> delivered_{0};

  // Fault tolerance (shared across backends).
  std::unique_ptr<FaultInjector> injector_;
  RecoveryCounters counters_;
  std::atomic<bool> aborted_{false};

  // Misuse guard (single caller thread, like run() itself).
  std::atomic<bool> running_{false};

  // Durable result board.
  mutable std::mutex blob_mu_;
  std::map<std::uint64_t, std::vector<double>> blobs_;
};

}  // namespace treesvd::mp
