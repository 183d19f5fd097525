#pragma once
// Socket transport backend: every rank is its own OS process.
//
// Topology (DESIGN.md section 15): the constructing process becomes the
// *launcher*. It binds one UNIX-domain listener per rank up front; run()
// forks one child per rank and watches them over per-rank control
// socketpairs. Rank-to-rank data travels directly: rank R lazily connects
// to rank S's listener and everything R sends S rides that one stream, so
// per-(src, dst, tag) FIFO order is the kernel's stream order. The
// launcher carries what threads got for free in-process: collectives
// (kSync/kSyncRelease, summed in rank order), the durable blob board
// (kPublish), death notices (kFinished feeding the same
// blocked-recv-gives-up-only-when-source-is-dead abort contract), the abort
// broadcast, and heartbeat-based hang detection (a silent rank is SIGKILLed
// and surfaces as an external RankKilledError).
//
// A stream socket delivers every frame, so a send writes straight from the
// caller's vector and keeps no copy, and a recv waits without a deadline.
// The receiver still checks every byte it reads, since they come from
// another process: a frame that fails a check closes its stream. The one
// real fault is a rank process dying — the plan's kill (SIGKILL mid-run),
// an external signal, or a heartbeat timeout — and it surfaces as
// RankKilledError, so results and every digest stay bit-identical to the
// in-process run (treesvd_chaos --backend=socket gates exactly that).
//
// Process-death rules a thread backend never needed:
//   * Rank memory dies with the rank: results and checkpoints must travel
//     through publish(), which lands on the launcher's blob board and is
//     inherited by respawned ranks at fork.
//   * A planned kill ships its statistics home (kKilled) in the same write
//     that precedes raise(SIGKILL); the launcher latches the injector's
//     one-shot kill so the respawned world replays past it.
//   * A rank whose program returned does not exit at once: it enters an
//     exit handshake (one more kSync generation) and keeps its IO thread
//     reading its connections until every rank has returned or the world
//     aborts, so a peer's send to it never blocks on a process that has
//     left — the socket counterpart of an in-process mailbox that outlives
//     its rank. It then wakes its IO thread through the self-pipe and
//     leaves; no timer sits on that path.
//   * Children leave with _exit(): a forked address space must not run the
//     parent's destructors.

#include <atomic>
#include <memory>
#include <string>

#include "mp/transport.hpp"

namespace treesvd::mp {

class SocketTransport final : public TransportBackend {
 public:
  SocketTransport(World* world, const SocketConfig& config);
  ~SocketTransport() override;

  const char* name() const noexcept override { return "socket"; }
  bool multiprocess() const noexcept override { return true; }

  void run(const std::function<void(Context&)>& program) override;
  void send(Context& ctx, int dst, std::uint64_t tag, std::vector<double> data) override;
  std::vector<double> recv(Context& ctx, int src, std::uint64_t tag) override;
  double allreduce_sum(Context& ctx, double value) override;
  [[noreturn]] void execute_kill(Context& ctx, std::uint64_t op) override;
  void publish(Context& ctx, std::uint64_t key, std::vector<double> blob) override;
  long process_id(int rank) const noexcept override;

 private:
  struct RankRuntime;  ///< child-process machinery (socket_transport.cpp)

  [[noreturn]] void run_child(int rank, int ctl_fd,
                              const std::function<void(Context&)>& program);
  /// Accepts and closes stale pending connections left on the listeners by
  /// a previous (aborted) run, so a replay can never consume a dead run's
  /// frames. Everything else a run holds (stashes, sequence state) dies with
  /// its rank processes, so this is all run() needs to start from an empty
  /// transport.
  void drain_listener_backlog() noexcept;

  SocketConfig cfg_;
  std::string dir_;
  bool owns_dir_ = false;
  std::vector<std::string> paths_;  ///< per-rank listener socket paths
  std::vector<int> listeners_;      ///< per-rank listener fds (bound once)

  /// Live child pids while run() is in flight (0 otherwise) — readable from
  /// other threads so chaos harnesses can deliver real signals.
  std::unique_ptr<std::atomic<long>[]> pids_;

  std::unique_ptr<RankRuntime> runtime_;  ///< set only inside a rank process
};

}  // namespace treesvd::mp
