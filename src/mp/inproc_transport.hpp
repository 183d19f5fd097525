#pragma once
// In-process transport backend: the original mp::World mechanics.
//
// Ranks are std::threads; a send moves the payload into the destination
// rank's mailbox under its mutex, a recv blocks on the mailbox's condition
// variable. The planned rank kill throws RankKilledError inside the rank's
// transport op, so a run under any fault plan is bit-identical *including*
// every recovery counter. This backend is the default and the reference the
// socket backend is gated against.

#include <condition_variable>
#include <deque>

#include "mp/transport.hpp"

namespace treesvd::mp {

class InprocTransport final : public TransportBackend {
 public:
  explicit InprocTransport(World* world);

  const char* name() const noexcept override { return "inproc"; }
  bool multiprocess() const noexcept override { return false; }

  void run(const std::function<void(Context&)>& program) override;
  void send(Context& ctx, int dst, std::uint64_t tag, std::vector<double> data) override;
  std::vector<double> recv(Context& ctx, int src, std::uint64_t tag) override;
  double allreduce_sum(Context& ctx, double value) override;
  [[noreturn]] void execute_kill(Context& ctx, std::uint64_t op) override;

 private:
  using Key = std::pair<int, std::uint64_t>;  ///< (src, tag)

  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    /// This rank's thread has exited (normally or by exception). Receivers
    /// blocked on this rank as a *source* use it to decide, deterministically,
    /// that the expected message can never arrive.
    std::atomic<bool> finished{false};
    std::map<Key, std::deque<std::vector<double>>> queues;
  };

  void deliver(int dst, int src, std::uint64_t tag, std::vector<double> data);
  std::vector<double> take(int rank, int src, std::uint64_t tag);
  /// Wakes every blocked rank with WorldAbortedError (idempotent).
  void abort_world() noexcept;
  /// Empties every mailbox between runs.
  void discard_frames();

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  // Allreduce state (a barrier is an allreduce of zeros).
  std::mutex sync_mu_;
  std::condition_variable sync_cv_;
  int sync_waiting_ = 0;
  std::uint64_t sync_generation_ = 0;
  double reduce_accum_ = 0.0;
  double reduce_result_ = 0.0;

  std::uint64_t run_epoch_ = 0;  ///< fork-join epoch for the analysis hooks
};

}  // namespace treesvd::mp
