#pragma once
// Transport backend interface under mp::World (DESIGN.md section 15).
//
// World is a facade: every Context operation (send/recv/allreduce/publish;
// a barrier is an allreduce of zeros) and run() are delegated to a
// TransportBackend. The backend owns the *mechanics* of message motion —
// mailboxes and condition variables in-process, sockets and processes for
// the socket backend — and starts every run from an empty transport, while
// the *policy* stays in World and is shared: the fault injector (whose plan
// also decides whether the reliable transport runs), the recovery counters,
// the abort flag and the durable blob board. That split is what makes the
// two backends interchangeable at the program level: the same SPMD program
// with the same fault plan produces bit-identical payloads on either side.
//
// Backends access the shared policy through the protected accessors below
// (TransportBackend is a friend of World), never through their own copies,
// so a counter ticked by the in-process backend and one ticked by a rank
// process (shipped home over the control channel) land in the same place.

#include "mp/message_passing.hpp"

namespace treesvd::mp {

class TransportBackend {
 public:
  virtual ~TransportBackend() = default;

  virtual const char* name() const noexcept = 0;
  /// True when ranks are OS processes and rank memory dies with the rank.
  virtual bool multiprocess() const noexcept = 0;

  /// Runs the program on every rank from an empty transport (World::run
  /// has already cleared the abort flag).
  virtual void run(const std::function<void(Context&)>& program) = 0;

  virtual void send(Context& ctx, int dst, std::uint64_t tag, std::vector<double> data) = 0;
  virtual std::vector<double> recv(Context& ctx, int src, std::uint64_t tag) = 0;
  virtual double allreduce_sum(Context& ctx, double value) = 0;

  /// Fires the fault plan's one-shot kill for (ctx.rank(), op): the
  /// in-process backend throws RankKilledError, the socket backend ships its
  /// statistics home and SIGKILLs the rank process. Never returns normally.
  [[noreturn]] virtual void execute_kill(Context& ctx, std::uint64_t op) = 0;

  /// Posts to the durable blob board. Default: write World's board directly
  /// (correct whenever rank memory is the world's memory).
  virtual void publish(Context& ctx, std::uint64_t key, std::vector<double> blob);

  /// OS process id of a live rank (multiprocess backends only; 0 otherwise).
  virtual long process_id(int rank) const noexcept;

 protected:
  explicit TransportBackend(World* world) : world_(world) {}

  World& world() noexcept { return *world_; }
  const World& world() const noexcept { return *world_; }

  // Shared-policy accessors (see header comment).
  FaultInjector* injector() noexcept { return world_->injector_.get(); }
  /// The reliable transport runs exactly when the installed plan has
  /// message faults; injector()->plan().max_retries is then its budget.
  bool reliable() const noexcept {
    const FaultInjector* inj = world_->injector_.get();
    return inj != nullptr && inj->plan().has_message_faults();
  }
  RecoveryCounters& counters() noexcept { return world_->counters_; }
  void count_sends(std::size_t n) noexcept {
    world_->delivered_.fetch_add(n, std::memory_order_relaxed);
  }
  bool world_aborted() const noexcept { return world_->aborted(); }
  void set_world_aborted() noexcept { world_->aborted_.store(true, std::memory_order_release); }
  void store_blob(std::uint64_t key, std::vector<double> blob) {
    std::lock_guard<std::mutex> lock(world_->blob_mu_);
    world_->blobs_[key] = std::move(blob);
  }

  /// Backends construct per-rank contexts (Context's constructor is
  /// private; World and TransportBackend are its only friends).
  static Context make_context(World* world, int rank) { return Context(world, rank); }

 private:
  World* world_;
};

inline void TransportBackend::publish(Context&, std::uint64_t key, std::vector<double> blob) {
  store_blob(key, std::move(blob));
}

inline long TransportBackend::process_id(int) const noexcept { return 0; }

}  // namespace treesvd::mp
