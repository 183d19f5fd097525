#include "mp/message_passing.hpp"

#include <climits>

#include "analysis/hooks.hpp"
#include "mp/inproc_transport.hpp"
#include "mp/socket_transport.hpp"
#include "mp/transport.hpp"
#include "util/require.hpp"

namespace treesvd::mp {

Context::Context(World* world, int rank)
    : world_(world), rank_(rank), hooks_enabled_(!world->multiprocess()) {}

int Context::size() const noexcept { return world_->size(); }

void Context::check_rank_faults() {
  FaultInjector* inj = world_->injector_.get();
  if (inj == nullptr) return;
  const std::uint64_t op = ops_++;
  if (inj->should_kill(rank_, op)) world_->backend_->execute_kill(*this, op);
}

void Context::send(int dst, std::uint64_t tag, std::vector<double> data) {
  TREESVD_REQUIRE(dst >= 0 && dst < size(), "send: destination rank out of range");
  TREESVD_REQUIRE(dst != rank_, "send: send-to-self is not allowed (use local state)");
  check_rank_faults();
  // Sender's clock rides the message: publish it before the frame is
  // enqueued so the matching recv edge is never beaten by the delivery.
  // (Analysis hooks are in-process only: a rank process's tracker writes
  // would land in its own forked memory and mislead the shared detector.)
  if (hooks_enabled_) {
    TREESVD_FUZZ_POINT(analysis::kFuzzMpSend, static_cast<std::uint64_t>(rank_),
                       static_cast<std::uint64_t>(dst), tag ^ hook_ops_++);
    TREESVD_HB_SEND(world_, rank_, dst, tag);
  }
  world_->backend_->send(*this, dst, tag, std::move(data));
}

std::vector<double> Context::recv(int src, std::uint64_t tag) {
  TREESVD_REQUIRE(src >= 0 && src < size(), "recv: source rank out of range");
  TREESVD_REQUIRE(src != rank_, "recv: receive-from-self would block forever");
  check_rank_faults();
  if (hooks_enabled_) {
    TREESVD_FUZZ_POINT(analysis::kFuzzMpRecv, static_cast<std::uint64_t>(src),
                       static_cast<std::uint64_t>(rank_), tag ^ hook_ops_++);
  }
  std::vector<double> payload = world_->backend_->recv(*this, src, tag);
  // FIFO edge: merge the clock the matching send published (messages of one
  // (src, tag) stream arrive in send order, mirroring the mailbox contract).
  if (hooks_enabled_) {
    TREESVD_HB_RECV(world_, src, rank_, tag);
  }
  return payload;
}

void Context::barrier() {
  check_rank_faults();
  if (hooks_enabled_) {
    TREESVD_FUZZ_POINT(analysis::kFuzzMpSync, static_cast<std::uint64_t>(rank_), 0, hook_ops_++);
  }
  (void)world_->backend_->allreduce_sum(*this, 0.0);
}

double Context::allreduce_sum(double value) {
  check_rank_faults();
  if (hooks_enabled_) {
    TREESVD_FUZZ_POINT(analysis::kFuzzMpSync, static_cast<std::uint64_t>(rank_), 1, hook_ops_++);
  }
  return world_->backend_->allreduce_sum(*this, value);
}

void Context::publish(std::uint64_t key, std::vector<double> blob) {
  world_->backend_->publish(*this, key, std::move(blob));
}

World::World(int ranks) : ranks_(ranks) {
  TREESVD_REQUIRE(ranks >= 1, "need at least one rank");
  backend_ = std::make_unique<InprocTransport>(this);
}

World::~World() = default;

void World::set_backend(Backend backend, const SocketConfig& config) {
  TREESVD_REQUIRE(!running_.load(), "set_backend: a run is in progress");
  if (backend == backend_kind_ && backend == Backend::kInproc) return;
  switch (backend) {
    case Backend::kInproc:
      backend_ = std::make_unique<InprocTransport>(this);
      break;
    case Backend::kSocket:
      TREESVD_REQUIRE(config.heartbeat_interval_ms > 0.0 && config.heartbeat_timeout_ms > 0.0,
                      "socket backend timings must be positive");
      // The IO thread polls for heartbeat_interval_ms + 1 ms as an int.
      TREESVD_REQUIRE(config.heartbeat_interval_ms < static_cast<double>(INT_MAX),
                      "socket backend heartbeat_interval_ms must be below INT_MAX");
      TREESVD_REQUIRE(config.heartbeat_timeout_ms > config.heartbeat_interval_ms,
                      "socket backend heartbeat_timeout_ms must exceed heartbeat_interval_ms, or "
                      "the launcher kills ranks between beacons");
      backend_ = std::make_unique<SocketTransport>(this, config);
      break;
  }
  backend_kind_ = backend;
}

const char* World::backend_name() const noexcept { return backend_->name(); }

bool World::multiprocess() const noexcept { return backend_->multiprocess(); }

void World::set_fault_plan(const FaultPlan& plan) {
  TREESVD_REQUIRE(plan.kill_rank < size(), "fault plan targets a rank outside this world");
  injector_ = std::make_unique<FaultInjector>(plan);
}

void World::run(const std::function<void(Context&)>& program) {
  TREESVD_REQUIRE(!running_.load(), "World::run: a run is already in progress");
  aborted_.store(false, std::memory_order_release);
  running_.store(true);
  try {
    backend_->run(program);
  } catch (...) {
    running_.store(false);
    throw;
  }
  running_.store(false);
}

bool World::has_published(std::uint64_t key) const {
  std::lock_guard<std::mutex> lock(blob_mu_);
  return blobs_.count(key) != 0;
}

std::vector<double> World::published(std::uint64_t key) const {
  std::lock_guard<std::mutex> lock(blob_mu_);
  const auto it = blobs_.find(key);
  TREESVD_REQUIRE(it != blobs_.end(),
                  "published: no blob under key " + std::to_string(key));
  return it->second;
}

long World::process_id(int rank) const noexcept {
  if (rank < 0 || rank >= ranks_) return 0;
  return backend_->process_id(rank);
}

}  // namespace treesvd::mp
