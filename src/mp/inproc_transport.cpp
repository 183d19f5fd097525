#include "mp/inproc_transport.hpp"

#include <exception>
#include <string>
#include <thread>
#include <utility>

#include "analysis/hooks.hpp"
#include "util/require.hpp"

namespace treesvd::mp {
namespace {

bool is_world_aborted_error(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const WorldAbortedError&) {
    return true;
  } catch (...) {
    return false;
  }
}

}  // namespace

InprocTransport::InprocTransport(World* world) : TransportBackend(world) {
  mailboxes_.reserve(static_cast<std::size_t>(world->size()));
  for (int r = 0; r < world->size(); ++r) mailboxes_.push_back(std::make_unique<Mailbox>());
}

void InprocTransport::send(Context& ctx, int dst, std::uint64_t tag, std::vector<double> data) {
  deliver(dst, ctx.rank(), tag, std::move(data));
}

std::vector<double> InprocTransport::recv(Context& ctx, int src, std::uint64_t tag) {
  return take(ctx.rank(), src, tag);
}

void InprocTransport::execute_kill(Context& ctx, std::uint64_t op) {
  counters().add_kill();
  throw RankKilledError(ctx.rank(), op);
}

double InprocTransport::allreduce_sum(Context&, double value) {
  // Two-phase: accumulate under the sync lock, publish at the last arrival,
  // then the generation bump protects the result from the next round's reset.
  std::unique_lock<std::mutex> lock(sync_mu_);
  if (world_aborted()) throw WorldAbortedError("allreduce_sum entered on an aborted world");
  reduce_accum_ += value;
  const std::uint64_t generation = sync_generation_;
  TREESVD_HB_BARRIER_ARRIVE(&world(), generation);
  if (++sync_waiting_ == world().size()) {
    reduce_result_ = reduce_accum_;
    reduce_accum_ = 0.0;
    sync_waiting_ = 0;
    ++sync_generation_;
    sync_cv_.notify_all();
  } else {
    sync_cv_.wait(lock, [&] { return world_aborted() || sync_generation_ != generation; });
    if (sync_generation_ == generation)
      throw WorldAbortedError("allreduce_sum generation " + std::to_string(generation) +
                              " can never complete");
  }
  TREESVD_HB_BARRIER_DEPART(&world(), generation);
  return reduce_result_;
}

void InprocTransport::deliver(int dst, int src, std::uint64_t tag, std::vector<double> data) {
  TREESVD_REQUIRE(dst >= 0 && dst < world().size(), "send: destination rank out of range");
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dst)];
  {
    std::lock_guard<std::mutex> lock(box.mu);
    box.queues[{src, tag}].push_back(std::move(data));
  }
  count_sends(1);
  box.cv.notify_all();
}

std::vector<double> InprocTransport::take(int rank, int src, std::uint64_t tag) {
  TREESVD_REQUIRE(src >= 0 && src < world().size(), "recv: source rank out of range");
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(rank)];
  std::unique_lock<std::mutex> lock(box.mu);
  const Key key{src, tag};

  // A blocked recv may conclude the message will never come only when the
  // source rank has finished (died or exited): everything a rank sends is
  // delivered synchronously from its own thread, so finished + no data is
  // conclusive — and waiting for it keeps the abort path deterministic (a
  // message still coming from a live peer is always waited for).
  box.cv.wait(lock, [&] {
    const auto it = box.queues.find(key);
    return (it != box.queues.end() && !it->second.empty()) ||
           (world_aborted() &&
            mailboxes_[static_cast<std::size_t>(src)]->finished.load(std::memory_order_acquire));
  });
  const auto it = box.queues.find(key);
  if (it == box.queues.end() || it->second.empty())
    throw WorldAbortedError("recv blocked on finished rank: src=" + std::to_string(src) +
                            " dst=" + std::to_string(rank) + " tag=" + std::to_string(tag));
  std::vector<double> payload = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) box.queues.erase(it);
  return payload;
}

void InprocTransport::abort_world() noexcept {
  set_world_aborted();
  // Wake every sleeper under its own lock so no wait misses the flag.
  for (auto& box : mailboxes_) {
    std::lock_guard<std::mutex> lock(box->mu);
    box->cv.notify_all();
  }
  std::lock_guard<std::mutex> lock(sync_mu_);
  sync_cv_.notify_all();
}

void InprocTransport::discard_frames() {
  for (auto& box : mailboxes_) {
    std::lock_guard<std::mutex> lock(box->mu);
    box->queues.clear();
  }
}

void InprocTransport::run(const std::function<void(Context&)>& program) {
  // Start from an empty transport: an aborted run leaves frames and a
  // half-finished collective behind.
  discard_frames();
  {
    std::lock_guard<std::mutex> lock(sync_mu_);
    sync_waiting_ = 0;
    reduce_accum_ = 0.0;
  }
  for (auto& box : mailboxes_) box->finished.store(false, std::memory_order_release);
  [[maybe_unused]] const std::uint64_t epoch = ++run_epoch_;
  TREESVD_HB_FORK(&world(), epoch);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(mailboxes_.size());
  threads.reserve(mailboxes_.size());
  World* const w = &world();
  for (int r = 0; r < world().size(); ++r) {
    threads.emplace_back([&, w, r] {
      TREESVD_HB_TASK_BEGIN(w, epoch, "mp rank " + std::to_string(r));
      Context ctx = make_context(w, r);
      try {
        program(ctx);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        abort_world();
      }
      // Mark this rank finished and wake every receiver: a rank blocked on
      // this one as a source can now conclude (deterministically) that its
      // message will never arrive.
      mailboxes_[static_cast<std::size_t>(r)]->finished.store(true, std::memory_order_release);
      for (auto& box : mailboxes_) {
        std::lock_guard<std::mutex> lock(box->mu);
        box->cv.notify_all();
      }
      TREESVD_HB_TASK_END(w, epoch);
    });
  }
  for (auto& t : threads) t.join();
  TREESVD_HB_JOIN(&world(), epoch);
  // All ranks joined. Rethrow deterministically: the lowest-rank primary
  // (program) failure wins; secondary WorldAbortedError unwindings — ranks
  // woken only because the world died around them — surface solely when no
  // primary exists.
  std::exception_ptr secondary;
  for (const auto& e : errors) {
    if (!e) continue;
    if (is_world_aborted_error(e)) {
      if (!secondary) secondary = e;
      continue;
    }
    std::rethrow_exception(e);
  }
  if (secondary) std::rethrow_exception(secondary);
}

}  // namespace treesvd::mp
