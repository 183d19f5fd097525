#include "mp/inproc_transport.hpp"

#include <exception>
#include <string>
#include <thread>
#include <utility>

#include "analysis/hooks.hpp"
#include "mp/frame.hpp"
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

void InprocTransport::barrier(Context&) { barrier_wait(); }

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
    if (!reliable().enabled) {
      box.queues[{src, tag}].push_back(Packet{std::move(data)});
    } else {
      const Key key{src, tag};
      const std::uint64_t seq = box.send_seq[key]++;
      const FaultAction act =
          injector() != nullptr ? injector()->action(src, dst, tag, seq) : FaultAction::kDeliver;
      auto& queue = box.queues[key];
      switch (act) {
        case FaultAction::kDeliver:
          queue.push_back(Packet{make_frame(tag, seq, data)});
          break;
        case FaultAction::kDrop:
          counters().add_drop();
          break;
        case FaultAction::kDuplicate: {
          Packet frame{make_frame(tag, seq, data)};
          queue.push_back(frame);
          queue.push_back(std::move(frame));
          counters().add_duplicate_injected();
          break;
        }
        case FaultAction::kCorrupt: {
          Packet frame{make_frame(tag, seq, data)};
          injector()->corrupt_payload(frame.data, src, dst, tag, seq);
          queue.push_back(std::move(frame));
          counters().add_corruption_injected();
          break;
        }
        case FaultAction::kDelay:
          // Held past the receive deadline: the receiver recovers via resend
          // and the late copy is suppressed by its sequence number, so the
          // transport treats the frame as lost the moment it is delayed.
          counters().add_delay();
          break;
      }
      // The clean copy backs NACK/resend recovery until the receiver
      // acknowledges the sequence number (consumes it), whatever the fate of
      // the frame above.
      box.store[key][seq] = std::move(data);
    }
  }
  count_sends(1);
  box.cv.notify_all();
}

std::vector<double> InprocTransport::recover_locked(Mailbox& box, const Key& key,
                                                    std::uint64_t seq, int src, int dst,
                                                    std::uint64_t tag) {
  double wait = kRetryDeadline;
  for (int attempt = 0; attempt < reliable().max_retries; ++attempt) {
    counters().add_retry();
    counters().add_virtual_backoff(wait);
    wait *= kRetryBackoff;
    if (injector() != nullptr && !injector()->resend_survives(src, dst, tag, seq, attempt)) {
      counters().add_drop();
      continue;  // the retransmission was lost too; back off and NACK again
    }
    const auto sit = box.store.find(key);
    TREESVD_ASSERT(sit != box.store.end());
    const auto pit = sit->second.find(seq);
    TREESVD_ASSERT(pit != sit->second.end());
    std::vector<double> payload = pit->second;
    counters().add_resend();
    box.next_seq[key] = seq + 1;
    sit->second.erase(sit->second.begin(), sit->second.upper_bound(seq));
    return payload;
  }
  throw transport_exhausted("inproc", src, dst, tag, seq, reliable().max_retries);
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
  const auto src_gone = [&] {
    return world_aborted() &&
           mailboxes_[static_cast<std::size_t>(src)]->finished.load(std::memory_order_acquire);
  };
  const auto aborted_context = [&] {
    return "recv blocked on finished rank: src=" + std::to_string(src) +
           " dst=" + std::to_string(rank) + " tag=" + std::to_string(tag);
  };

  if (!reliable().enabled) {
    box.cv.wait(lock, [&] {
      const auto it = box.queues.find(key);
      return (it != box.queues.end() && !it->second.empty()) || src_gone();
    });
    auto it = box.queues.find(key);
    if (it == box.queues.end() || it->second.empty()) throw WorldAbortedError(aborted_context());
    Packet p = std::move(it->second.front());
    it->second.pop_front();
    if (it->second.empty()) box.queues.erase(it);
    return std::move(p.data);
  }

  // Reliable path: validate frames until the expected sequence number is
  // consumed cleanly, or the loss is evident and recovery takes over. The
  // sender writes its retransmit store before enqueuing the frame (same
  // critical section), so "store holds the expected seq but the queue does
  // not" is proof of a drop/delay, never a race with an in-flight send.
  for (;;) {
    const std::uint64_t expected = box.next_seq[key];
    box.cv.wait(lock, [&] {
      const auto it = box.queues.find(key);
      if (it != box.queues.end() && !it->second.empty()) return true;
      const auto sit = box.store.find(key);
      if (sit != box.store.end() && sit->second.count(expected) != 0) return true;
      return src_gone();
    });
    const auto it = box.queues.find(key);
    if (it != box.queues.end() && !it->second.empty()) {
      std::uint64_t seq = 0;
      if (!frame_valid(tag, it->second.front().data, &seq)) {
        it->second.pop_front();
        counters().add_corruption_detected();
        return recover_locked(box, key, expected, src, rank, tag);
      }
      if (seq < expected) {  // duplicate or stale resend survivor
        it->second.pop_front();
        counters().add_duplicate_suppressed();
        continue;
      }
      if (seq == expected) {
        std::vector<double> payload(it->second.front().data.begin() +
                                        static_cast<std::ptrdiff_t>(kFrameHeader),
                                    it->second.front().data.end());
        it->second.pop_front();
        box.next_seq[key] = expected + 1;
        const auto sit = box.store.find(key);
        if (sit != box.store.end())
          sit->second.erase(sit->second.begin(), sit->second.upper_bound(expected));
        return payload;
      }
      // seq > expected: the expected frame was lost; leave this one queued.
      return recover_locked(box, key, expected, src, rank, tag);
    }
    const auto sit = box.store.find(key);
    if (sit != box.store.end() && sit->second.count(expected) != 0)
      return recover_locked(box, key, expected, src, rank, tag);
    if (src_gone()) throw WorldAbortedError(aborted_context());
  }
}

void InprocTransport::barrier_wait() {
  std::unique_lock<std::mutex> lock(sync_mu_);
  if (world_aborted()) throw WorldAbortedError("barrier entered on an aborted world");
  const std::uint64_t generation = sync_generation_;
  TREESVD_HB_BARRIER_ARRIVE(&world(), generation);
  if (++sync_waiting_ == world().size()) {
    sync_waiting_ = 0;
    reduce_accum_ = 0.0;  // barriers and reduces share the counter
    ++sync_generation_;
    sync_cv_.notify_all();
  } else {
    sync_cv_.wait(lock, [&] { return world_aborted() || sync_generation_ != generation; });
    if (sync_generation_ == generation)
      throw WorldAbortedError("barrier generation " + std::to_string(generation) +
                              " can never complete");
  }
  TREESVD_HB_BARRIER_DEPART(&world(), generation);
}

void InprocTransport::abort_world() noexcept {
  set_world_aborted(true);
  // Wake every sleeper under its own lock so no wait misses the flag.
  for (auto& box : mailboxes_) {
    std::lock_guard<std::mutex> lock(box->mu);
    box->cv.notify_all();
  }
  std::lock_guard<std::mutex> lock(sync_mu_);
  sync_cv_.notify_all();
}

void InprocTransport::reset_for_replay() {
  for (auto& box : mailboxes_) {
    std::lock_guard<std::mutex> lock(box->mu);
    box->queues.clear();
    box->send_seq.clear();
    box->next_seq.clear();
    box->store.clear();
  }
  {
    std::lock_guard<std::mutex> lock(sync_mu_);
    sync_waiting_ = 0;
    sync_generation_ = 0;
    reduce_accum_ = 0.0;
    reduce_result_ = 0.0;
  }
  set_world_aborted(false);
}

void InprocTransport::purge_leftovers() {
  for (auto& box : mailboxes_) {
    std::lock_guard<std::mutex> lock(box->mu);
    std::size_t leftover = 0;
    for (const auto& [key, queue] : box->queues) leftover += queue.size();
    if (leftover != 0) counters().add_duplicate_suppressed(leftover);
    box->queues.clear();
    box->send_seq.clear();
    box->next_seq.clear();
    box->store.clear();
  }
}

void InprocTransport::run(const std::function<void(Context&)>& program) {
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
