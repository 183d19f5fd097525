#include "svd/serve.hpp"

#include <bit>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>

#include "analysis/fuzz.hpp"
#include "analysis/hooks.hpp"
#include "svd/recovery.hpp"
#include "util/require.hpp"

namespace treesvd {
namespace {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Serve-chaos decisions hash (seed, id) with the mp/fault mixer, so they need
// no generator state.
using analysis::mix64;
using analysis::unit_interval;

/// Salt separating the request-fault stream from every other splitmix64 use.
constexpr std::uint64_t kRequestSalt = 0x5E12FEull;

/// Wall-clock safety bound on a planned shard stall (30 s); the stall's
/// release is the submission-count event, this bound only caps a plan whose
/// event never comes.
constexpr std::uint64_t kStallBoundNs = 30'000'000'000ull;

std::string injected_fault_message(std::uint64_t id) {
  return "serve chaos: injected solver fault (request " + std::to_string(id) + ")";
}

}  // namespace

ServeFaultPlan::RequestFault ServeFaultPlan::request_fault(std::uint64_t id) const noexcept {
  if (poison_prob <= 0.0 && throw_prob <= 0.0 && expire_prob <= 0.0) return RequestFault::kNone;
  // First match wins over a partition of [0, 1) — at most one fault per
  // request, bit-reproducible for a given (seed, id).
  const double u = unit_interval(mix64(mix64(seed ^ kRequestSalt) ^ id));
  double edge = poison_prob;
  if (u < edge) return RequestFault::kPoison;
  edge += throw_prob;
  if (u < edge) return RequestFault::kThrow;
  edge += expire_prob;
  if (u < edge) return RequestFault::kExpire;
  return RequestFault::kNone;
}

void LatencyHistogram::record(std::uint64_t ns) noexcept {
  const auto bucket = static_cast<std::size_t>(std::bit_width(ns));
  ++buckets_[bucket < kBuckets ? bucket : kBuckets - 1];
  ++total_;
  if (ns > max_ns_) max_ns_ = ns;
}

void LatencyHistogram::merge(const LatencyHistogram& other) noexcept {
  for (std::size_t k = 0; k < kBuckets; ++k) buckets_[k] += other.buckets_[k];
  total_ += other.total_;
  if (other.max_ns_ > max_ns_) max_ns_ = other.max_ns_;
}

std::uint64_t LatencyHistogram::quantile_ns(double q) const noexcept {
  if (total_ == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the quantile sample, 1-based ceiling — the smallest rank whose
  // cumulative count covers fraction q.
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total_));
  std::uint64_t seen = 0;
  for (std::size_t k = 0; k < kBuckets; ++k) {
    seen += buckets_[k];
    if (seen > rank || (seen == rank && rank == total_)) {
      if (k == 0) return 0;
      if (k >= 63) return ~std::uint64_t{0};
      return (std::uint64_t{1} << k) - 1;  // inclusive upper bound of bucket k
    }
  }
  return max_ns_;
}

/// One worker's world: its queue, its engine, its pointer scratch and its
/// telemetry. Iteration scratch (pending/keep/in/out) is touched only by the
/// owning thread (and by stop() strictly after joining it); telemetry sits
/// behind stats_mu and the load counter is an atomic — stats() and
/// pick_shard() read both while the shard runs.
struct SvdServer::Shard {
  BoundedMpscQueue<Request> queue;
  BatchedSvd engine;
  std::vector<Request> pending;
  std::vector<Request> keep;
  std::vector<const Matrix*> in;
  std::vector<SvdResult*> out;

  /// Telemetry snapshot lock: the shard thread records under it, stats()
  /// merges under it — a live snapshot is consistent, not merely approximate.
  mutable std::mutex stats_mu;
  LatencyHistogram latency;
  std::uint64_t batches = 0;
  std::uint64_t lanes = 0;

  /// Requests popped but not yet terminal; with the queue depth, the load
  /// that admission routes on.
  std::atomic<std::size_t> inflight_count{0};

  Shard(const Ordering& ordering, const ServeOptions& o)
      : queue(o.queue_capacity), engine(o.rows, o.cols, ordering, o.batch) {
    const std::size_t w = o.batch.lane_width;
    engine.reserve(w);
    pending.reserve(w);
    keep.reserve(w);
    in.reserve(w);
    out.reserve(w);
  }
};

SvdServer::SvdServer(const Ordering& ordering, const ServeOptions& options)
    : options_(options) {
  TREESVD_REQUIRE(options_.shards >= 1, "SvdServer needs at least one shard");
  shards_.reserve(options_.shards);
  for (std::size_t s = 0; s < options_.shards; ++s)
    shards_.push_back(std::make_unique<Shard>(ordering, options_));
}

SvdServer::~SvdServer() { stop(); }

void SvdServer::start() {
  TREESVD_REQUIRE(!started_, "SvdServer::start called twice");
  started_ = true;
  threads_.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s)
    threads_.emplace_back([this, s] { shard_loop(s); });
}

void SvdServer::stop() {
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_relaxed);
  // The drain: a closed queue still hands out what it holds, and a shard
  // leaves its loop only once pop_batch finds its queue closed and empty (a
  // stalled shard wakes on stopping_ first). So when the joins return, every
  // accepted request has reached a terminal state — none is lost to shutdown.
  for (auto& sh : shards_) sh->queue.close();
  for (auto& t : threads_) t.join();
  threads_.clear();
}

std::size_t SvdServer::pick_shard() const noexcept {
  // Least-loaded admission: shortest (queued + in-flight) shard, ties to the
  // lowest index. A stalled shard's load never drains, so routing starves it
  // without any explicit health signal.
  std::size_t best = 0;
  std::size_t best_load = std::numeric_limits<std::size_t>::max();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& sh = *shards_[s];
    const std::size_t load =
        sh.queue.size() + sh.inflight_count.load(std::memory_order_relaxed);
    if (load < best_load) {
      best_load = load;
      best = s;
    }
  }
  return best;
}

bool SvdServer::admit(const Matrix& a, SvdResult* out, std::uint64_t deadline_ns, bool block) {
  TREESVD_REQUIRE(out != nullptr, "SvdServer::submit needs a result slot");
  if (!started_ || stopping_.load(std::memory_order_relaxed)) return false;
  const std::uint64_t now = now_ns();
  Request req;
  req.a = &a;
  req.out = out;
  req.enqueue_ns = now;
  if (deadline_ns != 0) {
    const std::uint64_t cap = std::numeric_limits<std::uint64_t>::max() - now;
    req.deadline_ns = now + (deadline_ns < cap ? deadline_ns : cap);
  }
  req.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  BoundedMpscQueue<Request>& queue = shards_[pick_shard()]->queue;
  if (block) {
    if (!queue.push(req)) return false;  // closed mid-wait
  } else if (!queue.try_push(req)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void SvdServer::wait_idle() {
  std::unique_lock<std::mutex> lock(idle_mu_);
  idle_cv_.wait(lock, [&] {
    return completed_.load(std::memory_order_relaxed) >=
           submitted_.load(std::memory_order_relaxed);
  });
}

void SvdServer::bump_completed(std::size_t k) {
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    completed_.fetch_add(k, std::memory_order_relaxed);
  }
  idle_cv_.notify_all();
}

void SvdServer::complete_solved(Shard& sh, const Request& r, std::uint64_t done_ns,
                                std::size_t batch_lanes) {
  {
    std::lock_guard<std::mutex> lock(sh.stats_mu);
    sh.latency.record(done_ns > r.enqueue_ns ? done_ns - r.enqueue_ns : 0);
    ++sh.batches;
    sh.lanes += batch_lanes;
  }
  solved_.fetch_add(1, std::memory_order_relaxed);
  bump_completed(1);
}

void SvdServer::complete_expired(Shard& sh, const Request& r) {
  SvdResult res;
  res.converged = false;
  res.status = SvdStatus::kDeadlineExpired;
  res.diagnostics.error = "deadline expired before batch formation";
  *r.out = std::move(res);
  const std::uint64_t done_ns = now_ns();
  {
    std::lock_guard<std::mutex> lock(sh.stats_mu);
    sh.latency.record(done_ns > r.enqueue_ns ? done_ns - r.enqueue_ns : 0);
  }
  expired_.fetch_add(1, std::memory_order_relaxed);
  bump_completed(1);
}

void SvdServer::complete_failed(Shard& sh, const Request& r, const std::string& why) {
  SvdResult res;
  res.converged = false;
  res.status = SvdStatus::kFailed;
  res.diagnostics.error = why;
  *r.out = std::move(res);
  const std::uint64_t done_ns = now_ns();
  {
    std::lock_guard<std::mutex> lock(sh.stats_mu);
    sh.latency.record(done_ns > r.enqueue_ns ? done_ns - r.enqueue_ns : 0);
  }
  failed_.fetch_add(1, std::memory_order_relaxed);
  bump_completed(1);
}

ServeStats SvdServer::stats() const {
  ServeStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.solved = solved_.load(std::memory_order_relaxed);
  s.expired = expired_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.stalls_injected = stalls_injected_.load(std::memory_order_relaxed);
  s.shards.reserve(shards_.size());
  for (const auto& shp : shards_) {
    const Shard& sh = *shp;
    ShardSnapshot snap;
    {
      // Snapshot under the shard's stats lock: no torn histograms even while
      // the shard is mid-record.
      std::lock_guard<std::mutex> lock(sh.stats_mu);
      snap.batches = sh.batches;
      snap.lanes = sh.lanes;
      s.latency.merge(sh.latency);
    }
    snap.queued = sh.queue.size();
    snap.inflight = sh.inflight_count.load(std::memory_order_relaxed);
    s.batches += snap.batches;
    s.batched_lanes += snap.lanes;
    s.shards.push_back(snap);
  }
  return s;
}

void SvdServer::maybe_stall(std::size_t idx) {
  const ServeFaultPlan& fp = options_.faults;
  if (fp.stall_shard < 0 || static_cast<std::size_t>(fp.stall_shard) != idx) return;
  stalls_injected_.fetch_add(1, std::memory_order_relaxed);
  // The release condition is the server-wide submission count — an event in
  // the request trace, not a wall-clock instant — so a stalled run's counters
  // replay deterministically. The time bound is a safety net only.
  const std::uint64_t t0 = now_ns();
  for (;;) {
    if (stopping_.load(std::memory_order_relaxed)) return;
    if (fp.stall_until_submitted != 0 &&
        submitted_.load(std::memory_order_relaxed) >= fp.stall_until_submitted)
      return;
    if (now_ns() - t0 >= kStallBoundNs) return;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

void SvdServer::finish_solo(Shard& sh, const Request& r) {
  const ServeFaultPlan& fp = options_.faults;
  if (fp.should_throw(r.id)) {
    complete_failed(sh, r, injected_fault_message(r.id));
    return;
  }
  // Classify poison without paying the engine's validation throw: the lane
  // is doomed anyway, and the probe names the offending column.
  const int bad = first_nonfinite_column(*r.a);
  if (bad >= 0) {
    complete_failed(sh, r, "poison input: column " + std::to_string(bad) + " is non-finite");
    return;
  }
  try {
    sh.engine.solve_single_into(*r.a, r.out);
  } catch (const std::exception& e) {
    complete_failed(sh, r, e.what());
    return;
  } catch (...) {
    complete_failed(sh, r, "unknown solver exception");
    return;
  }
  complete_solved(sh, r, now_ns(), 1);
}

void SvdServer::solve_batch(Shard& sh) {
  sh.in.clear();
  sh.out.clear();
  for (const Request& r : sh.keep) {
    sh.in.push_back(r.a);
    sh.out.push_back(r.out);
  }
  const ServeFaultPlan& fp = options_.faults;
  bool clean = true;
  try {
    if (fp.throw_prob > 0.0) {
      for (const Request& r : sh.keep)
        if (fp.should_throw(r.id)) throw std::runtime_error(injected_fault_message(r.id));
    }
    sh.engine.solve_into({sh.in.data(), sh.in.size()}, {sh.out.data(), sh.out.size()},
                         nullptr);
  } catch (...) {
    // One poison request must not take its batchmates down: fall through to
    // lane-by-lane isolation. (solve_into validates every input before
    // writing any output, so no partial results leak.)
    clean = false;
  }
  if (clean) {
    const std::uint64_t done_ns = now_ns();
    {
      std::lock_guard<std::mutex> lock(sh.stats_mu);
      for (const Request& r : sh.keep)
        sh.latency.record(done_ns > r.enqueue_ns ? done_ns - r.enqueue_ns : 0);
      ++sh.batches;
      sh.lanes += sh.keep.size();
    }
    solved_.fetch_add(sh.keep.size(), std::memory_order_relaxed);
    bump_completed(sh.keep.size());
    return;
  }
  // A lane re-run solo is a batch of one, which the engine contract makes
  // bitwise equal to the sequential driver — exactly what the lane would
  // have produced in the clean batch. Only the poison lanes end kFailed;
  // every lane already passed formation, so no deadline is re-checked.
  for (const Request& r : sh.keep) finish_solo(sh, r);
}

void SvdServer::shard_loop(std::size_t idx) {
  TREESVD_HB_SCOPED_FRAME(serve_frame, [&] { return "serve shard " + std::to_string(idx); });
  Shard& sh = *shards_[idx];
  const std::size_t max_batch = options_.batch.lane_width;
  maybe_stall(idx);
  for (;;) {
    sh.pending.clear();
    // Block for the first request, then opportunistically fill the rest of
    // the SIMD shard from whatever else is already queued.
    if (sh.queue.pop_batch(sh.pending, max_batch) == 0) break;
    // Formation-time deadline check: an expired request completes without
    // burning a lane, and the batch re-forms from the survivors.
    const std::uint64_t formed_ns = now_ns();
    sh.keep.clear();
    for (const Request& r : sh.pending) {
      if (r.deadline_ns != 0 && formed_ns > r.deadline_ns)
        complete_expired(sh, r);
      else
        sh.keep.push_back(r);
    }
    if (sh.keep.empty()) continue;
    sh.inflight_count.store(sh.keep.size(), std::memory_order_relaxed);
    solve_batch(sh);
    sh.inflight_count.store(0, std::memory_order_relaxed);
  }
}

}  // namespace treesvd
