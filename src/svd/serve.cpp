#include "svd/serve.hpp"

#include <bit>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>

#include "analysis/fuzz.hpp"
#include "analysis/hooks.hpp"
#include "core/registry.hpp"
#include "linalg/gemm.hpp"
#include "svd/recovery.hpp"
#include "util/require.hpp"
#include "util/thread_pool.hpp"

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

std::string injected_fault_message(std::uint64_t id) {
  return "serve chaos: injected solver fault (request " + std::to_string(id) + ")";
}

}  // namespace

ServeFaultPlan::RequestFault ServeFaultPlan::request_fault(std::uint64_t id) const noexcept {
  if (!enabled || (poison_prob <= 0.0 && throw_prob <= 0.0 && expire_prob <= 0.0))
    return RequestFault::kNone;
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
/// owning thread (and by the supervisor/stop strictly after joining it);
/// telemetry sits behind stats_mu, the in-flight record behind inflight_mu,
/// and the health flags are atomics — stats() and the supervisor read all of
/// it while the shard runs.
struct SvdServer::Shard {
  BoundedMpscQueue<Request> queue;
  std::unique_ptr<BatchedSvd> engine;
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

  /// Loop-progress counter: ticked at the top of every shard iteration and
  /// after every solve. Flat heartbeat + pending work = stuck.
  std::atomic<std::uint64_t> heartbeat{0};
  std::atomic<std::size_t> inflight_count{0};
  std::atomic<bool> dead{false};
  std::atomic<bool> quarantined{false};
  std::atomic<std::uint64_t> deaths{0};
  std::atomic<bool> stall_fired{false};

  /// The requests popped but not yet terminal, recorded before each solve so
  /// the supervisor can requeue them if the thread dies mid-batch.
  std::mutex inflight_mu;
  std::vector<Request> inflight;

  // Supervisor-private stuck-detection state (read/written only by the
  // supervisor thread, initialised before it starts).
  std::uint64_t last_heartbeat = 0;
  std::uint64_t flat_since_ns = 0;
  bool stuck_latched = false;

  Shard(const Ordering& ordering, const ServeOptions& o)
      : queue(o.queue_capacity),
        engine(std::make_unique<BatchedSvd>(o.rows, o.cols, ordering, o.batch)) {
    const std::size_t w = o.batch.lane_width;
    engine->reserve(w);
    pending.reserve(w);
    keep.reserve(w);
    inflight.reserve(w);
    in.reserve(w);
    out.reserve(w);
  }
};

SvdServer::SvdServer(const Ordering& ordering, const ServeOptions& options)
    : options_(options), ordering_name_(ordering.name()) {
  TREESVD_REQUIRE(options_.shards >= 1, "SvdServer needs at least one shard");
  high_watermark_ = options_.high_watermark != 0
                        ? options_.high_watermark
                        : options_.shards * options_.queue_capacity;
  low_watermark_ =
      options_.low_watermark != 0 ? options_.low_watermark : high_watermark_ / 2;
  TREESVD_REQUIRE(low_watermark_ <= high_watermark_,
                  "SvdServer watermarks inverted (low > high)");
  shards_.reserve(options_.shards);
  for (std::size_t s = 0; s < options_.shards; ++s)
    shards_.push_back(std::make_unique<Shard>(ordering, options_));
}

SvdServer::~SvdServer() { stop(); }

void SvdServer::start() {
  TREESVD_REQUIRE(!started_, "SvdServer::start called twice");
  started_ = true;
  const std::uint64_t t0 = now_ns();
  for (auto& sh : shards_) sh->flat_since_ns = t0;
  threads_.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s)
    threads_.emplace_back([this, s] { shard_loop(s); });
  if (options_.supervisor.enabled)
    supervisor_ = std::thread([this] { supervisor_loop(); });
}

void SvdServer::stop() {
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_relaxed);
  if (supervisor_.joinable()) {
    { std::lock_guard<std::mutex> lk(sup_mu_); }
    sup_cv_.notify_all();
    supervisor_.join();
  }
  // Adopt shards that died after the supervisor's last pass (or with the
  // supervisor disabled): collect their in-flight requests for the drain.
  std::vector<std::pair<std::size_t, Request>> orphans;
  for (std::size_t s = 0; s < shards_.size() && s < threads_.size(); ++s) {
    Shard& sh = *shards_[s];
    if (!sh.dead.load(std::memory_order_acquire)) continue;
    if (threads_[s].joinable()) threads_[s].join();
    std::lock_guard<std::mutex> lock(sh.inflight_mu);
    for (Request& r : sh.inflight) orphans.emplace_back(s, r);
    sh.inflight.clear();
    sh.inflight_count.store(0, std::memory_order_relaxed);
  }
  for (auto& sh : shards_) sh->queue.close();
  for (auto& t : threads_)
    if (t.joinable()) t.join();
  threads_.clear();
  // Drain: every request still queued anywhere reaches a terminal state —
  // an accepted submission is never lost, even across shutdown.
  std::vector<Request> leftovers;
  for (auto& shp : shards_) {
    Shard& sh = *shp;
    leftovers.clear();
    while (sh.queue.pop_batch(leftovers, sh.queue.capacity() + 1) > 0) {
    }
    for (const Request& r : leftovers) finish_solo(sh, r);
  }
  for (auto& [s, r] : orphans) finish_solo(*shards_[s], r);
}

int SvdServer::pick_shard() const noexcept {
  // Least-loaded admission: shortest (queued + in-flight) healthy shard,
  // ties to the lowest index. A stalled or dying shard's load never drains,
  // so routing starves it without any explicit health signal; quarantined
  // shards are skipped outright.
  int best = -1;
  std::size_t best_load = std::numeric_limits<std::size_t>::max();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& sh = *shards_[s];
    if (sh.quarantined.load(std::memory_order_relaxed)) continue;
    const std::size_t load =
        sh.queue.size() + sh.inflight_count.load(std::memory_order_relaxed);
    if (load < best_load) {
      best_load = load;
      best = static_cast<int>(s);
    }
  }
  return best;
}

SubmitOutcome SvdServer::submit(const Matrix& a, SvdResult* out, const SubmitOptions& opt) {
  TREESVD_REQUIRE(out != nullptr, "SvdServer::submit needs a result slot");
  if (!started_ || stopping_.load(std::memory_order_relaxed)) return SubmitOutcome::kStopped;
  const std::uint64_t now = now_ns();
  Request req;
  req.a = &a;
  req.out = out;
  req.enqueue_ns = now;
  if (opt.deadline_ns != 0) {
    const std::uint64_t cap = std::numeric_limits<std::uint64_t>::max() - now;
    req.deadline_ns = now + (opt.deadline_ns < cap ? opt.deadline_ns : cap);
  }
  req.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  const int s = pick_shard();
  if (s < 0) return SubmitOutcome::kStopped;  // every shard quarantined
  Shard& sh = *shards_[static_cast<std::size_t>(s)];
  bool accepted = false;
  switch (opt.policy) {
    case SubmitPolicy::kBlock:
      if (!sh.queue.push(req)) return SubmitOutcome::kStopped;  // closed mid-wait
      accepted = true;
      break;
    case SubmitPolicy::kReject:
      accepted = sh.queue.try_push(req);
      break;
    case SubmitPolicy::kShedExpired:
      accepted = sh.queue.try_push(req);
      if (!accepted) {
        shed_expired(sh, now);
        accepted = sh.queue.try_push(req);
      }
      break;
  }
  if (!accepted) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return SubmitOutcome::kQueueFull;
  }
  const std::uint64_t subs = submitted_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (subs - completed_.load(std::memory_order_relaxed) >= high_watermark_) {
    // Set-and-clear of overloaded_ is serialized under idle_mu_: an unlocked
    // store here could land after the drain's clear check in bump_completed
    // and stick the server not-ready forever. Re-check under the lock so a
    // set always reflects the backlog at a serialized instant, which every
    // later completion observes. Only the overload onset pays for the lock.
    std::lock_guard<std::mutex> lock(idle_mu_);
    if (submitted_.load(std::memory_order_relaxed) -
            completed_.load(std::memory_order_relaxed) >=
        high_watermark_)
      overloaded_.store(true, std::memory_order_relaxed);
  }
  return SubmitOutcome::kAccepted;
}

void SvdServer::shed_expired(Shard& sh, std::uint64_t now) {
  // Off the steady path by construction: runs only when a kShedExpired
  // submission meets a full queue.
  std::vector<Request> evicted;
  sh.queue.remove_if(
      [now](const Request& r) { return r.deadline_ns != 0 && now > r.deadline_ns; }, evicted);
  for (const Request& r : evicted) complete_expired(sh, r, true);
}

bool SvdServer::ready() const noexcept {
  return started_ && !stopping_.load(std::memory_order_relaxed) &&
         !overloaded_.load(std::memory_order_relaxed);
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
    // Hysteresis clear, under the same lock as the set in submit(): every
    // completion after a serialized set runs this check and sees the flag.
    if (overloaded_.load(std::memory_order_relaxed)) {
      const std::uint64_t backlog = submitted_.load(std::memory_order_relaxed) -
                                    completed_.load(std::memory_order_relaxed);
      if (backlog <= low_watermark_) overloaded_.store(false, std::memory_order_relaxed);
    }
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

void SvdServer::complete_expired(Shard& sh, const Request& r, bool via_shed) {
  SvdResult res;
  res.converged = false;
  res.status = SvdStatus::kDeadlineExpired;
  res.diagnostics.error = via_shed ? "deadline expired in queue (shed at admission)"
                                   : "deadline expired before batch formation";
  *r.out = std::move(res);
  const std::uint64_t done_ns = now_ns();
  {
    std::lock_guard<std::mutex> lock(sh.stats_mu);
    sh.latency.record(done_ns > r.enqueue_ns ? done_ns - r.enqueue_ns : 0);
  }
  expired_.fetch_add(1, std::memory_order_relaxed);
  if (via_shed) shed_.fetch_add(1, std::memory_order_relaxed);
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
  s.shed = shed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.requeued = requeued_.load(std::memory_order_relaxed);
  s.kills = kills_.load(std::memory_order_relaxed);
  s.restarts = restarts_.load(std::memory_order_relaxed);
  s.quarantines = quarantines_.load(std::memory_order_relaxed);
  s.stalls_injected = stalls_injected_.load(std::memory_order_relaxed);
  s.stuck_detected = stuck_detected_.load(std::memory_order_relaxed);
  s.ready = ready();
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
    snap.heartbeat = sh.heartbeat.load(std::memory_order_relaxed);
    snap.deaths = sh.deaths.load(std::memory_order_relaxed);
    snap.dead = sh.dead.load(std::memory_order_relaxed);
    snap.quarantined = sh.quarantined.load(std::memory_order_relaxed);
    s.batches += snap.batches;
    s.batched_lanes += snap.lanes;
    s.shards.push_back(snap);
  }
  return s;
}

void SvdServer::maybe_stall(Shard& sh, std::size_t idx) {
  const ServeFaultPlan& fp = options_.faults;
  if (!fp.enabled || fp.stall_shard < 0 || static_cast<std::size_t>(fp.stall_shard) != idx)
    return;
  if (sh.stall_fired.exchange(true, std::memory_order_relaxed)) return;
  stalls_injected_.fetch_add(1, std::memory_order_relaxed);
  // The release condition is the server-wide submission count — an event in
  // the request trace, not a wall-clock instant — so a stalled run's counters
  // replay deterministically. The micros bound is a safety net only.
  const std::uint64_t bound_us = fp.stall_micros != 0 ? fp.stall_micros : 10000000;
  const std::uint64_t t0 = now_ns();
  for (;;) {
    if (stopping_.load(std::memory_order_relaxed)) return;
    if (fp.stall_until_submitted != 0 &&
        submitted_.load(std::memory_order_relaxed) >= fp.stall_until_submitted)
      return;
    if (now_ns() - t0 >= bound_us * 1000) return;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

bool SvdServer::kill_applies(const Shard& sh) {
  const ServeFaultPlan& fp = options_.faults;
  if (!fp.enabled || fp.kill_request < 0) return false;
  const auto target = static_cast<std::uint64_t>(fp.kill_request);
  bool present = false;
  for (const Request& r : sh.keep) present = present || r.id == target;
  if (!present) return false;
  // Bounded budget dispenser: the first kill_repeat encounters of the target
  // request fire, every later one solves normally — so a requeued kill
  // request eventually completes and the death count is exact.
  return kill_attempts_.fetch_add(1, std::memory_order_relaxed) < fp.kill_repeat;
}

void SvdServer::finish_solo(Shard& sh, const Request& r) {
  const std::uint64_t now = now_ns();
  if (r.deadline_ns != 0 && now > r.deadline_ns) {
    complete_expired(sh, r, false);
    return;
  }
  const ServeFaultPlan& fp = options_.faults;
  if (fp.enabled && fp.should_throw(r.id)) {
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
    sh.engine->solve_single_into(*r.a, r.out);
  } catch (const std::exception& e) {
    complete_failed(sh, r, e.what());
    return;
  } catch (...) {
    complete_failed(sh, r, "unknown solver exception");
    return;
  }
  complete_solved(sh, r, now_ns(), 1);
}

void SvdServer::isolate_batch(Shard& sh) {
  // A lane re-run solo is a batch of one, which the engine contract makes
  // bitwise equal to the sequential driver — exactly what the lane would
  // have produced in the clean batch. Only the poison lanes end kFailed.
  for (const Request& r : sh.keep) finish_solo(sh, r);
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
    if (fp.enabled && fp.throw_prob > 0.0) {
      for (const Request& r : sh.keep)
        if (fp.should_throw(r.id)) throw std::runtime_error(injected_fault_message(r.id));
    }
    sh.engine->solve_into({sh.in.data(), sh.in.size()}, {sh.out.data(), sh.out.size()},
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
  isolate_batch(sh);
}

void SvdServer::shard_loop(std::size_t idx) {
  TREESVD_HB_SCOPED_FRAME(serve_frame, [&] { return "serve shard " + std::to_string(idx); });
  Shard& sh = *shards_[idx];
  const std::size_t max_batch = options_.batch.lane_width;
  // Shard-owned BLAS-3 fallback: diagnostics GEMMs in finalize that lose the
  // shared gemm_pool() gate to a sibling shard run on this pool instead of
  // silently single-threading (see ScopedGemmFallbackPool).
  std::unique_ptr<ThreadPool> gemm_fb;
  std::unique_ptr<ScopedGemmFallbackPool> gemm_reg;
  if (options_.gemm_fallback_threads > 0) {
    gemm_fb = std::make_unique<ThreadPool>(
        static_cast<unsigned>(options_.gemm_fallback_threads));
    gemm_reg = std::make_unique<ScopedGemmFallbackPool>(*gemm_fb);
  }
  maybe_stall(sh, idx);
  for (;;) {
    sh.heartbeat.fetch_add(1, std::memory_order_relaxed);
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
        complete_expired(sh, r, false);
      else
        sh.keep.push_back(r);
    }
    if (sh.keep.empty()) continue;
    {
      std::lock_guard<std::mutex> lock(sh.inflight_mu);
      sh.inflight.assign(sh.keep.begin(), sh.keep.end());
    }
    sh.inflight_count.store(sh.keep.size(), std::memory_order_relaxed);
    if (kill_applies(sh)) {
      // Planned death: leave the in-flight record for the supervisor (which
      // requeues it) and exit the thread.
      kills_.fetch_add(1, std::memory_order_relaxed);
      sh.dead.store(true, std::memory_order_release);
      {
        std::lock_guard<std::mutex> lk(sup_mu_);
      }
      sup_cv_.notify_all();
      return;
    }
    solve_batch(sh);
    {
      std::lock_guard<std::mutex> lock(sh.inflight_mu);
      sh.inflight.clear();
    }
    sh.inflight_count.store(0, std::memory_order_relaxed);
    sh.heartbeat.fetch_add(1, std::memory_order_relaxed);
  }
}

void SvdServer::supervisor_loop() {
  TREESVD_HB_SCOPED_FRAME(sup_frame, [&] { return std::string("serve supervisor"); });
  const SupervisorOptions& so = options_.supervisor;
  std::unique_lock<std::mutex> lk(sup_mu_);
  while (!stopping_.load(std::memory_order_relaxed)) {
    sup_cv_.wait_for(lk, std::chrono::microseconds(so.poll_micros),
                     [&] { return stopping_.load(std::memory_order_relaxed); });
    if (stopping_.load(std::memory_order_relaxed)) break;
    lk.unlock();
    for (std::size_t s = 0; s < shards_.size(); ++s) supervise_shard(s);
    lk.lock();
  }
}

void SvdServer::supervise_shard(std::size_t idx) {
  Shard& sh = *shards_[idx];
  if (sh.dead.load(std::memory_order_acquire)) {
    restart_or_quarantine(idx);
    return;
  }
  // Stuck detection: heartbeat flat while work is pending. Detection only —
  // a wedged std::thread cannot be safely killed, but least-loaded routing
  // already starves it, and the counter surfaces the condition.
  const std::uint64_t hb = sh.heartbeat.load(std::memory_order_relaxed);
  const bool busy = sh.inflight_count.load(std::memory_order_relaxed) > 0 ||
                    sh.queue.size() > 0;
  const std::uint64_t now = now_ns();
  if (hb != sh.last_heartbeat || !busy) {
    sh.last_heartbeat = hb;
    sh.flat_since_ns = now;
    sh.stuck_latched = false;
    return;
  }
  if (!sh.stuck_latched &&
      now - sh.flat_since_ns > options_.supervisor.stuck_after_micros * 1000) {
    sh.stuck_latched = true;
    stuck_detected_.fetch_add(1, std::memory_order_relaxed);
  }
}

void SvdServer::restart_or_quarantine(std::size_t idx) {
  Shard& sh = *shards_[idx];
  // The dying thread set `dead` as its last store and returned; the join
  // gives every pre-death write (including the in-flight record) a
  // happens-before edge into this thread.
  if (threads_[idx].joinable()) threads_[idx].join();
  sh.dead.store(false, std::memory_order_relaxed);
  const std::uint64_t deaths = sh.deaths.fetch_add(1, std::memory_order_relaxed) + 1;
  std::vector<Request> orphans;
  {
    std::lock_guard<std::mutex> lock(sh.inflight_mu);
    orphans.swap(sh.inflight);
    sh.inflight.reserve(options_.batch.lane_width);
  }
  sh.inflight_count.store(0, std::memory_order_relaxed);
  bool restarted = false;
  if (deaths <= options_.supervisor.quarantine_after) {
    try {
      // Fresh engine: whatever state the death left behind is discarded.
      sh.engine = std::make_unique<BatchedSvd>(options_.rows, options_.cols,
                                               *make_ordering(ordering_name_), options_.batch);
      sh.engine->reserve(options_.batch.lane_width);
      threads_[idx] = std::thread([this, idx] { shard_loop(idx); });
      restarts_.fetch_add(1, std::memory_order_relaxed);
      restarted = true;
    } catch (...) {
      restarted = false;
    }
  }
  if (!restarted) {
    // Repeat offender (or unrebuildable): retire the shard and move every
    // request it still holds — queued and in-flight — to the survivors.
    sh.quarantined.store(true, std::memory_order_relaxed);
    quarantines_.fetch_add(1, std::memory_order_relaxed);
    sh.queue.close();
    std::vector<Request> queued;
    while (sh.queue.pop_batch(queued, sh.queue.capacity() + 1) > 0) {
    }
    orphans.insert(orphans.end(), queued.begin(), queued.end());
  }
  requeue_or_fail(sh, orphans, restarted);
}

void SvdServer::requeue_or_fail(Shard& home, std::vector<Request>& reqs, bool home_alive) {
  for (Request& r : reqs) {
    Shard* target = nullptr;
    if (home_alive) {
      // A restarted shard readopts its own in-flight work: deterministic
      // (the kill/restart sequence does not depend on sibling load), and the
      // happens-before through the queue keeps the payloads clean.
      target = &home;
    } else {
      const int s = pick_shard();
      if (s >= 0) target = shards_[static_cast<std::size_t>(s)].get();
    }
    if (target != nullptr && target->queue.push(r)) {
      requeued_.fetch_add(1, std::memory_order_relaxed);
    } else {
      complete_failed(home, r, "shard died and no healthy shard could adopt the request");
    }
  }
}

}  // namespace treesvd
