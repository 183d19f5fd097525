#pragma once
// Many-SVD serving front-end over the batched engine (svd/batch.hpp), with a
// fault story: deadlines and failure isolation.
//
// Shape: clients submit independent same-shape problems; `shards` worker
// threads each own one BatchedSvd instance (satisfying its single-caller
// rule) and one bounded MPSC submission queue. A shard blocks for the first
// pending request, then drains its queue up to the engine's lane width so a
// busy server fills whole SIMD shards and an idle one still serves single
// requests at one-solve latency. Because the batched engine reproduces the
// sequential driver bit-for-bit per lane, a problem's result does not depend
// on which requests happened to share its batch — racy arrival order never
// changes payloads, only latency.
//
// Admission: submit() and try_submit() pick the least-loaded shard
// (shortest queue + in-flight at admission). A full queue blocks submit()
// (backpressure) and bounces try_submit(), which counts the bounce in
// ServeStats::rejected. A deadline is checked in one place, batch
// formation, so an expired request never burns a SIMD lane.
//
// Failure isolation: a batch whose solve throws (poison input, injected
// fault) is re-run lane by lane through solve_single_into — bitwise equal to
// the batch path — so only the poison request completes as kFailed (with the
// captured error in diagnostics.error) and every batchmate keeps its exact
// payload. Shards are not supervised: both solve paths complete every solver
// exception as kFailed, and any other exception leaving a shard thread calls
// std::terminate, which no in-process restart could survive.
//
// Every accepted request reaches exactly one terminal state — a solved
// payload, kFailed, or kDeadlineExpired — including across stop(), which
// drains whatever is still queued. The seeded ServeFaultPlan (splitmix64
// over request id, the mp/fault idiom) makes all of the above testable
// bit-reproducibly; treesvd_serve --chaos is the gate.
//
// Telemetry: per-shard log2-bucket latency histograms (submit -> completion,
// steady clock) and batch counters, snapshotted under each shard's stats
// mutex; global relaxed-atomic counters for expired/failed/rejected
// accounting — everything the serve tool dumps as JSON. The steady-state
// serving path still allocates nothing.

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/ordering.hpp"
#include "linalg/matrix.hpp"
#include "svd/batch.hpp"
#include "svd/jacobi.hpp"

namespace treesvd {

/// Fixed-capacity multi-producer single-consumer ring with blocking
/// backpressure. Close semantics: push fails once closed; pop_batch drains
/// what remains and then reports exhaustion.
template <typename T>
class BoundedMpscQueue {
 public:
  explicit BoundedMpscQueue(std::size_t capacity)
      : buf_(capacity == 0 ? 1 : capacity), cap_(capacity == 0 ? 1 : capacity) {}

  /// Blocks while full. Returns false (item dropped) when the queue is
  /// closed before space appears.
  bool push(T v) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_space_.wait(lock, [&] { return count_ < cap_ || closed_; });
    if (closed_) return false;
    buf_[(head_ + count_) % cap_] = std::move(v);
    ++count_;
    cv_items_.notify_one();
    return true;
  }

  /// Non-blocking push; false when full or closed.
  bool try_push(T v) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || count_ >= cap_) return false;
    buf_[(head_ + count_) % cap_] = std::move(v);
    ++count_;
    cv_items_.notify_one();
    return true;
  }

  /// Appends up to max_items pending entries to `out`, blocking for at least
  /// one unless the queue is closed and empty. Returns the number taken
  /// (0 only on closed-and-drained).
  std::size_t pop_batch(std::vector<T>& out, std::size_t max_items) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_items_.wait(lock, [&] { return count_ > 0 || closed_; });
    std::size_t taken = 0;
    while (taken < max_items && count_ > 0) {
      out.push_back(std::move(buf_[head_]));
      head_ = (head_ + 1) % cap_;
      --count_;
      ++taken;
    }
    if (taken > 0) cv_space_.notify_all();
    return taken;
  }

  void close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_items_.notify_all();
    cv_space_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }

  std::size_t capacity() const noexcept { return cap_; }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_items_;
  std::condition_variable cv_space_;
  std::vector<T> buf_;
  std::size_t cap_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  bool closed_ = false;
};

/// Log2-bucketed latency histogram: bucket k counts samples with
/// 2^(k-1) <= ns < 2^k (bucket 0 holds ns == 0). Not thread-safe — each
/// shard owns one behind its stats mutex; merge() combines them for
/// reporting.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(std::uint64_t ns) noexcept;
  void merge(const LatencyHistogram& other) noexcept;

  std::uint64_t count() const noexcept { return total_; }
  std::uint64_t max_ns() const noexcept { return max_ns_; }

  /// Upper bound (ns) of the bucket containing the q-quantile sample
  /// (q in [0, 1]); 0 when empty. Bucket resolution: a factor of 2.
  std::uint64_t quantile_ns(double q) const noexcept;
  std::uint64_t p50_ns() const noexcept { return quantile_ns(0.50); }
  std::uint64_t p99_ns() const noexcept { return quantile_ns(0.99); }

  const std::array<std::uint64_t, kBuckets>& buckets() const noexcept { return buckets_; }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t total_ = 0;
  std::uint64_t max_ns_ = 0;
};

/// Seeded, fully deterministic fault schedule for a serving run — the
/// mp::FaultPlan idiom lifted to requests: every per-request decision is a
/// pure function of the request id mixed with the plan seed (splitmix64), so
/// two runs of the same trace inject exactly the same faults regardless of
/// thread interleaving and every counter replays bit-for-bit.
///
/// The request-fault bands partition [0, 1): at most one fault per request.
/// kPoison and kExpire are *client-side* decisions (the chaos driver builds
/// a NaN input / submits an unmeetable deadline — the server just reacts);
/// kThrow and the shard stall are server-side injections. A default plan
/// injects nothing.
struct ServeFaultPlan {
  std::uint64_t seed = 1;   ///< mixes into every per-request decision

  double poison_prob = 0.0;  ///< request input carries a NaN (driver-built)
  double throw_prob = 0.0;   ///< request's solve throws inside the shard
  double expire_prob = 0.0;  ///< request admitted with an already-expired
                             ///< deadline (driver-built)

  /// Shard stalled once at loop entry (-1 = never): it stops consuming
  /// until the server-wide submission count reaches stall_until_submitted
  /// (deterministic, load-independent release) or stop() begins, with a
  /// 30 s wall-clock safety bound. A submission counts once it is queued,
  /// so a submit() blocked on the stalled shard's full queue never releases
  /// the stall.
  int stall_shard = -1;
  std::uint64_t stall_until_submitted = 0;

  /// Fault class for one request id (the partition decision).
  enum class RequestFault { kNone, kPoison, kThrow, kExpire };
  RequestFault request_fault(std::uint64_t id) const noexcept;
  bool should_throw(std::uint64_t id) const noexcept {
    return request_fault(id) == RequestFault::kThrow;
  }
};

struct ServeOptions {
  std::size_t rows = 0;
  std::size_t cols = 0;
  /// Engine configuration per shard; lane_width doubles as the largest batch
  /// one solve call packs.
  BatchedSvdOptions batch;
  /// Worker shards (one thread, one queue, one BatchedSvd each).
  std::size_t shards = 1;
  /// Per-shard submission queue bound (backpressure threshold).
  std::size_t queue_capacity = 256;
  /// Deterministic chaos schedule (off by default; treesvd_serve --chaos).
  ServeFaultPlan faults;
};

/// Per-shard load/telemetry snapshot (ServeStats::shards).
struct ShardSnapshot {
  std::size_t queued = 0;        ///< submission queue depth
  std::size_t inflight = 0;      ///< requests popped but not yet terminal
  std::uint64_t batches = 0;     ///< engine solve calls issued by this shard
  std::uint64_t lanes = 0;       ///< lanes solved by this shard
};

/// Aggregated server counters (a consistent snapshot under the per-shard
/// stats locks). Terminal accounting: completed == solved + expired + failed,
/// and latency.count() == completed.
struct ServeStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t batches = 0;       ///< engine solve calls issued
  std::uint64_t batched_lanes = 0; ///< sum of batch fills (== solved)
  LatencyHistogram latency;        ///< submit -> terminal, per problem

  std::uint64_t solved = 0;    ///< completed with a real factorization
  std::uint64_t expired = 0;   ///< completed kDeadlineExpired
  std::uint64_t failed = 0;    ///< completed kFailed (poison/injected)
  std::uint64_t rejected = 0;  ///< try_submit() calls bounced by a full queue
  std::uint64_t restarts = 0;  ///< always 0: no shard is ever restarted (the
                               ///< field stays while perfbench reports it)
  std::uint64_t stalls_injected = 0;  ///< fault-plan shard stalls fired

  std::vector<ShardSnapshot> shards;
};

/// The serving front-end. Lifecycle: construct -> start() -> submit()s ->
/// stop() (drains queues, joins shards). Results are written through the
/// caller's pointers; wait_idle() blocks until every accepted submission has
/// completed, which is the cheap way for a client to synchronise without
/// per-request signalling.
class SvdServer {
 public:
  /// The ordering shapes each shard's engine schedule; it is not retained.
  SvdServer(const Ordering& ordering, const ServeOptions& options);
  ~SvdServer();

  SvdServer(const SvdServer&) = delete;
  SvdServer& operator=(const SvdServer&) = delete;

  const ServeOptions& options() const noexcept { return options_; }

  void start();

  /// Closes the queues, drains every pending request (each reaches a
  /// terminal state — nothing is lost), joins the shards. Idempotent.
  void stop();

  /// Enqueues one problem (must be rows x cols; checked by the engine at
  /// solve time) on the least-loaded shard, blocking while its queue is
  /// full. *out is written by the owning shard before the request counts as
  /// completed. `deadline_ns` is relative to admission (0 = none): a request
  /// whose deadline has passed when its batch forms completes as
  /// SvdStatus::kDeadlineExpired without burning a SIMD lane. True iff
  /// accepted; false when the server is not started or is stopping.
  bool submit(const Matrix& a, SvdResult* out, std::uint64_t deadline_ns = 0) {
    return admit(a, out, deadline_ns, /*block=*/true);
  }

  /// submit() without the wait: a full queue bounces the request (false,
  /// counted in ServeStats::rejected) and leaves the queued ones untouched.
  bool try_submit(const Matrix& a, SvdResult* out, std::uint64_t deadline_ns = 0) {
    return admit(a, out, deadline_ns, /*block=*/false);
  }

  /// Blocks until completed == submitted (all accepted work terminal).
  void wait_idle();

  ServeStats stats() const;

 private:
  struct Request {
    const Matrix* a = nullptr;
    SvdResult* out = nullptr;
    std::uint64_t enqueue_ns = 0;
    std::uint64_t deadline_ns = 0;  ///< absolute steady-clock ns; 0 = none
    std::uint64_t id = 0;
  };
  struct Shard;

  bool admit(const Matrix& a, SvdResult* out, std::uint64_t deadline_ns, bool block);
  void shard_loop(std::size_t idx);
  void solve_batch(Shard& sh);
  void maybe_stall(std::size_t idx);
  std::size_t pick_shard() const noexcept;
  void finish_solo(Shard& sh, const Request& r);

  void complete_solved(Shard& sh, const Request& r, std::uint64_t done_ns,
                       std::size_t batch_lanes);
  void complete_expired(Shard& sh, const Request& r);
  void complete_failed(Shard& sh, const Request& r, const std::string& why);
  void bump_completed(std::size_t k);

  ServeOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> threads_;
  bool started_ = false;
  bool stopped_ = false;

  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> solved_{0};
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> stalls_injected_{0};
  std::atomic<bool> stopping_{false};

  mutable std::mutex idle_mu_;
  std::condition_variable idle_cv_;
};

}  // namespace treesvd
