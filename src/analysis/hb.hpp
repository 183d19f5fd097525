#pragma once
// Vector-clock happens-before tracker for the concurrency analysis layer.
//
// The repo's strongest invariant — "threaded/SPMD bitwise == serial" — rests
// on every sweep step's rotation pairs being disjoint and every reduction
// applied in a fixed order. TSan can only check the schedules the OS happens
// to produce; this tracker checks the *logical* concurrency structure
// instead, so a race between two pool chunks is reported even when the host
// (e.g. a single-core CI runner) executes them back to back.
//
// Event model:
//  * Logical tasks, not OS threads, carry the vector clocks. Every ThreadPool
//    chunk and every mp rank program is a fresh task forked from its parent,
//    so sibling chunks are formally concurrent regardless of which worker — or
//    how many workers — actually ran them.
//  * Structural edges come from the instrumentation hooks (analysis/hooks.hpp)
//    in util/thread_pool and mp/message_passing: fork -> task_begin,
//    task_end -> join, channel send -> matching recv (FIFO per
//    (channel, src, dst, tag), mirroring the mailbox contract), and barrier
//    arrive -> depart keyed by the barrier's generation.
//  * Shared state is declared, not inferred: annotated accesses on
//    (object, index) locations with kinds read / write / atomic. Two accesses
//    race when neither happens-before the other and at least one is a plain
//    write (atomic-vs-atomic and read-vs-read are always fine; an annotated
//    plain write conflicts with *any* unordered access, which is exactly the
//    KernelCounters::store contract).
//
// Reports carry both access stacks: the logical-task frame chain (inherited
// across forks, so a chunk shows "sweep 3 step 1 / chunk [8,12)") plus the
// file:line of each annotation site.
//
// All tracker state lives behind one mutex; this is a debugging instrument,
// not a fast path — production builds compile the hooks to no-ops
// (TREESVD_ANALYSIS, see analysis/hooks.hpp).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace treesvd::analysis {

enum class AccessKind { kRead, kWrite, kAtomic };

const char* to_string(AccessKind kind) noexcept;

/// One recorded annotated access, as it appears in a race report.
struct AccessRecord {
  int task = -1;                    ///< logical task id
  std::uint64_t tick = 0;           ///< the task's clock component at the access
  AccessKind kind = AccessKind::kRead;
  std::string site;                 ///< "file:line" of the annotation
  std::vector<std::string> stack;   ///< task frame chain, outermost first
};

/// A pair of conflicting accesses with no happens-before order between them.
struct RaceReport {
  std::string object;   ///< annotation name, e.g. "H column"
  std::size_t index;    ///< element index within the object (column, slot, …)
  AccessRecord first;   ///< the earlier-recorded access
  AccessRecord second;  ///< the access that exposed the race
  std::string to_string() const;
};

/// Happens-before tracker. Install one (install_tracker / ScopedTracker) and
/// the hooks feed it; inspect reports() when the workload has joined.
/// Thread-safe; every public method may be called from any thread.
class Tracker {
 public:
  Tracker();
  ~Tracker();

  Tracker(const Tracker&) = delete;
  Tracker& operator=(const Tracker&) = delete;

  // ---- structural edges (driven by the hooks) ----

  /// Parent publishes its clock for tasks of (region, epoch).
  void fork(const void* region, std::uint64_t epoch);
  /// Starts a fresh logical task on the calling thread, clock-seeded from the
  /// matching fork; `frame` labels the task in reports.
  void task_begin(const void* region, std::uint64_t epoch, std::string frame);
  /// Ends the calling thread's current task, accumulating its clock into the
  /// (region, epoch) join set.
  void task_end(const void* region, std::uint64_t epoch);
  /// Parent absorbs the join set: everything the tasks did happens-before
  /// everything after the join.
  void join(const void* region, std::uint64_t epoch);

  /// FIFO channel edge: each send enqueues the sender's clock under
  /// (channel, src, dst, tag); the matching recv dequeues and merges it.
  void channel_send(const void* channel, int src, int dst, std::uint64_t tag);
  void channel_recv(const void* channel, int src, int dst, std::uint64_t tag);

  /// Barrier edge: every arrival merges into the (object, generation) clock,
  /// every departure absorbs it. Arrivals all precede departures by the
  /// barrier's own semantics.
  void barrier_arrive(const void* object, std::uint64_t generation);
  void barrier_depart(const void* object, std::uint64_t generation);

  // ---- annotated shared accesses ----

  /// Records an access to (object, index) and reports a race if it conflicts
  /// with a prior access not ordered by happens-before.
  void access(AccessKind kind, const void* object, std::size_t index, const char* object_name,
              const char* site);

  /// Pushes/pops a frame label on the current task (inherited across forks).
  void push_frame(std::string text);
  void pop_frame();

  // ---- results ----

  /// Distinct races found (deduplicated by location and site pair; at most
  /// kMaxReports are stored, race_count() keeps the true total).
  std::vector<RaceReport> reports() const;
  std::size_t race_count() const;
  std::size_t event_count() const;  ///< structural edges + accesses observed
  std::size_t task_count() const;   ///< logical tasks created

  static constexpr std::size_t kMaxReports = 64;

 private:
  struct Impl;
  Impl* impl_;
};

/// Returns the installed tracker, or nullptr (the hooks' fast path).
Tracker* tracker() noexcept;

/// Installs (or, with nullptr, removes) the process-global tracker. Do not
/// swap trackers while instrumented workloads are running.
void install_tracker(Tracker* t) noexcept;

/// RAII: constructs a tracker and installs it for the current scope.
class ScopedTracker {
 public:
  ScopedTracker() { install_tracker(&tracker_); }
  ~ScopedTracker() { install_tracker(nullptr); }
  ScopedTracker(const ScopedTracker&) = delete;
  ScopedTracker& operator=(const ScopedTracker&) = delete;
  Tracker* operator->() noexcept { return &tracker_; }
  Tracker& get() noexcept { return tracker_; }

 private:
  Tracker tracker_;
};

/// RAII frame label on the current task. The text is built lazily — the
/// factory runs only when a tracker is installed.
class ScopedFrame {
 public:
  template <typename Fn>
  explicit ScopedFrame(Fn&& make_text) {
    if (Tracker* t = tracker()) {
      t->push_frame(make_text());
      active_ = true;
    }
  }
  // NOLINTNEXTLINE(bugprone-exception-escape): pop_frame locks the tracker
  // mutex; lock failure means the tracker is already corrupt — terminate.
  ~ScopedFrame() {
    if (!active_) return;
    if (Tracker* t = tracker()) t->pop_frame();
  }
  ScopedFrame(const ScopedFrame&) = delete;
  ScopedFrame& operator=(const ScopedFrame&) = delete;

 private:
  bool active_ = false;
};

}  // namespace treesvd::analysis
