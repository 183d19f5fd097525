#pragma once
// Minimal fork-join thread pool for phase-parallel rotation execution.
//
// The tasks of one Jacobi phase are embarrassingly parallel (disjoint
// columns); the pool runs an indexed task over [0, count) and joins. Workers
// persist across calls. Dispatch is chunked: threads claim `grain`
// consecutive indices per mutex acquisition, so hundreds of cheap tasks cost
// a handful of lock round-trips instead of one per task, and tiny counts run
// inline on the calling thread without waking the workers at all.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace treesvd {

class ThreadPool {
 public:
  /// Auto grain (grain == 0) runs counts at or below this inline on the
  /// calling thread — forking, running, and joining the workers costs more
  /// than a few cheap tasks.
  static constexpr std::size_t kAutoInlineBelow = 4;

  /// threads == 0 selects hardware_concurrency (at least 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Runs task(i) for i in [0, count), distributing across the pool and the
  /// calling thread; returns when all complete.
  ///
  /// `grain` is the number of consecutive indices a thread claims per
  /// scheduling round. grain == 0 selects an automatic chunk size
  /// (count / (8 * size()), at least 1) and runs counts <= kAutoInlineBelow
  /// inline; any count <= grain also runs inline, entirely on the calling
  /// thread, without waking a worker.
  ///
  /// Exception contract: a throwing task does not terminate the process. The
  /// first exception (in completion order) is captured and rethrown from
  /// parallel_for on the calling thread once every iteration has finished;
  /// subsequent exceptions from the same call are discarded. Iterations are
  /// not cancelled — all `count` tasks run even after one throws, so tasks
  /// must leave shared state consistent on the exceptional path too.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& task,
                    std::size_t grain = 0);

 private:
  void worker_loop(unsigned id);

  /// Claims and runs chunks until the batch is exhausted; expects `lock`
  /// held on entry and leaves it held on exit. `gen` is the batch's
  /// generation (the fork-join epoch of the analysis hooks).
  void run_chunks(std::unique_lock<std::mutex>& lock, const std::function<void(std::size_t)>& task,
                  std::size_t gen);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::size_t count_ = 0;
  std::size_t grain_ = 1;
  std::size_t next_chunk_ = 0;   ///< next chunk *number* to claim
  std::size_t chunk_total_ = 0;  ///< chunks in the current batch
  std::size_t chunks_left_ = 0;  ///< unfinished chunks of the current call
  std::size_t generation_ = 0;
  /// Schedule-fuzzer claim order: chunk number -> chunk index. Empty (the
  /// default, and always in builds without TREESVD_ANALYSIS) means ascending.
  std::vector<std::uint32_t> chunk_perm_;
  std::exception_ptr first_error_;  ///< first task exception of the current parallel_for
  bool stop_ = false;
};

}  // namespace treesvd
