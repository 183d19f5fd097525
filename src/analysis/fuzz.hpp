#pragma once
// Seeded PCT-style schedule fuzzer for the concurrency analysis layer.
//
// A FuzzPlan is a *schedule*, not a dice roll: every perturbation decision
// is a pure splitmix64 hash of the decision's identity mixed with the plan's
// seed, so two runs with the same seed perturb the schedule identically. Two perturbations are applied:
//
//  * Chunk-order permutation — ThreadPool::parallel_for claims chunks through
//    a seeded Fisher-Yates permutation instead of ascending order, so a
//    reduction that silently depends on "chunk 0 finishes first" diverges
//    even on a single-core host.
//  * Yield injection — transport and pool scheduling points
//    (TREESVD_FUZZ_POINT) insert 0..max_yields std::this_thread::yield()s,
//    shaking real interleavings loose the way PCT's priority
//    lowering does.
//
// Both are inert unless a fuzzer is installed; production builds compile the
// hooks away entirely (TREESVD_ANALYSIS, see analysis/hooks.hpp).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace treesvd::analysis {

/// Decision-point kinds mixed into the hash so each site draws from an
/// independent stream.
inline constexpr std::uint64_t kFuzzPoolChunk = 1;  ///< pool chunk about to run
inline constexpr std::uint64_t kFuzzMpSend = 2;     ///< before a transport send
inline constexpr std::uint64_t kFuzzMpRecv = 3;     ///< before a transport recv
inline constexpr std::uint64_t kFuzzMpSync = 4;     ///< before barrier/allreduce

/// splitmix64 finalizer — the repo's one deterministic hash: schedule
/// fuzzing, serve chaos (svd/serve.cpp) and Rng seeding (util/rng.cpp) all
/// draw from it. mix64(0) is the first
/// output of SplitMix64 seeded with 0.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from the 53 high bits of a hash or draw.
constexpr double unit_interval(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

struct FuzzPlan {
  std::uint64_t seed = 1;      ///< mixes into every decision
  double yield_prob = 0.5;     ///< probability a fuzz point yields at all
  int max_yields = 3;          ///< yields per firing point: 1..max_yields
  bool permute_chunks = true;  ///< permute ThreadPool chunk claim order
};

/// Installed fuzzer handle; all methods are thread-safe and deterministic in
/// (plan, call identity).
class ScheduleFuzzer {
 public:
  explicit ScheduleFuzzer(const FuzzPlan& plan) : plan_(plan) {}

  const FuzzPlan& plan() const noexcept { return plan_; }

  /// Maybe injects yields at a decision point identified by (kind, a, b, c).
  void perturb(std::uint64_t kind, std::uint64_t a, std::uint64_t b, std::uint64_t c);

  /// Fills `out` with a seeded permutation of [0, count); successive calls
  /// draw fresh permutations (a per-fuzzer call counter feeds the hash).
  void chunk_permutation(std::size_t count, std::vector<std::uint32_t>& out);

  std::size_t decisions() const noexcept { return decisions_.load(std::memory_order_relaxed); }
  std::size_t yields() const noexcept { return yields_.load(std::memory_order_relaxed); }

 private:
  FuzzPlan plan_;
  std::atomic<std::uint64_t> permutations_{0};
  std::atomic<std::size_t> decisions_{0};
  std::atomic<std::size_t> yields_{0};
};

/// Returns the installed fuzzer, or nullptr (the hooks' fast path).
ScheduleFuzzer* fuzzer() noexcept;

/// Installs (or, with nullptr, removes) the process-global fuzzer. Do not
/// swap fuzzers while instrumented workloads are running.
void install_fuzzer(ScheduleFuzzer* f) noexcept;

/// RAII: constructs a fuzzer from a plan and installs it for the scope.
class ScopedFuzzer {
 public:
  explicit ScopedFuzzer(const FuzzPlan& plan) : fuzzer_(plan) { install_fuzzer(&fuzzer_); }
  ~ScopedFuzzer() { install_fuzzer(nullptr); }
  ScopedFuzzer(const ScopedFuzzer&) = delete;
  ScopedFuzzer& operator=(const ScopedFuzzer&) = delete;
  ScheduleFuzzer* operator->() noexcept { return &fuzzer_; }
  ScheduleFuzzer& get() noexcept { return fuzzer_; }

 private:
  ScheduleFuzzer fuzzer_;
};

}  // namespace treesvd::analysis
