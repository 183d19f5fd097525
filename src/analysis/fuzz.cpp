#include "analysis/fuzz.hpp"

#include <thread>

namespace treesvd::analysis {
namespace {

std::atomic<ScheduleFuzzer*> g_fuzzer{nullptr};

}  // namespace

void ScheduleFuzzer::perturb(std::uint64_t kind, std::uint64_t a, std::uint64_t b,
                             std::uint64_t c) {
  decisions_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t h = mix64(plan_.seed ^ mix64(kind));
  h = mix64(h ^ a);
  h = mix64(h ^ b);
  h = mix64(h ^ c);
  if (unit_interval(h) >= plan_.yield_prob || plan_.max_yields <= 0) return;
  const int n = 1 + static_cast<int>(mix64(h) % static_cast<std::uint64_t>(plan_.max_yields));
  for (int i = 0; i < n; ++i) {
    yields_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::yield();
  }
}

void ScheduleFuzzer::chunk_permutation(std::size_t count, std::vector<std::uint32_t>& out) {
  out.resize(count);
  for (std::size_t i = 0; i < count; ++i) out[i] = static_cast<std::uint32_t>(i);
  if (count < 2) return;
  // Seeded Fisher-Yates; the call counter gives each parallel_for of a run
  // its own permutation while staying a pure function of (seed, call index).
  const std::uint64_t call = permutations_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t h = mix64(plan_.seed ^ mix64(call + 0x5eedULL));
  for (std::size_t i = count - 1; i > 0; --i) {
    h = mix64(h);
    const std::size_t j = static_cast<std::size_t>(h % (i + 1));
    const std::uint32_t tmp = out[i];
    out[i] = out[j];
    out[j] = tmp;
  }
}

ScheduleFuzzer* fuzzer() noexcept { return g_fuzzer.load(std::memory_order_acquire); }

void install_fuzzer(ScheduleFuzzer* f) noexcept {
  g_fuzzer.store(f, std::memory_order_release);
}

}  // namespace treesvd::analysis
