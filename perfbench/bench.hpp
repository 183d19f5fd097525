#pragma once
// Shared pieces of the treesvd benchmark program: the clock, the span
// recorder, the record file the runner script reads, and small statistics.
//
// The program never formats JSON itself. It writes one plain-text record per
// line ("metric", "info", "check", "span") and perfbench/run.py turns the
// records into the report, the result file and the Chrome trace.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/ordering.hpp"
#include "linalg/matrix.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

inline double ms_between(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-6;
}

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty one.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Spans around the benchmark's own calls into the library. Single-threaded:
/// only the thread that runs the workload records. When off, begin/end only
/// read the clock, so traced and untraced code paths time identically.
class Tracer {
 public:
  struct Span {
    std::uint32_t id;
    std::uint32_t parent;  ///< 0 = top level
    std::uint64_t t0;
    std::uint64_t t1;
    const char* name;  ///< string literal
  };

  explicit Tracer(bool on) { set_on(on); }

  /// Switch only between top-level calls, never inside an open span.
  void set_on(bool on) {
    on_ = on;
    if (on_ && spans_.capacity() == 0) spans_.reserve(std::size_t{1} << 16);
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Opens a span (returns its slot, or -1 when off) and reads the clock.
  long begin(const char* name, std::uint64_t* t0) {
    *t0 = now_ns();
    if (!on_) return -1;
    const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back({id, stack_.empty() ? 0U : stack_.back(), *t0, 0, name});
    stack_.push_back(id);
    return static_cast<long>(spans_.size() - 1);
  }

  /// Closes the span opened by begin() and returns the end time.
  std::uint64_t end(long slot) {
    const std::uint64_t t1 = now_ns();
    if (slot >= 0) {
      spans_[static_cast<std::size_t>(slot)].t1 = t1;
      stack_.pop_back();
    }
    return t1;
  }

 private:
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span that also hands back its duration.
class Scope {
 public:
  Scope(Tracer& tr, const char* name) : tr_(tr), slot_(tr.begin(name, &t0_)) {}
  ~Scope() {
    if (!closed_) close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Ends the span; returns its length in milliseconds.
  double close() {
    closed_ = true;
    return ms_between(t0_, tr_.end(slot_));
  }

 private:
  Tracer& tr_;
  std::uint64_t t0_ = 0;
  long slot_;
  bool closed_ = false;
};

/// Times `fn` inside a span named `name`; returns milliseconds.
template <typename Fn>
double timed(Tracer& tr, const char* name, Fn&& fn) {
  Scope s(tr, name);
  fn();
  return s.close();
}

/// Median per-call nanoseconds of `fn` over `batches` batches of `calls`.
template <typename Fn>
double per_call_ns(int batches, int calls, Fn&& fn) {
  std::vector<double> v;
  for (int b = 0; b < batches; ++b) {
    const std::uint64_t t0 = now_ns();
    for (int k = 0; k < calls; ++k) fn(k);
    v.push_back(static_cast<double>(now_ns() - t0) / calls);
  }
  return median(v);
}

/// The record file: metrics with sample counts, provenance facts, output
/// checks and spans.
class Records {
 public:
  void metric(const std::string& name, const char* unit, double value, std::size_t samples) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    lines_.push_back("metric " + name + " " + unit + " " + buf + " " + std::to_string(samples));
  }
  void info(const std::string& key, const std::string& value) {
    lines_.push_back("info " + key + " " + value);
  }
  void info(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    info(key, std::string(buf));
  }
  /// One failed output check; `what` must be a single line.
  void failure(const std::string& what) { lines_.push_back("check fail " + what); }
  void spans(const Tracer& tr) {
    for (const Tracer::Span& s : tr.spans()) {
      lines_.push_back("span " + std::to_string(s.id) + " " + std::to_string(s.parent) + " " +
                       std::to_string(s.t0) + " " + std::to_string(s.t1) + " " + s.name);
    }
  }
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    bool ok = true;
    for (const std::string& l : lines_) ok = std::fprintf(f, "%s\n", l.c_str()) > 0 && ok;
    return std::fclose(f) == 0 && ok;
  }

 private:
  std::vector<std::string> lines_;
};

/// Per-layer probes (probes.cpp). Each records its metrics into `rec` and
/// spans into `tr`; `a` is the workload's own input matrix.
struct KernelTimes {
  double dot_ns = 0, gram_pair_ns = 0, rotate_and_norms_ns = 0, sumsq_ns = 0;
};
KernelTimes probe_kernels(const treesvd::Matrix& a, Tracer& tr, Records& rec);
/// Returns sweep_from microseconds at the width the solve uses.
double probe_ordering(const treesvd::Ordering& ordering, int n, Tracer& tr, Records& rec);
struct PoolTimes {
  double create_us = 0, parallel_for_us = 0;
};
PoolTimes probe_pool(int leaves, Tracer& tr, Records& rec);
struct PanelTimes {
  double gram_us = 0, apply_us = 0, apply_v_us = 0;
};
PanelTimes probe_panels(const treesvd::Matrix& a, int block_width, Tracer& tr, Records& rec);
struct MpTimes {
  double spawn_ms = 0, rtt_socket_us = 0, bw_socket_mbs = 0;
};
MpTimes probe_mp(const std::string& sock_dir, Tracer& tr, Records& rec);
void probe_level_model(Records& rec);

}  // namespace perfbench
