// treesvd benchmark program: runs one seeded workload through the library's
// public entry points, checks every output, and writes a record file that
// perfbench/run.py turns into the report and the result file.
//
//   perfbench --workload=solve-tall --seed=1 --seconds=10 --trace=0
//             --out=records.txt --sock-dir=.perfbench/run/sock
//
// Workloads (see BENCHMARK.json for why each exists):
//   solve-tall   4096x128 graded matrices (kappa 1e8), each solved in turn by
//                one_sided_jacobi, one_sided_jacobi_threaded (4 threads) and
//                block_one_sided_jacobi, all with the fat-tree ordering.
//   serve-light  one-shard SvdServer, 32x32 Gaussian problems, open-loop
//                Poisson arrivals at 800 req/s.
//   serve-heavy  the same server at 1600 req/s, then a ladder of higher rates
//                for the highest one that meets the 20 ms p99 limit.
//   spmd-socket  spmd_jacobi on 16384x8 Gaussian matrices over the socket
//                transport (4 rank processes).
// Every workload also times the three single-problem drivers on its own
// inputs: the plain sequential baselines of the workload's problem.
#include <sched.h>
#include <sys/resource.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <exception>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#include <unistd.h>

#include "bench.hpp"
#include "core/registry.hpp"
#include "linalg/dispatch.hpp"
#include "linalg/gemm.hpp"
#include "linalg/generators.hpp"
#include "svd/batch.hpp"
#include "svd/block_jacobi.hpp"
#include "svd/determinism.hpp"
#include "svd/jacobi.hpp"
#include "svd/serve.hpp"
#include "svd/spmd.hpp"
#include "svd/status.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace treesvd;

constexpr unsigned kThreads = 4;
constexpr std::size_t kLaneWidth = 8;
constexpr int kSetupReps = 5;
constexpr double kLatencyLimitMs = 20.0;
// Accuracy bounds of the torture and accuracy gates (bench_a9_accuracy).
constexpr double kSigmaScaledTol = 1e-10;
constexpr double kResidualTol = 5e-12;
constexpr double kDefectTol = 1e-12;
// Completion polling period of the open-loop generator.
constexpr std::uint64_t kPollNs = 20000;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string sock_dir;
};

/// Shapes, inputs and phase split of one workload.
struct Workload {
  std::string name;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<Matrix> inputs;
  std::vector<double> spectrum;  ///< known singular values (graded inputs)
  double driver_share = 1.0;     ///< share of the run for the closed-loop drivers
  double serve_rate = 0.0;       ///< fixed open-loop rate (serve workloads)
  double serve_share = 0.0;
  std::vector<double> ladder;    ///< max_rps ladder rates (serve-heavy)
  double ladder_step_share = 0.0;
  bool spmd = false;
  std::size_t chunks = 5;  ///< see Plan
};

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x51ed2701);
  std::size_t count = 0;
  if (name == "solve-tall") {
    w.rows = 4096;
    w.cols = 128;
    count = 4;
    w.spectrum = geometric_spectrum(w.cols, 1e8);
    w.chunks = 1;  // the three drivers already alternate matrix by matrix
  } else if (name == "serve-light" || name == "serve-heavy") {
    w.rows = 32;
    w.cols = 32;
    count = 256;
    const bool heavy = name == "serve-heavy";
    w.driver_share = heavy ? 0.15 : 0.2;
    w.serve_rate = heavy ? 1600.0 : 800.0;
    w.serve_share = heavy ? 0.5 : 0.8;
    if (heavy) {
      for (double r = 2000.0; r <= 3600.0; r += 200.0) w.ladder.push_back(r);
      w.ladder_step_share = 0.35 / static_cast<double>(w.ladder.size());
    }
  } else if (name == "spmd-socket") {
    w.rows = 16384;
    w.cols = 8;
    count = 4;
    w.driver_share = 0.2;
    w.spmd = true;
  } else {
    return w;
  }
  for (std::size_t k = 0; k < count; ++k) {
    w.inputs.push_back(w.spectrum.empty() ? random_gaussian(w.rows, w.cols, rng)
                                          : with_spectrum(w.rows, w.cols, w.spectrum, rng));
  }
  return w;
}

/// Open-loop arrival schedule: Poisson send offsets and the input each
/// request carries. Built before any timing starts.
struct Schedule {
  double rate = 0.0;
  std::vector<std::uint64_t> due_ns;
  std::vector<std::uint32_t> input;
};

Schedule poisson(double rate, double seconds, std::size_t inputs, Rng& rng) {
  Schedule s;
  s.rate = rate;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    s.due_ns.push_back(static_cast<std::uint64_t>(t * 1e9));
    s.input.push_back(static_cast<std::uint32_t>(rng.below(inputs)));
  }
  return s;
}

/// Everything one measured pass needs, fixed before it starts. The pass
/// alternates `chunks` slices of closed-loop driver calls with slices of the
/// workload's own phase, so every metric samples the whole run rather than
/// one stretch of the host's fluctuating speed.
struct Plan {
  std::size_t chunks = 1;
  double driver_s = 0.0;        ///< per chunk
  std::vector<Schedule> fixed;  ///< one open-loop schedule per chunk
  std::vector<Schedule> ladder;
  double spmd_s = 0.0;  ///< per chunk
};

Plan make_plan(const Workload& w, double seconds, std::size_t chunks, std::uint64_t seed) {
  Plan p;
  Rng rng(seed * 0xbf58476d1ce4e5b9ULL + 0x94d049bb);
  p.chunks = chunks;
  const double slice = seconds / static_cast<double>(chunks);
  p.driver_s = w.driver_share * slice;
  for (std::size_t c = 0; w.serve_rate > 0.0 && c < chunks; ++c)
    p.fixed.push_back(poisson(w.serve_rate, w.serve_share * slice, w.inputs.size(), rng));
  for (const double r : w.ladder)
    p.ladder.push_back(poisson(r, w.ladder_step_share * seconds, w.inputs.size(), rng));
  if (w.spmd) p.spmd_s = (1.0 - w.driver_share) * slice;
  return p;
}

/// Result slots of one open-loop phase. Every stride-th request gets its own
/// slot and is checked after wait_idle(); the rest share a ring that nobody
/// reads. The ring is larger than the most requests the server can hold
/// (queue capacity plus one batch), so no two live requests share a slot.
struct OutSlots {
  OutSlots(std::size_t requests, std::size_t every, std::size_t ring)
      : stride(every), checked(every == 0 ? 0 : (requests + every - 1) / every), scratch(ring) {}
  bool is_checked(std::size_t i) const { return stride != 0 && i % stride == 0; }
  SvdResult* slot(std::size_t i) {
    return is_checked(i) ? &checked[i / stride] : &scratch[i % scratch.size()];
  }
  std::size_t stride;
  std::vector<SvdResult> checked;
  std::vector<SvdResult> scratch;
};

/// What one open-loop phase observed.
struct OpenLoop {
  std::vector<double> latency_ms;  ///< accepted requests, scheduled send -> completion
  std::vector<double> late_ms;     ///< how late the generator sent each request
  std::vector<double> submit_us;   ///< time inside try_submit
  std::vector<std::size_t> accepted;  ///< request indices, in submission order
  std::size_t refused = 0;
  std::size_t stalled = 0;  ///< accepted but never seen completing
  std::size_t backlog_at_last_send = 0;
};

/// Pins the calling thread to one allowed CPU for its lifetime, a different
/// one each time. The single-threaded solves run on the main thread, which the
/// scheduler leaves on one vCPU for a whole run; on a shared host the vCPUs
/// differ in speed by up to 40% for minutes at a time, so without rotating
/// the run's median would mostly tell which vCPU it happened to land on.
class CpuPin {
 public:
  CpuPin(const cpu_set_t& all, const std::vector<int>& cpus, std::size_t& next) : all_(all) {
    if (cpus.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[next++ % cpus.size()], &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~CpuPin() {
    if (pinned_) sched_setaffinity(0, sizeof all_, &all_);
  }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  const cpu_set_t& all_;
  bool pinned_ = false;
};

/// Everything a measured pass yields.
struct Measured {
  std::vector<double> onesided, threaded, block;  ///< ms per call
  std::vector<double> spmd;                       ///< ms per call
  std::vector<double> latency;                    ///< the workload's headline latency, ms
  KernelStats onesided_ks, block_ks;
  std::size_t onesided_sweeps = 0, onesided_rotations = 0, spmd_sweeps = 0;
  GemmDispatchStats gemm{};
  SpmdStats spmd_stats;
  OpenLoop fixed;  ///< all fixed-rate slices, concatenated
  ServeStats serve;  ///< server counters summed over the fixed-rate slices
  double max_rps = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

class Bench {
 public:
  Bench(Config cfg, Workload w) : cfg_(std::move(cfg)), w_(std::move(w)), tr_(false) {
    ref_.assign(w_.inputs.size(), 0);
    block_ref_.assign(w_.inputs.size(), 0);
    socket_tx_.backend = mp::Backend::kSocket;
    socket_tx_.socket.socket_dir = cfg_.sock_dir;
    CPU_ZERO(&all_cpus_);
    if (sched_getaffinity(0, sizeof all_cpus_, &all_cpus_) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &all_cpus_)) cpus_.push_back(c);
    }
  }

  int run();

 private:
  double setup_once();
  void measure(const Plan& plan, Measured& ua, Measured& tb);
  void drivers_phase(double seconds, Measured& m);
  OpenLoop open_loop(const Schedule& s, OutSlots& slots);
  void serve_fixed(const Schedule& s, Measured& m);
  void serve_ladder(const Plan& plan, Measured& m);
  void spmd_phase(double seconds, Measured& m);
  void record_end_to_end(const Measured& m, double setup_s);
  void record_layers(const Measured& ua, const Measured& tb);
  double batch_probe(std::vector<double>& fill_ms);

  bool quality(const char* who, std::size_t k, SvdResult& r, double rank_tol);
  std::uint64_t reference(std::size_t k);
  bool expect(const char* who, std::size_t k, const SvdResult& r, std::uint64_t want);
  bool check_onesided(std::size_t k, SvdResult& r);
  bool check_block(std::size_t k, SvdResult& r);
  /// Records a failed check; the first 20 are listed, all are counted.
  void fail(const std::string& what) {
    if (++failures_ <= 20) rec_.failure(w_.name + " " + what);
  }

  Config cfg_;
  Workload w_;
  Tracer tr_;
  Records rec_;
  OrderingPtr ordering_;
  JacobiOptions jopt_;
  BlockJacobiOptions bopt_;
  SpmdTransport socket_tx_;
  std::unique_ptr<SvdServer> server_;
  std::vector<std::uint64_t> ref_;        ///< one_sided_jacobi digest per input (0 = not yet)
  std::vector<std::uint64_t> block_ref_;  ///< first checked block digest per input
  std::vector<double> assess_ms_;
  std::size_t next_driver_input_ = 0;
  std::size_t next_spmd_input_ = 0;
  std::size_t failures_ = 0;
  cpu_set_t all_cpus_;
  std::vector<int> cpus_;  ///< the CPUs this process may run on
  std::size_t next_cpu_ = 0;
};

// ---------------------------------------------------------------------------
// Output checks. They run outside every timed window.

bool Bench::quality(const char* who, std::size_t k, SvdResult& r, double rank_tol) {
  const std::string tag = std::string(who) + " input " + std::to_string(k) + ": ";
  if (!r.converged || r.status != SvdStatus::kConverged) {
    fail(tag + "did not converge (" + to_string(r.status) + ")");
    return false;
  }
  const Matrix& a = w_.inputs[k];
  assess_ms_.push_back(timed(tr_, "svd.assess_quality", [&] {
    assess_quality(a, r, r.diagnostics.equilibration_exponent, rank_tol);
  }));
  const SvdDiagnostics& d = r.diagnostics;
  if (!(d.scaled_residual >= 0.0 && d.scaled_residual <= kResidualTol)) {
    fail(tag + "scaled residual " + std::to_string(d.scaled_residual));
    return false;
  }
  if (!(d.u_defect >= 0.0 && d.u_defect <= kDefectTol) ||
      !(d.v_defect >= 0.0 && d.v_defect <= kDefectTol)) {
    fail(tag + "orthonormality defect u " + std::to_string(d.u_defect) + " v " +
         std::to_string(d.v_defect));
    return false;
  }
  if (!w_.spectrum.empty()) {
    double err = 0.0;
    for (std::size_t i = 0; i < w_.spectrum.size(); ++i)
      err = std::max(err, std::fabs(r.sigma[i] - w_.spectrum[i]) / w_.spectrum[0]);
    if (!(err <= kSigmaScaledTol)) {
      fail(tag + "sigma scaled error " + std::to_string(err));
      return false;
    }
  }
  return true;
}

bool Bench::expect(const char* who, std::size_t k, const SvdResult& r, std::uint64_t want) {
  if (r.status == SvdStatus::kConverged && result_core_digest(r) == want) return true;
  fail(std::string(who) + " input " + std::to_string(k) + ": result digest differs from the reference (" +
       to_string(r.status) + ")");
  return false;
}

bool Bench::check_onesided(std::size_t k, SvdResult& r) {
  if (ref_[k] != 0) return expect("one_sided_jacobi", k, r, ref_[k]);
  if (!quality("one_sided_jacobi", k, r, jopt_.rank_tol)) return false;
  ref_[k] = result_core_digest(r);
  return true;
}

/// Digest of one_sided_jacobi on input k, solving and checking it on first use.
std::uint64_t Bench::reference(std::size_t k) {
  if (ref_[k] == 0) {
    SvdResult r = one_sided_jacobi(w_.inputs[k], *ordering_, jopt_);
    check_onesided(k, r);
  }
  return ref_[k];
}

bool Bench::check_block(std::size_t k, SvdResult& r) {
  if (block_ref_[k] != 0) return expect("block_one_sided_jacobi", k, r, block_ref_[k]);
  if (!quality("block_one_sided_jacobi", k, r, bopt_.rank_tol)) return false;
  block_ref_[k] = result_core_digest(r);
  return true;
}

// ---------------------------------------------------------------------------
// Set-up: ordering, warm-up solves, server construction and start().

double Bench::setup_once() {
  if (server_) {
    server_->stop();
    server_.reset();
  }
  const std::uint64_t t0 = now_ns();
  // The shared GEMM pool starts here, unpinned, so its workers may use every
  // CPU even though later block solves run pinned (see CpuPin).
  (void)gemm_pool();
  ordering_ = make_ordering("fat-tree");
  const Matrix& a = w_.inputs[0];
  JacobiOptions warm = jopt_;
  warm.max_sweeps = 2;
  BlockJacobiOptions bwarm = bopt_;
  bwarm.max_outer_sweeps = 1;
  (void)one_sided_jacobi(a, *ordering_, warm);
  (void)one_sided_jacobi_threaded(a, *ordering_, warm, kThreads);
  (void)block_one_sided_jacobi(a, *ordering_, bwarm);
  if (w_.serve_rate > 0.0) {
    ServeOptions so;
    so.rows = w_.rows;
    so.cols = w_.cols;
    so.batch.lane_width = kLaneWidth;
    so.shards = 1;
    server_ = std::make_unique<SvdServer>(*ordering_, so);
    server_->start();
    std::vector<SvdResult> out(2 * kLaneWidth);
    for (std::size_t i = 0; i < out.size(); ++i) server_->submit(w_.inputs[i], &out[i]);
    server_->wait_idle();
  }
  if (w_.spmd) (void)spmd_jacobi(a, *ordering_, jopt_, nullptr, &socket_tx_);
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

// ---------------------------------------------------------------------------
// Measured phases.

void Bench::drivers_phase(double seconds, Measured& m) {
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  do {
    const std::size_t in = next_driver_input_++ % w_.inputs.size();
    const Matrix& a = w_.inputs[in];
    try {
      SvdResult r;
      {
        const CpuPin pin(all_cpus_, cpus_, next_cpu_);
        m.onesided.push_back(timed(tr_, "svd.one_sided_jacobi", [&] { r = one_sided_jacobi(a, *ordering_, jopt_); }));
      }
      m.onesided_ks += r.kernel_stats;
      m.onesided_sweeps += static_cast<std::size_t>(r.sweeps);
      m.onesided_rotations += r.rotations;
      m.failed += check_onesided(in, r) ? 0 : 1;
    } catch (const std::exception& e) {
      fail(std::string("one_sided_jacobi threw: ") + e.what());
      ++m.failed;
    }
    try {
      SvdResult r;
      m.threaded.push_back(timed(tr_, "svd.one_sided_jacobi_threaded", [&] {
        r = one_sided_jacobi_threaded(a, *ordering_, jopt_, kThreads);
      }));
      m.failed += expect("one_sided_jacobi_threaded", in, r, reference(in)) ? 0 : 1;
    } catch (const std::exception& e) {
      fail(std::string("one_sided_jacobi_threaded threw: ") + e.what());
      ++m.failed;
    }
    try {
      SvdResult r;
      gemm_dispatch_stats_reset();
      {
        const CpuPin pin(all_cpus_, cpus_, next_cpu_);
        m.block.push_back(timed(tr_, "svd.block_one_sided_jacobi", [&] { r = block_one_sided_jacobi(a, *ordering_, bopt_); }));
      }
      const GemmDispatchStats g = gemm_dispatch_stats();
      m.gemm.pooled += g.pooled;
      m.gemm.fallback += g.fallback;
      m.gemm.serial += g.serial;
      m.gemm.inline_small += g.inline_small;
      m.block_ks += r.kernel_stats;
      m.failed += check_block(in, r) ? 0 : 1;
    } catch (const std::exception& e) {
      fail(std::string("block_one_sided_jacobi threw: ") + e.what());
      ++m.failed;
    }
    m.attempted += 3;
  } while (now_ns() < end);
}

OpenLoop Bench::open_loop(const Schedule& s, OutSlots& slots) {
  OpenLoop o;
  const std::size_t n = s.due_ns.size();
  o.accepted.reserve(n);
  o.late_ms.reserve(n);
  o.submit_us.reserve(n);
  std::vector<std::uint64_t> done_ns;
  done_ns.reserve(n);
  const std::uint64_t base = server_->stats().completed;
  const std::uint64_t start = now_ns() + 1000000;  // 1 ms lead
  // A server that stops completing must not hang the benchmark.
  const std::uint64_t give_up = start + (n == 0 ? 0 : s.due_ns.back()) + 30000000000ULL;
  std::size_t next = 0;
  std::uint64_t last_poll = 0;
  while (next < n || done_ns.size() < o.accepted.size()) {
    std::uint64_t now = now_ns();
    if (now > give_up) {
      o.stalled = o.accepted.size() - done_ns.size();
      o.accepted.resize(done_ns.size());
      break;
    }
    if (now - last_poll >= kPollNs) {
      // One shard completes requests in submission order, so the counter
      // tells exactly which requests have finished.
      const std::uint64_t completed = server_->stats().completed - base;
      now = now_ns();
      last_poll = now;
      while (done_ns.size() < completed && done_ns.size() < o.accepted.size()) done_ns.push_back(now);
    }
    if (next < n && now >= start + s.due_ns[next]) {
      const std::uint64_t due = start + s.due_ns[next];
      const Matrix& a = w_.inputs[s.input[next]];
      std::uint64_t t0 = 0;
      const long span = tr_.begin("serve.try_submit", &t0);
      const bool ok = server_->try_submit(a, slots.slot(next));
      const std::uint64_t t1 = tr_.end(span);
      o.late_ms.push_back(ms_between(due, t0));
      o.submit_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      if (ok) {
        o.accepted.push_back(next);
      } else {
        ++o.refused;
      }
      ++next;
      if (next == n) o.backlog_at_last_send = o.accepted.size() - done_ns.size();
      continue;
    }
    const bool idle_long = next < n && start + s.due_ns[next] > now + 200000 &&
                           done_ns.size() == o.accepted.size();
    if (idle_long) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    } else {
      std::this_thread::yield();
    }
  }
  o.latency_ms.reserve(o.accepted.size());
  for (std::size_t j = 0; j < o.accepted.size(); ++j)
    o.latency_ms.push_back(ms_between(start + s.due_ns[o.accepted[j]], done_ns[j]));
  return o;
}

void Bench::serve_fixed(const Schedule& s, Measured& m) {
  const std::size_t stride = std::max<std::size_t>(1, (s.due_ns.size() + 255) / 256);
  OutSlots slots(s.due_ns.size(), stride, 512);
  const ServeStats before = server_->stats();
  OpenLoop o;
  {
    Scope phase(tr_, "serve.fixed_rate");
    o = open_loop(s, slots);
  }
  m.attempted += s.due_ns.size();
  m.failed += o.refused + o.stalled;
  if (o.stalled > 0) {
    fail("serve: " + std::to_string(o.stalled) + " requests never completed");
    return;  // wait_idle() would block forever
  }
  server_->wait_idle();
  const ServeStats after = server_->stats();
  const std::uint64_t lost = (after.expired - before.expired) + (after.failed - before.failed);
  if (o.refused > 0 || lost > 0)
    fail("serve: " + std::to_string(o.refused) + " refused, " + std::to_string(lost) +
         " expired or failed");
  m.failed += lost;
  for (const std::size_t i : o.accepted) {
    if (!slots.is_checked(i)) continue;
    const std::size_t in = s.input[i];
    m.failed += expect("served request", in, slots.checked[i / stride], reference(in)) ? 0 : 1;
  }
  ServeStats& t = m.serve;
  t.batches += after.batches - before.batches;
  t.batched_lanes += after.batched_lanes - before.batched_lanes;
  t.submitted += after.submitted - before.submitted;
  t.rejected += after.rejected - before.rejected;
  t.expired += after.expired - before.expired;
  t.failed += after.failed - before.failed;
  t.restarts += after.restarts - before.restarts;
  OpenLoop& f = m.fixed;
  f.latency_ms.insert(f.latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
  f.late_ms.insert(f.late_ms.end(), o.late_ms.begin(), o.late_ms.end());
  f.submit_us.insert(f.submit_us.end(), o.submit_us.begin(), o.submit_us.end());
  f.refused += o.refused;
}

void Bench::serve_ladder(const Plan& plan, Measured& m) {
  // Stop at the first rate that misses the limit.
  for (const Schedule& step : plan.ladder) {
    OutSlots scratch(step.due_ns.size(), 0, 512);
    OpenLoop o;
    {
      Scope phase(tr_, "serve.ladder_step");
      o = open_loop(step, scratch);
    }
    if (o.stalled > 0) {
      fail("serve ladder: " + std::to_string(o.stalled) + " requests never completed");
      ++m.failed;
      break;
    }
    server_->wait_idle();
    const double p99 = quantile(o.latency_ms, 0.99);
    const bool pass = o.refused == 0 && p99 <= kLatencyLimitMs &&
                      static_cast<double>(o.backlog_at_last_send) <=
                          std::max(static_cast<double>(kLaneWidth), step.rate * kLatencyLimitMs * 1e-3);
    rec_.info("ladder." + std::to_string(static_cast<int>(step.rate)),
              "p99_ms " + std::to_string(p99) + " refused " + std::to_string(o.refused) +
                  " backlog " + std::to_string(o.backlog_at_last_send) + (pass ? " pass" : " fail"));
    if (!pass) break;
    m.max_rps = step.rate;
  }
}

void Bench::spmd_phase(double seconds, Measured& m) {
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  do {
    const std::size_t in = next_spmd_input_++ % w_.inputs.size();
    try {
      SvdResult r;
      SpmdStats st;
      m.spmd.push_back(timed(tr_, "svd.spmd_jacobi", [&] {
        r = spmd_jacobi(w_.inputs[in], *ordering_, jopt_, &st, &socket_tx_);
      }));
      m.spmd_stats.messages += st.messages;
      m.spmd_stats.recovery += st.recovery;
      m.spmd_sweeps += static_cast<std::size_t>(r.sweeps);
      m.failed += expect("spmd_jacobi", in, r, reference(in)) ? 0 : 1;
    } catch (const std::exception& e) {
      fail(std::string("spmd_jacobi threw: ") + e.what());
      ++m.failed;
    }
    ++m.attempted;
  } while (now_ns() < end);
}

/// Runs the plan's slices into `ua`. In a traced run odd slices (and the
/// ladder) run with spans on into `tb` instead, so both halves sample the same
/// stretch of the host's speed and their difference is the tracing overhead.
void Bench::measure(const Plan& plan, Measured& ua, Measured& tb) {
  for (std::size_t c = 0; c < plan.chunks; ++c) {
    const bool traced = cfg_.trace && c % 2 == 1;
    tr_.set_on(traced);
    Measured& m = traced ? tb : ua;
    drivers_phase(plan.driver_s, m);
    if (!plan.fixed.empty()) serve_fixed(plan.fixed[c], m);
    if (w_.spmd) spmd_phase(plan.spmd_s, m);
  }
  tr_.set_on(cfg_.trace);
  serve_ladder(plan, cfg_.trace ? tb : ua);
  for (Measured* m : {&ua, &tb})
    m->latency = w_.spmd ? m->spmd : plan.fixed.empty() ? m->onesided : m->fixed.latency_ms;
}

// ---------------------------------------------------------------------------
// Reporting.

/// The tail latency metric. p99 needs at least 1000 samples to keep ten
/// beyond it. With at least two windows of 1000 (the serve workloads) it is
/// the median of the windows' p99s, so one burst of host noise moves one
/// window and not the metric. With fewer samples no p99 is measurable and the
/// metric repeats the median (the closed-loop workloads: a few dozen spmd
/// calls, a few long solves).
double tail_latency(const std::vector<double>& v) {
  constexpr std::size_t kWindow = 1000;
  if (v.size() < kWindow) return median(v);
  if (v.size() < 2 * kWindow) return quantile(v, 0.99);
  std::vector<double> p;
  for (std::size_t b = 0; b + kWindow <= v.size(); b += kWindow)
    p.push_back(quantile(std::vector<double>(v.begin() + static_cast<long>(b),
                                             v.begin() + static_cast<long>(b + kWindow)),
                         0.99));
  return median(p);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Bench::record_end_to_end(const Measured& m, double setup_s) {
  rec_.metric("setup_s", "s", setup_s, kSetupReps);
  rec_.metric("onesided_ms", "ms", median(m.onesided), m.onesided.size());
  rec_.metric("threaded_ms", "ms", median(m.threaded), m.threaded.size());
  rec_.metric("block_ms", "ms", median(m.block), m.block.size());
  rec_.metric("latency_p50_ms", "ms", median(m.latency), m.latency.size());
  rec_.metric("latency_p99_ms", "ms", tail_latency(m.latency), m.latency.size());
  rec_.info("latency.whole_run_p99_ms", quantile(m.latency, 0.99));
  rec_.metric("peak_rss_mb", "MiB", peak_rss_mb(), 1);
  if (w_.spmd) rec_.metric("spmd_ms", "ms", median(m.spmd), m.spmd.size());
  if (!w_.ladder.empty()) rec_.metric("max_rps", "req/s", m.max_rps, w_.ladder.size());
  rec_.metric("error_frac", "ratio",
              m.attempted == 0 ? 1.0 : static_cast<double>(m.failed) / static_cast<double>(m.attempted),
              m.attempted);
}

/// Median BatchedSvd::solve time at fills 1, 2, 4 and 8 on the workload's
/// inputs; returns the sequential one_sided_jacobi time on one input.
double Bench::batch_probe(std::vector<double>& fill_ms) {
  BatchedSvdOptions bo;
  bo.lane_width = kLaneWidth;
  BatchedSvd engine(w_.rows, w_.cols, *ordering_, bo);
  engine.reserve(kLaneWidth);
  constexpr std::size_t kReps = 25;
  for (const std::size_t fill : {1, 2, 4, 8}) {
    std::vector<double> t;
    for (std::size_t rep = 0; rep < kReps; ++rep) {
      const std::span<const Matrix> in(&w_.inputs[rep * kLaneWidth], fill);
      t.push_back(timed(tr_, "svd.batched_solve", [&] { (void)engine.solve(in); }));
    }
    fill_ms.push_back(median(t));
    rec_.metric("batch.solve_ms.b" + std::to_string(fill), "ms", median(t), t.size());
  }
  std::vector<double> t;
  for (std::size_t rep = 0; rep < kReps; ++rep)
    t.push_back(timed(tr_, "svd.one_sided_jacobi", [&] { (void)one_sided_jacobi(w_.inputs[rep], *ordering_, jopt_); }));
  return median(t);
}

void Bench::record_layers(const Measured& ua, const Measured& tb) {
  const Matrix& a = w_.inputs[0];
  const int padded_n = ordering_->supports(static_cast<int>(w_.cols))
                           ? static_cast<int>(w_.cols)
                           : static_cast<int>(std::bit_ceil(w_.cols));
  const auto per_solve = [&](std::size_t count, std::size_t solves) {
    return solves == 0 ? 0.0 : static_cast<double>(count) / static_cast<double>(solves);
  };
  const std::size_t solves = tb.onesided.size();

  // Kernels, sweep driver and norm cache.
  const KernelTimes kt = probe_kernels(a, tr_, rec_);
  const double sweeps = per_solve(tb.onesided_sweeps, solves);
  const double steps = sweeps * ordering_->steps(padded_n);
  const KernelStats& ks = tb.onesided_ks;
  rec_.metric("svd.sweeps", "count", sweeps, solves);
  rec_.metric("svd.steps", "count", steps, solves);
  rec_.metric("svd.pairs", "count", per_solve(ks.pairs, solves), solves);
  rec_.metric("svd.rotations", "count", per_solve(tb.onesided_rotations, solves), solves);
  rec_.metric("svd.dot_passes", "count", per_solve(ks.dot_passes, solves), solves);
  rec_.metric("svd.gram_passes", "count", per_solve(ks.gram_passes, solves), solves);
  rec_.metric("svd.rotate_passes", "count", per_solve(ks.rotate_passes, solves), solves);
  rec_.metric("svd.norm_refreshes", "count", per_solve(ks.norm_refreshes, solves), solves);
  const double kernel_ms = 1e-6 * (per_solve(ks.dot_passes, solves) * kt.dot_ns +
                                   per_solve(ks.gram_passes, solves) * kt.gram_pair_ns +
                                   per_solve(ks.rotate_passes, solves) * kt.rotate_and_norms_ns +
                                   per_solve(ks.norm_refreshes, solves) * kt.sumsq_ns);
  rec_.metric("svd.kernel_ms", "ms", kernel_ms, solves);
  const double sweep_from_us = probe_ordering(*ordering_, padded_n, tr_, rec_);
  const double schedule_ms = sweep_from_us * sweeps * 1e-3;
  rec_.metric("core.schedule_ms", "ms", schedule_ms, solves);
  const double svd_sum = kernel_ms + schedule_ms;
  rec_.metric("svd.layer_sum_ms", "ms", svd_sum, solves);
  rec_.metric("svd.unexplained_ms", "ms", mean(tb.onesided) - svd_sum, solves);
  rec_.metric("svd.assess_ms", "ms", median(assess_ms_), assess_ms_.size());

  // Thread pool.
  const PoolTimes pt = probe_pool(padded_n / 2, tr_, rec_);
  const double overhead_ms = (steps * pt.parallel_for_us + pt.create_us) * 1e-3;
  rec_.metric("threaded.overhead_ms", "ms", overhead_ms, tb.threaded.size());
  // Kernel work split evenly over the pool; a step of few pairs runs inline.
  const std::size_t leaves = static_cast<std::size_t>(padded_n / 2);
  const double width = leaves <= ThreadPool::kAutoInlineBelow ? 1.0 : std::min<double>(kThreads, leaves);
  const double threaded_sum = kernel_ms / width + schedule_ms + overhead_ms;
  rec_.metric("threaded.layer_sum_ms", "ms", threaded_sum, tb.threaded.size());
  rec_.metric("threaded.unexplained_ms", "ms", mean(tb.threaded) - threaded_sum, tb.threaded.size());

  // GEMM panels and the block driver.
  const std::size_t bsolves = tb.block.size();
  const PanelTimes pn = probe_panels(a, bopt_.block_width, tr_, rec_);
  const KernelStats& bk = tb.block_ks;
  rec_.metric("svd.gram_builds", "count", per_solve(bk.gram_builds, bsolves), bsolves);
  rec_.metric("svd.accum_rotations", "count", per_solve(bk.accum_rotations, bsolves), bsolves);
  rec_.metric("svd.blocked_applies", "count", per_solve(bk.blocked_applies, bsolves), bsolves);
  rec_.metric("linalg.gemm_pooled", "count", per_solve(tb.gemm.pooled, bsolves), bsolves);
  rec_.metric("linalg.gemm_fallback", "count", per_solve(tb.gemm.fallback, bsolves), bsolves);
  rec_.metric("linalg.gemm_serial", "count", per_solve(tb.gemm.serial, bsolves), bsolves);
  rec_.metric("linalg.gemm_inline", "count", per_solve(tb.gemm.inline_small, bsolves), bsolves);
  // With compute_v every rotated encounter applies one H panel and one V panel.
  const double block_sum =
      1e-3 * (per_solve(bk.gram_builds, bsolves) * pn.gram_us +
              0.5 * per_solve(bk.blocked_applies, bsolves) * (pn.apply_us + pn.apply_v_us));
  rec_.metric("block.layer_sum_ms", "ms", block_sum, bsolves);
  rec_.metric("block.unexplained_ms", "ms", mean(tb.block) - block_sum, bsolves);

  // Batched engine and server.
  if (w_.serve_rate > 0.0) {
    std::vector<double> fill_ms;
    rec_.metric("batch.seq_ms", "ms", batch_probe(fill_ms), 25);
    const ServeStats& sv = tb.serve;
    const double batches = static_cast<double>(sv.batches);
    const double fill = batches > 0 ? static_cast<double>(sv.batched_lanes) / batches : 0.0;
    const std::size_t nreq = tb.fixed.latency_ms.size();
    rec_.metric("serve.fill_mean", "count", fill, sv.batches);
    rec_.metric("serve.lane_util", "ratio", fill / static_cast<double>(kLaneWidth), sv.batches);
    rec_.metric("serve.batches", "count", batches, 1);
    rec_.metric("serve.accepted", "count", static_cast<double>(sv.submitted), 1);
    rec_.metric("serve.rejected", "count", static_cast<double>(sv.rejected), 1);
    rec_.metric("serve.expired", "count", static_cast<double>(sv.expired), 1);
    rec_.metric("serve.failed", "count", static_cast<double>(sv.failed), 1);
    rec_.metric("serve.restarts", "count", static_cast<double>(sv.restarts), 1);
    rec_.metric("serve.submit_us.p50", "us", median(tb.fixed.submit_us), tb.fixed.submit_us.size());
    rec_.metric("serve.submit_us.p99", "us", quantile(tb.fixed.submit_us, 0.99), tb.fixed.submit_us.size());
    // Solve time at the observed mean fill, interpolated between the probed
    // fills 1, 2, 4, 8; what latency holds beyond it is waiting.
    const double fills[] = {1, 2, 4, 8};
    double solve_at_fill = fill_ms[0];
    for (std::size_t i = 0; i + 1 < 4; ++i) {
      if (fill >= fills[i] && fill <= fills[i + 1]) {
        const double f = (fill - fills[i]) / (fills[i + 1] - fills[i]);
        solve_at_fill = fill_ms[i] + f * (fill_ms[i + 1] - fill_ms[i]);
      }
    }
    rec_.metric("serve.wait_ms.p50", "ms", median(tb.fixed.latency_ms) - solve_at_fill, nreq);
    rec_.metric("gen.late_ms.p99", "ms", quantile(tb.fixed.late_ms, 0.99), tb.fixed.late_ms.size());
    rec_.metric("gen.late_ms.max", "ms", quantile(tb.fixed.late_ms, 1.0), tb.fixed.late_ms.size());
    if (!w_.ladder.empty()) rec_.metric("serve.max_rps", "req/s", tb.max_rps, w_.ladder.size());
  } else {
    rec_.metric("batch.seq_ms", "ms", median(tb.onesided), tb.onesided.size());
  }

  // Transport and SPMD engine.
  if (w_.spmd) {
    const MpTimes mt = probe_mp(cfg_.sock_dir, tr_, rec_);
    const std::size_t calls = tb.spmd.size();
    const mp::RecoveryStats& rs = tb.spmd_stats.recovery;
    rec_.metric("mp.checkpoints", "count", per_solve(rs.checkpoints, calls), calls);
    rec_.metric("mp.retries", "count", per_solve(rs.retries, calls), calls);
    rec_.metric("mp.resends", "count", per_solve(rs.resends, calls), calls);
    const double messages = per_solve(tb.spmd_stats.messages, calls);
    const double bytes = messages * static_cast<double>(w_.rows * sizeof(double));
    rec_.metric("spmd.messages", "count", messages, calls);
    rec_.metric("spmd.bytes", "bytes", bytes, calls);
    rec_.metric("spmd.sweeps", "count", per_solve(tb.spmd_sweeps, calls), calls);
    SpmdTransport inproc;
    std::vector<double> t;
    for (std::size_t k = 0; k < 10; ++k) {
      t.push_back(timed(tr_, "svd.spmd_jacobi.inproc", [&] {
        (void)spmd_jacobi(w_.inputs[k % w_.inputs.size()], *ordering_, jopt_, nullptr, &inproc);
      }));
    }
    const double inproc_ms = median(t);
    rec_.metric("spmd.inproc_ms", "ms", inproc_ms, t.size());
    // Ranks exchange in parallel: each moves its share of the bytes over one
    // socket at the probed stream bandwidth.
    const int ranks = padded_n / 2;
    const double transport_ms = bytes / ranks / (mt.bw_socket_mbs * 1e6) * 1e3 +
                                messages / ranks * mt.rtt_socket_us * 0.5e-3;
    rec_.metric("spmd.transport_ms", "ms", transport_ms, calls);
    const double spmd_sum = mt.spawn_ms + inproc_ms + transport_ms;
    rec_.metric("spmd.layer_sum_ms", "ms", spmd_sum, calls);
    rec_.metric("spmd.unexplained_ms", "ms", mean(tb.spmd) - spmd_sum, calls);
  }
  probe_level_model(rec_);

  // Tracing overhead: the traced slices against the untraced ones, plus the
  // direct cost of one span for scale.
  const double base = median(ua.latency);
  rec_.metric("trace.overhead_pct", "%", base > 0 ? 100.0 * (median(tb.latency) - base) / base : 0.0,
              tb.latency.size());
  Tracer probe(true);
  std::uint64_t probe_t0 = 0;
  rec_.info("trace.span_ns", per_call_ns(7, 10000, [&](int) { probe.end(probe.begin("probe", &probe_t0)); }));
  for (const auto& [name, u, t] :
       {std::tuple{"onesided_ms", &ua.onesided, &tb.onesided}, std::tuple{"threaded_ms", &ua.threaded, &tb.threaded},
        std::tuple{"block_ms", &ua.block, &tb.block}, std::tuple{"latency_p50_ms", &ua.latency, &tb.latency}}) {
    rec_.info(std::string("untraced.") + name, median(*u));
    rec_.info(std::string("traced.") + name, median(*t));
    rec_.info(std::string("traced_mean.") + name, mean(*t));
  }
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000U, nullptr) >= 0x80000004U) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2], &regs[4 * i + 3]);
    char buf[49] = {};
    std::memcpy(buf, regs, 48);
    std::string s(buf);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    if (b != std::string::npos) return s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

int Bench::run() {
  // Arrival schedules are fixed before any set-up or timing. A traced run
  // alternates untraced and traced slices, at least two of each.
  const std::size_t chunks = cfg_.trace ? std::max<std::size_t>(4, 2 * w_.chunks) : w_.chunks;
  const Plan plan = make_plan(w_, cfg_.seconds, chunks, cfg_.seed);

  std::vector<double> setups;
  for (int r = 0; r < kSetupReps; ++r) setups.push_back(setup_once());
  const double setup_s = median(setups);

  Measured ua, tb;
  measure(plan, ua, tb);
  const std::size_t attempted = ua.attempted + tb.attempted;
  const std::size_t failed = ua.failed + tb.failed;
  if (!cfg_.trace) {
    record_end_to_end(ua, setup_s);
  } else {
    record_layers(ua, tb);
    rec_.spans(tr_);
  }
  if (server_) server_->stop();

  if (failures_ > 20) rec_.failure(w_.name + " and " + std::to_string(failures_ - 20) + " more");
  rec_.info("attempted", static_cast<double>(attempted));
  rec_.info("failed", static_cast<double>(failed));
  rec_.info("seed", static_cast<double>(cfg_.seed));
  rec_.info("isa_tier", isa_name(resolved_isa()));
  rec_.info("cpu_model", cpu_model());
  rec_.info("l2_bytes", static_cast<double>(::sysconf(_SC_LEVEL2_CACHE_SIZE)));
  rec_.info("l3_bytes", static_cast<double>(::sysconf(_SC_LEVEL3_CACHE_SIZE)));
  rec_.info("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  rec_.info("threads_max", static_cast<double>(kThreads));
  rec_.info("rank_processes", w_.spmd ? 4.0 : 0.0);
  rec_.info("input_shape", std::to_string(w_.rows) + "x" + std::to_string(w_.cols));
  rec_.info("inputs", static_cast<double>(w_.inputs.size()));
  if (w_.serve_rate > 0.0) rec_.info("serve_rate", w_.serve_rate);
  for (std::size_t i = 0; i < setups.size(); ++i) rec_.info("setup_s." + std::to_string(i), setups[i]);
  if (!rec_.write(cfg_.out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", cfg_.out.c_str());
    return 2;
  }
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const treesvd::Cli cli(argc, argv);
  perfbench::Config cfg;
  cfg.workload = cli.get("workload", "");
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  cfg.seconds = cli.get_double("seconds", 10.0);
  cfg.trace = cli.get_int("trace", 0) != 0;
  cfg.out = cli.get("out", "");
  cfg.sock_dir = cli.get("sock-dir", "");
  perfbench::Workload w = perfbench::make_workload(cfg.workload, cfg.seed);
  if (w.inputs.empty() || cfg.out.empty() || cfg.sock_dir.empty() || !(cfg.seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=solve-tall|serve-light|serve-heavy|spmd-socket "
                 "--seed=N --seconds=S --trace=0|1 --out=PATH --sock-dir=DIR\n");
    return 2;
  }
  try {
    perfbench::Bench bench(std::move(cfg), std::move(w));
    return bench.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
