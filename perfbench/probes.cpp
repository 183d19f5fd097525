// Per-layer probes: short timed calls into one layer's public functions,
// made after the traced workload phase. Each probe records its own spans.
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>

#include "bench.hpp"
#include "core/registry.hpp"
#include "core/validate.hpp"
#include "linalg/dispatch.hpp"
#include "linalg/gemm.hpp"
#include "mp/message_passing.hpp"
#include "svd/equilibrate.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace treesvd;

namespace {

constexpr int kBatches = 7;

/// Median GB/s of memcpy between two arrays of `bytes` each; bytes moved
/// counts the read and the write.
double copy_gbs(std::size_t bytes, int reps) {
  const std::unique_ptr<char[]> src(new char[bytes]);
  const std::unique_ptr<char[]> dst(new char[bytes]);
  std::memset(src.get(), 1, bytes);
  std::memset(dst.get(), 2, bytes);  // page both arrays in before timing
  std::vector<double> gbs;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = now_ns();
    std::memcpy(dst.get(), src.get(), bytes);
    const std::uint64_t t1 = now_ns();
    gbs.push_back(2.0 * static_cast<double>(bytes) / static_cast<double>(t1 - t0));
  }
  return median(gbs);
}

std::size_t l3_bytes() {
  const long v = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  return v > 0 ? static_cast<std::size_t>(v) : std::size_t{32} << 20;
}

}  // namespace

KernelTimes probe_kernels(const Matrix& a, Tracer& tr, Records& rec) {
  Scope whole(tr, "probe.linalg");
  const KernelTable& kt = kernels();
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  Matrix w = a;
  // Pair column j with column j + n/2 and walk j over the whole matrix, so
  // the operands come from the cache level the solve itself reads them from.
  const int calls = static_cast<int>(std::max<std::size_t>(2 * n, 4000000 / m));
  const auto x = [&](int k) { return static_cast<std::size_t>(k) % n; };
  const auto y = [&](int k) { return (static_cast<std::size_t>(k) + n / 2) % n; };
  double sink = 0.0;
  KernelTimes t;
  {
    Scope s(tr, "linalg.dot");
    t.dot_ns = per_call_ns(kBatches, calls,
                           [&](int k) { sink += kt.dot(a.col(x(k)).data(), a.col(y(k)).data(), m); });
  }
  {
    Scope s(tr, "linalg.sumsq");
    t.sumsq_ns = per_call_ns(kBatches, calls, [&](int k) { sink += kt.sumsq(a.col(x(k)).data(), m); });
  }
  {
    Scope s(tr, "linalg.gram_pair");
    t.gram_pair_ns = per_call_ns(kBatches, calls, [&](int k) {
      double app = 0, aqq = 0, apq = 0;
      kt.gram_pair(a.col(x(k)).data(), a.col(y(k)).data(), m, &app, &aqq, &apq);
      sink += apq;
    });
  }
  {
    Scope s(tr, "linalg.rotate_and_norms");
    const double c = std::cos(0.3);
    const double sn = std::sin(0.3);
    t.rotate_and_norms_ns = per_call_ns(kBatches, calls, [&](int k) {
      double xx = 0, yy = 0;
      kt.rotate_and_norms(w.col(x(k)).data(), w.col(y(k)).data(), m, c, sn, &xx, &yy);
      sink += xx;
    });
  }
  const std::size_t ws = m * n * sizeof(double);
  double ws_gbs = 0.0;
  {
    Scope s(tr, "linalg.copy_ws");
    ws_gbs = copy_gbs(ws, 15);
  }
  // Each array should be at least four times the last-level cache; the cap
  // keeps the probe's footprint bounded on hosts reporting a huge L3.
  const std::size_t dram = std::min(4 * l3_bytes(), std::size_t{512} << 20);
  double dram_gbs = 0.0;
  {
    Scope s(tr, "linalg.copy_dram");
    dram_gbs = copy_gbs(dram, 3);
  }
  const double col_bytes = static_cast<double>(m * sizeof(double));
  const double gram_gbs = 2.0 * col_bytes / t.gram_pair_ns;
  const double rot_gbs = 4.0 * col_bytes / t.rotate_and_norms_ns;
  rec.metric("linalg.dot_ns", "ns", t.dot_ns, kBatches);
  rec.metric("linalg.gram_pair_ns", "ns", t.gram_pair_ns, kBatches);
  rec.metric("linalg.rotate_and_norms_ns", "ns", t.rotate_and_norms_ns, kBatches);
  rec.metric("linalg.sumsq_ns", "ns", t.sumsq_ns, kBatches);
  rec.metric("linalg.gram_pair_gbs", "GB/s", gram_gbs, kBatches);
  rec.metric("linalg.rotate_and_norms_gbs", "GB/s", rot_gbs, kBatches);
  rec.metric("linalg.copy_gbs_ws", "GB/s", ws_gbs, 15);
  rec.metric("linalg.copy_gbs_dram", "GB/s", dram_gbs, 3);
  rec.metric("linalg.gram_pair_roofline", "ratio", gram_gbs / ws_gbs, kBatches);
  rec.metric("linalg.rotate_and_norms_roofline", "ratio", rot_gbs / ws_gbs, kBatches);
  rec.info("probe.kernel_rows", static_cast<double>(m));
  rec.info("probe.copy_ws_array_bytes", static_cast<double>(ws));
  rec.info("probe.copy_dram_array_bytes", static_cast<double>(dram));
  rec.info("probe.l3_bytes", static_cast<double>(l3_bytes()));
  rec.info("probe.sink", sink);
  {
    Scope s(tr, "svd.scan_scale");
    double max_abs = 0.0;
    const double ns = per_call_ns(kBatches, 20, [&](int) { max_abs += scan_scale(a).max_abs; });
    rec.metric("svd.scan_scale_us", "us", ns * 1e-3, kBatches);
    rec.info("probe.scan_sink", max_abs);
  }
  return t;
}

double probe_ordering(const Ordering& ordering, int n, Tracer& tr, Records& rec) {
  Scope s(tr, "core.sweep_from");
  std::vector<int> layout(static_cast<std::size_t>(n));
  std::iota(layout.begin(), layout.end(), 0);
  std::size_t steps = 0;
  const double us =
      1e-3 * per_call_ns(kBatches, 20, [&](int k) { steps += ordering.sweep_from(layout, k).steps(); });
  rec.metric("core.sweep_from_us", "us", us, kBatches);
  return steps > 0 ? us : 0.0;
}

PoolTimes probe_pool(int leaves, Tracer& tr, Records& rec) {
  PoolTimes t;
  {
    Scope s(tr, "util.pool_create");
    t.create_us = 1e-3 * per_call_ns(kBatches, 10, [](int) { ThreadPool pool(4); });
  }
  {
    Scope s(tr, "util.parallel_for");
    ThreadPool pool(4);
    t.parallel_for_us = 1e-3 * per_call_ns(kBatches, 200, [&](int) {
      pool.parallel_for(static_cast<std::size_t>(leaves), [](std::size_t) {});
    });
  }
  rec.metric("util.pool_create_us", "us", t.create_us, kBatches);
  rec.metric("util.parallel_for_us", "us", t.parallel_for_us, kBatches);
  return t;
}

PanelTimes probe_panels(const Matrix& a, int block_width, Tracer& tr, Records& rec) {
  const int k = std::min(2 * block_width, static_cast<int>(a.cols()));
  std::vector<int> cols(static_cast<std::size_t>(k));
  std::iota(cols.begin(), cols.end(), 0);
  const Matrix ident = Matrix::identity(static_cast<std::size_t>(k));
  PanelTimes t;
  double sink = 0.0;
  {
    Scope s(tr, "linalg.gram_panel");
    t.gram_us = 1e-3 * per_call_ns(kBatches, 20, [&](int) {
      sink += gram_panel(a, cols, gemm_pool())(0, 0);
    });
  }
  {
    Scope s(tr, "linalg.apply_panel_update");
    Matrix h = a;
    t.apply_us = 1e-3 * per_call_ns(kBatches, 20, [&](int) {
      sink += apply_panel_update(h, cols, ident, gemm_pool())[0];
    });
    Matrix v = Matrix::identity(a.cols());
    t.apply_v_us = 1e-3 * per_call_ns(kBatches, 20, [&](int) {
      sink += apply_panel_update(v, cols, ident, gemm_pool())[0];
    });
  }
  rec.metric("linalg.gram_panel_us", "us", t.gram_us, kBatches);
  rec.metric("linalg.apply_panel_update_us", "us", t.apply_us, kBatches);
  rec.metric("linalg.apply_panel_update_v_us", "us", t.apply_v_us, kBatches);
  rec.info("probe.panel_sink", sink);
  return t;
}

MpTimes probe_mp(const std::string& sock_dir, Tracer& tr, Records& rec) {
  constexpr int kReps = 3;
  constexpr std::size_t kStreamDoubles = 16384;
  constexpr int kStreamMessages = 64;
  mp::SocketConfig cfg;
  cfg.socket_dir = sock_dir;
  MpTimes t;
  {
    std::vector<double> v;
    for (int r = 0; r < 5; ++r) {
      Scope s(tr, "mp.spawn");
      mp::World world(4);
      world.set_backend(mp::Backend::kSocket, cfg);
      world.run([](mp::Context&) {});
      v.push_back(s.close());
    }
    t.spawn_ms = median(v);
    rec.metric("mp.spawn_ms", "ms", t.spawn_ms, v.size());
  }
  for (const mp::Backend backend : {mp::Backend::kSocket, mp::Backend::kInproc}) {
    const bool socket = backend == mp::Backend::kSocket;
    const int pings = socket ? 200 : 2000;
    std::vector<double> rtt, bw;
    for (int r = 0; r < kReps; ++r) {
      mp::World world(2);
      if (socket) world.set_backend(backend, cfg);
      // Rank 0 times both exchanges on its own clock and publishes the
      // durations: on the socket backend it is another process.
      Scope s(tr, socket ? "mp.pingpong_stream.socket" : "mp.pingpong_stream.inproc");
      world.run([&](mp::Context& ctx) {
        if (ctx.rank() == 0) {
          const std::uint64_t t0 = now_ns();
          for (int k = 0; k < pings; ++k) {
            ctx.send(1, 1, {1.0});
            (void)ctx.recv(1, 1);
          }
          const std::uint64_t t1 = now_ns();
          const std::vector<double> msg(kStreamDoubles, 1.0);
          for (int k = 0; k < kStreamMessages; ++k) ctx.send(1, 2, msg);
          (void)ctx.recv(1, 3);
          const std::uint64_t t2 = now_ns();
          ctx.publish(1, {static_cast<double>(t1 - t0), static_cast<double>(t2 - t1)});
        } else {
          for (int k = 0; k < pings; ++k) ctx.send(0, 1, ctx.recv(0, 1));
          for (int k = 0; k < kStreamMessages; ++k) (void)ctx.recv(0, 2);
          ctx.send(0, 3, {1.0});
        }
      });
      s.close();
      const std::vector<double> d = world.published(1);
      rtt.push_back(d[0] * 1e-3 / pings);
      const double bytes = static_cast<double>(kStreamMessages * kStreamDoubles * sizeof(double));
      bw.push_back(bytes / (d[1] * 1e-9) / 1e6);
    }
    const std::string suffix = socket ? ".socket" : ".inproc";
    rec.metric("mp.rtt_us" + suffix, "us", median(rtt), rtt.size());
    rec.metric("mp.bw_mbs" + suffix, "MB/s", median(bw), bw.size());
    if (socket) {
      t.rtt_socket_us = median(rtt);
      t.bw_socket_mbs = median(bw);
    }
  }
  return t;
}

void probe_level_model(Records& rec) {
  // The paper's schedule on the spmd workload's width: 8 columns on 4 leaves,
  // so transfers climb at most two tree levels (level 0 is intra-leaf).
  const Sweep sweep = make_ordering("fat-tree")->sweep(8);
  const std::vector<std::size_t> hist = level_histogram(sweep);
  for (std::size_t level = 0; level < 3; ++level) {
    const double count = level < hist.size() ? static_cast<double>(hist[level]) : 0.0;
    rec.metric("core.level_msgs.L" + std::to_string(level), "count", count, 1);
  }
}

}  // namespace perfbench
