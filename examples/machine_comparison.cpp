// Two execution models and the cost model, one schedule: runs the same SVD
// through
//   1. the shared-memory engine (one_sided_jacobi),
//   2. the SPMD program over the message-passing runtime, one rank per leaf
//      and dataflow synchronisation only — first with the ranks as threads,
//      then as OS processes over UNIX-domain sockets,
// verifies they agree bit for bit — the ordering's schedule, not the
// runtime, determines the numerics — and prices the sweeps run on a
// CM-5-like fat tree with the abstract cost model (model_run), whose message
// count both SPMD runs must match.
//
//   ./machine_comparison [--n=32] [--rows=64] [--ordering=hybrid-g4]
#include <cstdio>

#include "treesvd.hpp"

namespace {

using namespace treesvd;

int run(int argc, const char* const* argv) {
  const Cli cli(argc, argv);
  cli.require_known({"n", "rows", "ordering"});
  const int n = static_cast<int>(cli.get_int("n", 32));
  const std::size_t rows = cli.get_count("rows", 2 * n);
  const std::string name = cli.get("ordering", "hybrid-g4");

  Rng rng(1993);
  const Matrix a = random_gaussian(rows, static_cast<std::size_t>(n), rng);
  const auto ord = make_ordering(name);
  if (!ord->supports(n)) {
    std::printf("%s does not support n=%d\n", name.c_str(), n);
    return 1;
  }

  std::printf("execution-model comparison: %zux%d, %s ordering, %d leaf processors\n\n", rows, n,
              name.c_str(), n / 2);

  Timer t1;
  const SvdResult shared = one_sided_jacobi(a, *ord);
  const double ms1 = t1.millis();

  Timer t2;
  SpmdStats threads;
  const SvdResult spmd = spmd_jacobi(a, *ord, {}, &threads);
  const double ms2 = t2.millis();

  SpmdTransport sockets;
  sockets.backend = mp::Backend::kSocket;
  Timer t3;
  SpmdStats processes;
  const SvdResult spmd_proc = spmd_jacobi(a, *ord, {}, &processes, &sockets);
  const double ms3 = t3.millis();

  const FatTreeTopology topo(n / 2, CapacityProfile::kCm5);
  const SweepCost cost = model_run(*ord, topo, n, CostParams{}, shared.sweeps).per_sweep_total;

  auto bitwise = [&](const SvdResult& x) {
    if (x.sigma.size() != shared.sigma.size()) return false;
    for (std::size_t k = 0; k < x.sigma.size(); ++k)
      if (x.sigma[k] != shared.sigma[k]) return false;
    return x.u == shared.u && x.v == shared.v;
  };
  const bool ok = bitwise(spmd) && bitwise(spmd_proc) && threads.messages == cost.messages &&
                  processes.messages == cost.messages;

  Table t({"model", "sweeps", "wall ms", "bitwise == shared", "notes"});
  t.row()
      .cell("shared-memory")
      .cell(static_cast<long long>(shared.sweeps))
      .cell(ms1, 1)
      .cell("-")
      .cell("columns rotated in place");
  t.row()
      .cell("spmd (threads)")
      .cell(static_cast<long long>(spmd.sweeps))
      .cell(ms2, 1)
      .cell(bitwise(spmd) ? "yes" : "NO")
      .cell(std::to_string(threads.messages) + " tagged messages, " + std::to_string(n / 2) +
            " rank threads");
  t.row()
      .cell("spmd (processes)")
      .cell(static_cast<long long>(spmd_proc.sweeps))
      .cell(ms3, 1)
      .cell(bitwise(spmd_proc) ? "yes" : "NO")
      .cell(std::to_string(processes.messages) + " socket messages, " + std::to_string(n / 2) +
            " rank processes");
  std::printf("%s", t.str().c_str());

  std::printf("\nmodeled cost of the %d sweeps on the CM-5-like tree: %zu messages, total %.0f\n"
              "(compute %.0f + communication %.0f), worst channel contention %.2f\n",
              shared.sweeps, cost.messages, cost.total_time, cost.compute_time, cost.comm_time,
              cost.max_contention);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return treesvd::run_tool("machine_comparison", argc, argv, run); }
