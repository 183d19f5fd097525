// Three execution models, one schedule: runs the same SVD through
//   1. the shared-memory engine (one_sided_jacobi),
//   2. the step-synchronous distributed machine (columns owned by leaves,
//      transfers as routed messages with modeled contention),
//   3. the SPMD program over the message-passing runtime (one thread per
//      leaf, dataflow synchronisation only),
// and verifies they agree bit for bit — the ordering's schedule, not the
// runtime, determines the numerics.
//
//   ./machine_comparison [--n=32] [--rows=64] [--ordering=hybrid-g4]
#include <cstdio>

#include "treesvd.hpp"

int main(int argc, char** argv) {
  using namespace treesvd;
  const Cli cli(argc, argv);
  const int n = static_cast<int>(cli.get_int("n", 32));
  const auto rows = static_cast<std::size_t>(cli.get_int("rows", 2 * n));
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

  const FatTreeTopology topo(n / 2, CapacityProfile::kCm5);
  Timer t2;
  const DistributedResult dist = distributed_jacobi(a, *ord, topo);
  const double ms2 = t2.millis();

  Timer t3;
  SpmdStats stats;
  const SvdResult spmd = spmd_jacobi(a, *ord, {}, &stats);
  const double ms3 = t3.millis();

  auto bitwise = [&](const SvdResult& x) {
    if (x.sigma.size() != shared.sigma.size()) return false;
    for (std::size_t k = 0; k < x.sigma.size(); ++k)
      if (x.sigma[k] != shared.sigma[k]) return false;
    return x.u == shared.u && x.v == shared.v;
  };

  Table t({"model", "sweeps", "wall ms", "bitwise == shared", "notes"});
  t.row()
      .cell("shared-memory")
      .cell(static_cast<long long>(shared.sweeps))
      .cell(ms1, 1)
      .cell("-")
      .cell("columns rotated in place");
  t.row()
      .cell("distributed")
      .cell(static_cast<long long>(dist.svd.sweeps))
      .cell(ms2, 1)
      .cell(bitwise(dist.svd) ? "yes" : "NO")
      .cell(std::to_string(dist.cost.messages) + " routed messages, contention " +
            std::to_string(dist.cost.max_contention).substr(0, 4));
  t.row()
      .cell("spmd (threads)")
      .cell(static_cast<long long>(spmd.sweeps))
      .cell(ms3, 1)
      .cell(bitwise(spmd) ? "yes" : "NO")
      .cell(std::to_string(stats.messages) + " tagged messages, " + std::to_string(n / 2) +
            " ranks");
  std::printf("%s", t.str().c_str());

  std::printf("\nmodeled cost of the distributed run on the CM-5-like tree: total %.0f\n"
              "(compute %.0f + communication %.0f), worst channel contention %.2f\n",
              dist.cost.total_time, dist.cost.compute_time, dist.cost.comm_time,
              dist.cost.max_contention);
  return (bitwise(dist.svd) && bitwise(spmd)) ? 0 : 1;
}
