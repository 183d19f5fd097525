// Interactive ordering explorer: print any ordering's sweep, its validation,
// movement statistics and per-level communication profile.
//
//   ./ordering_explorer [--ordering=fat-tree] [--n=16] [--sweeps=2]
#include <algorithm>
#include <cstdio>
#include <numeric>

#include "treesvd.hpp"

namespace {

using namespace treesvd;

int run(int argc, const char* const* argv) {
  const Cli cli(argc, argv);
  cli.require_known({"ordering", "n", "sweeps"});
  const std::string name = cli.get("ordering", "fat-tree");
  const int n = cli.get_size("n", 16);
  const int sweeps = cli.get_size("sweeps", 2);

  const auto ordering = make_ordering(name);
  if (!ordering->supports(n)) {
    std::printf("%s does not support n = %d\n", name.c_str(), n);
    return 1;
  }

  std::printf("ordering %s, n = %d (%d leaf processors), %d steps per sweep\n\n", name.c_str(), n,
              n / 2, ordering->steps(n));

  std::vector<int> layout(static_cast<std::size_t>(n));
  std::iota(layout.begin(), layout.end(), 0);
  for (int k = 0; k < sweeps; ++k) {
    const Sweep s = ordering->sweep_from(layout, k);
    std::printf("sweep %d:\n", k + 1);
    for (int t = 0; t < s.steps(); ++t) {
      std::printf("  step %2d:", t + 1);
      for (const IndexPair& p : s.pairs(t)) std::printf(" (%d,%d)", p.even + 1, p.odd + 1);
      int deepest = 0;
      for (const ColumnMove& mv : s.moves(t))
        deepest = std::max(deepest, comm_level(mv.from_slot, mv.to_slot));
      std::printf("   -> move level %d\n", deepest);
    }
    const SweepValidation v = validate_sweep(s);
    const auto hist = level_histogram(s);
    std::printf("  valid sweep: %s;  transfers per level:", v.valid ? "yes" : v.error.c_str());
    for (std::size_t l = 1; l < hist.size(); ++l) std::printf(" L%zu:%zu", l, hist[l]);
    std::printf(";  unidirectional ring: %s\n", unidirectional_ring_moves(s) ? "yes" : "no");
    const auto fin = s.final_layout();
    std::printf("  layout after sweep:");
    for (int idx : fin) std::printf(" %d", idx + 1);
    std::printf("\n\n");
    layout.assign(fin.begin(), fin.end());
  }

  const bool restored = std::is_sorted(layout.begin(), layout.end());
  std::printf("original order restored after %d sweep(s): %s\n", sweeps,
              restored ? "yes" : "no");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return treesvd::run_tool("ordering_explorer", argc, argv, run); }
