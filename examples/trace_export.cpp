// Schedule/traffic trace export: dumps an ordering's full sweep as CSV —
// one row per (step, pair) and one per (transition, message with its route
// level) — for offline analysis or plotting, plus a per-transition channel
// utilisation summary on a chosen topology.
//
//   ./trace_export --ordering=fat-tree --n=16 [--topology=cm5|perfect|binary]
//                  [--out=trace.csv]
//
// Exits 2 when the CSV cannot be written.
#include <cstdio>
#include <sstream>

#include "treesvd.hpp"
#include "util/text_file.hpp"

namespace {

using namespace treesvd;

int run(int argc, const char* const* argv) {
  const Cli cli(argc, argv);
  cli.require_known({"ordering", "n", "topology", "out"});
  const std::string name = cli.get("ordering", "fat-tree");
  const int n = cli.get_size("n", 16);
  const std::string topo_name = cli.get("topology", "cm5");
  const std::string out_path = cli.get("out", "trace.csv");
  CapacityProfile profile = CapacityProfile::kCm5;
  if (topo_name == "perfect") {
    profile = CapacityProfile::kPerfect;
  } else if (topo_name == "binary") {
    profile = CapacityProfile::kConstant;
  } else if (topo_name != "cm5") {
    throw CliError("--topology expects cm5, perfect or binary, got: '" + topo_name + "'");
  }

  const auto ord = make_ordering(name);
  if (!ord->supports(n)) {
    std::printf("%s does not support n=%d\n", name.c_str(), n);
    return 1;
  }
  const FatTreeTopology topo(n / 2, profile);

  const Sweep s = ord->sweep(n);
  std::ostringstream out;
  out << "record,step,kind,a,b,level\n";
  std::size_t pair_rows = 0;
  std::size_t move_rows = 0;
  for (int t = 0; t < s.steps(); ++t) {
    for (const IndexPair& p : s.pairs(t)) {
      out << "pair," << t + 1 << ",rotate," << p.even + 1 << "," << p.odd + 1 << ",0\n";
      ++pair_rows;
    }
    for (const ColumnMove& mv : s.moves(t)) {
      const int lvl = comm_level(mv.from_slot, mv.to_slot);
      out << "move," << t + 1 << ",transfer," << mv.index + 1 << "," << mv.to_slot / 2 << ","
          << lvl << "\n";
      ++move_rows;
    }
  }
  if (!write_text_file(out_path, out.str())) return 2;

  std::printf("trace of %s (n=%d) written to %s: %zu rotations, %zu column moves\n",
              name.c_str(), n, out_path.c_str(), pair_rows, move_rows);

  // Per-transition channel summary on the chosen topology.
  std::printf("\nper-transition peak channel load on %s (words, column = %d words):\n",
              to_string(profile).c_str(), n);
  for (int t = 0; t < s.steps(); ++t) {
    TrafficStep step(topo);
    for (const ColumnMove& mv : s.moves(t)) {
      if (mv.from_slot / 2 == mv.to_slot / 2) continue;
      step.add({mv.from_slot / 2, mv.to_slot / 2, static_cast<double>(n)});
    }
    const StepTraffic st = step.finish(0.0);
    std::printf("  t%02d: msgs=%3zu deepest=L%d peak=%5.0f contention=%.2f\n", t + 1,
                st.messages, st.max_level, st.max_channel_load, st.max_contention);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return treesvd::run_tool("trace_export", argc, argv, run); }
