// Absolute-bits oracle for the plan-driven drivers.
//
// The other bitwise contracts are relative (threaded == serial, lane ==
// sequential), so they would all stay green if every driver changed its bits
// together. This suite pins the drivers to a fixed reference instead: the
// step-major serial loop that the subtree-ordered plans replaced — one
// sweep_from per sweep, steps in order, leaves in order, one PairKernel.
// Because one-sided rotations of disjoint columns commute exactly, every
// plan-driven driver must reproduce it bit for bit: the serial driver, the
// phase-parallel threaded driver at every thread count, and every lane of the
// batched engine, on every ordering and ISA tier. The block driver is pinned
// the same way, to the step-major loop over blocks: its encounters touch
// disjoint column blocks, so they commute too. Each tier is pinned with
// ScopedIsaOverride around the references and the drivers alike.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/registry.hpp"
#include "linalg/dispatch.hpp"
#include "linalg/gemm.hpp"
#include "linalg/generators.hpp"
#include "svd/batch.hpp"
#include "svd/block_jacobi.hpp"
#include "svd/determinism.hpp"
#include "svd/driver_detail.hpp"
#include "svd/equilibrate.hpp"
#include "svd/jacobi.hpp"
#include "svd/pair_kernel.hpp"
#include "util/rng.hpp"

namespace treesvd {
namespace {

/// The step-major serial driver: the sweep schedule rebuilt with sweep_from
/// every sweep and walked step by step, leaf by leaf.
SvdResult step_major_reference(const Matrix& a, const Ordering& ordering,
                               const JacobiOptions& options) {
  const detail::PairKernel kernel(options);
  const int padded_n = detail::require_padded_width(ordering, static_cast<int>(a.cols()));
  Matrix h = detail::pad_columns(a, padded_n);
  detail::SweepGuards guards;
  guards.eq = equilibrate(h, options.equilibrate);
  Matrix v = options.compute_v ? Matrix::identity(static_cast<std::size_t>(padded_n)) : Matrix();
  Matrix* vp = options.compute_v ? &v : nullptr;

  std::vector<int> layout(static_cast<std::size_t>(padded_n));
  std::iota(layout.begin(), layout.end(), 0);

  KernelCounters counters;

  SvdResult r;
  for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
    const Sweep s = ordering.sweep_from(layout, sweep);
    std::size_t sweep_rot = 0;
    std::size_t sweep_swap = 0;
    for (int t = 0; t < s.steps(); ++t) {
      for (const IndexPair& p : s.pairs(t)) {
        const int i = std::min(p.even, p.odd);
        const int j = std::max(p.even, p.odd);
        const detail::PairOutcome o = kernel.process(h, vp, i, j, &counters);
        sweep_rot += o.rotated ? 1 : 0;
        sweep_swap += o.swapped ? 1 : 0;
      }
    }
    const auto fin = s.final_layout();
    layout.assign(fin.begin(), fin.end());
    r.rotations += sweep_rot;
    r.swaps += sweep_swap;
    r.sweeps = sweep + 1;
    if (sweep_rot == 0 && sweep_swap == 0) {
      r.converged = true;
      break;
    }
    guards.stall.observe(static_cast<double>(sweep_rot + sweep_swap));
  }
  r.kernel_stats = counters.snapshot();
  r.kernel_stats.isa_tier = static_cast<int>(kernel.tier());
  return detail::finalize(h, v, a, options.rank_tol, options.full_diagnostics, guards,
                          std::move(r));
}

/// The step-major block driver: block_one_sided_jacobi's schedule rebuilt
/// with sweep_from every outer sweep and walked step by step, leaf by leaf,
/// each met block pair through the same inner panel solver. Empty result
/// when the ordering cannot pad to a block count.
std::optional<SvdResult> step_major_block_reference(const Matrix& a, const Ordering& ordering,
                                                    const BlockJacobiOptions& options) {
  const int b = options.block_width;
  const int nb = padded_width(ordering, (static_cast<int>(a.cols()) + b - 1) / b);
  if (nb == 0) return std::nullopt;
  const int padded_n = nb * b;
  Matrix h = detail::pad_columns(a, padded_n);
  detail::SweepGuards guards;
  guards.eq = equilibrate(h, options.equilibrate);
  Matrix v = options.compute_v ? Matrix::identity(static_cast<std::size_t>(padded_n)) : Matrix();
  Matrix* vp = options.compute_v ? &v : nullptr;
  ThreadPool* pool = gemm_pool();

  std::vector<int> layout(static_cast<std::size_t>(nb));
  std::iota(layout.begin(), layout.end(), 0);

  KernelCounters counters;

  SvdResult r;
  for (int sweep = 0; sweep < options.max_outer_sweeps; ++sweep) {
    const Sweep s = ordering.sweep_from(layout, sweep);
    std::size_t sweep_rot = 0;
    std::size_t sweep_swap = 0;
    for (int t = 0; t < s.steps(); ++t) {
      for (const IndexPair& p : s.pairs(t)) {
        std::vector<int> cols;
        for (const int blk : {std::min(p.even, p.odd), std::max(p.even, p.odd)})
          for (int i = 0; i < b; ++i) cols.push_back(blk * b + i);
        const detail::InnerPanelStats stats =
            detail::inner_orthogonalise_gram(h, vp, cols, options, counters, pool);
        sweep_rot += stats.rotations;
        sweep_swap += stats.swaps;
      }
    }
    const auto fin = s.final_layout();
    layout.assign(fin.begin(), fin.end());
    r.rotations += sweep_rot;
    r.swaps += sweep_swap;
    r.sweeps = sweep + 1;
    if (sweep_rot == 0 && sweep_swap == 0) {
      r.converged = true;
      break;
    }
    guards.stall.observe(static_cast<double>(sweep_rot + sweep_swap));
  }
  r.kernel_stats = counters.snapshot();
  r.kernel_stats.isa_tier = static_cast<int>(kernels().tier);
  return detail::finalize(h, v, a, options.rank_tol, options.full_diagnostics, guards,
                          std::move(r));
}

struct Shape {
  std::size_t rows;
  std::size_t cols;
};

// Square, padded (30 columns run at the ordering's next supported width),
// and tall.
constexpr Shape kShapes[] = {{32, 32}, {300, 30}, {512, 64}};

using Param = std::tuple<std::string, int>;

class PlanOracle : public ::testing::TestWithParam<Param> {};

TEST_P(PlanOracle, DriversMatchStepMajorReference) {
  const OrderingPtr ord = make_ordering(std::get<0>(GetParam()));
  const Shape shape = kShapes[std::get<1>(GetParam())];
  Rng rng(20261017 + shape.cols);
  std::vector<Matrix> inputs;
  for (int b = 0; b < 3; ++b) inputs.push_back(random_gaussian(shape.rows, shape.cols, rng));

  for (const IsaTier tier : {IsaTier::kBaseline, IsaTier::kAvx2, IsaTier::kAvx512}) {
    if (!isa_supported(tier)) continue;
    SCOPED_TRACE(std::string("tier=") + isa_name(tier));
    const ScopedIsaOverride isa_guard(static_cast<int>(tier));
    const JacobiOptions opt;

    std::vector<std::uint64_t> want;
    for (const Matrix& a : inputs)
      want.push_back(result_core_digest(step_major_reference(a, *ord, opt)));

    EXPECT_EQ(result_core_digest(one_sided_jacobi(inputs[0], *ord, opt)), want[0])
        << "one_sided_jacobi";
    // 1 thread runs the depth-0 plan, 2 threads depth 2, 3 and 4 threads
    // depth 3 (two subtrees per thread).
    for (const unsigned threads : {1U, 2U, 3U, 4U})
      EXPECT_EQ(result_core_digest(one_sided_jacobi_threaded(inputs[0], *ord, opt, threads)),
                want[0])
          << "one_sided_jacobi_threaded, " << threads << " threads";

    BatchedSvdOptions bopt;
    bopt.jacobi = opt;
    BatchedSvd engine(shape.rows, shape.cols, *ord, bopt);
    const std::vector<SvdResult> lanes = engine.solve(inputs);
    for (std::size_t b = 0; b < lanes.size(); ++b)
      EXPECT_EQ(result_core_digest(lanes[b]), want[b]) << "BatchedSvd lane " << b;
  }
}

TEST_P(PlanOracle, BlockDriverMatchesStepMajorReference) {
  const OrderingPtr ord = make_ordering(std::get<0>(GetParam()));
  const Shape shape = kShapes[std::get<1>(GetParam())];
  Rng rng(20261018 + shape.cols);
  const Matrix a = random_gaussian(shape.rows, shape.cols, rng);

  for (const IsaTier tier : {IsaTier::kBaseline, IsaTier::kAvx2, IsaTier::kAvx512}) {
    if (!isa_supported(tier)) continue;
    SCOPED_TRACE(std::string("tier=") + isa_name(tier));
    const ScopedIsaOverride isa_guard(static_cast<int>(tier));
    const BlockJacobiOptions opt;
    const std::optional<SvdResult> want = step_major_block_reference(a, *ord, opt);
    if (!want) continue;  // no supported block count for this shape
    EXPECT_EQ(result_digest(block_one_sided_jacobi(a, *ord, opt)), result_digest(*want));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, PlanOracle,
    ::testing::Combine(::testing::ValuesIn(ordering_names({2, 4, 8})), ::testing::Values(0, 1, 2)),
    [](const ::testing::TestParamInfo<Param>& param_info) {
      const Shape shape = kShapes[std::get<1>(param_info.param)];
      std::string name = std::get<0>(param_info.param) + "_" + std::to_string(shape.rows) + "x" +
                         std::to_string(shape.cols);
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

}  // namespace
}  // namespace treesvd
