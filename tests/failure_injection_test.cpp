// Failure injection: every public entry point must reject malformed input
// with std::invalid_argument (TREESVD_REQUIRE), never crash or silently
// accept it.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "treesvd.hpp"

namespace treesvd {
namespace {

TEST(FailureInjection, SweepConstructorRejectsBadLayouts) {
  // Not a permutation.
  EXPECT_THROW(Sweep({{0, 1, 2, 2}, {0, 1, 2, 3}}, {}), std::invalid_argument);
  // Out-of-range entry.
  EXPECT_THROW(Sweep({{0, 1, 2, 7}, {0, 1, 2, 3}}, {}), std::invalid_argument);
  // Ragged layouts.
  EXPECT_THROW(Sweep({{0, 1, 2, 3}, {0, 1}}, {}), std::invalid_argument);
  // Too few layouts.
  EXPECT_THROW(Sweep({{0, 1, 2, 3}}, {}), std::invalid_argument);
  // Odd number of indices.
  EXPECT_THROW(Sweep({{0, 1, 2}, {0, 1, 2}}, {}), std::invalid_argument);
  // Wrong activity mask shape.
  EXPECT_THROW(Sweep({{0, 1, 2, 3}, {0, 1, 2, 3}}, {{1, 1, 1}}), std::invalid_argument);
  EXPECT_THROW(Sweep({{0, 1, 2, 3}, {0, 1, 2, 3}}, {{1, 1}, {1, 1}}), std::invalid_argument);
}

TEST(FailureInjection, SweepAccessorsRangeCheck) {
  const Sweep s = RoundRobinOrdering().sweep(8);
  EXPECT_THROW(s.layout(-1), std::invalid_argument);
  EXPECT_THROW(s.layout(s.steps() + 1), std::invalid_argument);
  EXPECT_THROW(s.pairs(s.steps()), std::invalid_argument);
  EXPECT_THROW(s.moves(s.steps()), std::invalid_argument);
  EXPECT_THROW(s.leaf_active(0, 99), std::invalid_argument);
}

TEST(FailureInjection, OrderingSizeChecks) {
  EXPECT_THROW(RoundRobinOrdering().sweep(3), std::invalid_argument);
  EXPECT_THROW(FatTreeOrdering().sweep(12), std::invalid_argument);
  EXPECT_THROW(HybridOrdering(4).sweep(12), std::invalid_argument);
  std::vector<int> layout = {0, 1, 2};
  EXPECT_THROW(RoundRobinOrdering().sweep_from(layout), std::invalid_argument);
}

TEST(FailureInjection, SvdEnginesRejectWideAndTiny) {
  Rng rng(1);
  const Matrix wide = random_gaussian(3, 6, rng);
  const Matrix tiny = random_gaussian(5, 1, rng);
  const auto ord = make_ordering("round-robin");
  EXPECT_THROW(one_sided_jacobi(wide, *ord), std::invalid_argument);
  EXPECT_THROW(one_sided_jacobi_threaded(wide, *ord), std::invalid_argument);
  EXPECT_THROW(spmd_jacobi(wide, *ord), std::invalid_argument);
  EXPECT_THROW(qr_preconditioned_jacobi(wide, *ord), std::invalid_argument);
  EXPECT_THROW(block_one_sided_jacobi(wide, *ord), std::invalid_argument);
  EXPECT_THROW(one_sided_jacobi(tiny, *ord), std::invalid_argument);
}

TEST(FailureInjection, NetworkChecks) {
  EXPECT_THROW(FatTreeTopology(5, CapacityProfile::kCm5), std::invalid_argument);
  const FatTreeTopology t(8, CapacityProfile::kPerfect);
  EXPECT_THROW(t.capacity(0), std::invalid_argument);
  EXPECT_THROW(t.capacity(4), std::invalid_argument);
  EXPECT_THROW(t.edges_at_level(0), std::invalid_argument);
  EXPECT_THROW(t.edge_index(8, 1), std::invalid_argument);
  TrafficStep step(t);
  EXPECT_THROW(step.add({-1, 0, 1.0}), std::invalid_argument);
  EXPECT_THROW(step.add({0, 9, 1.0}), std::invalid_argument);
}

TEST(FailureInjection, QrChecks) {
  EXPECT_THROW(HouseholderQr(Matrix(2, 4)), std::invalid_argument);
  Rng rng(3);
  const Matrix a = random_gaussian(6, 3, rng);
  const HouseholderQr qr(a);
  Matrix wrong_rows(5, 2);
  EXPECT_THROW(qr.apply_q(wrong_rows), std::invalid_argument);
  EXPECT_THROW(qr.apply_qt(wrong_rows), std::invalid_argument);
}

TEST(FailureInjection, MachineModelChecks) {
  const auto ord = make_ordering("round-robin");
  const FatTreeTopology t(4, CapacityProfile::kPerfect);
  EXPECT_THROW(model_run(*ord, t, 16, CostParams{}, 1), std::invalid_argument);  // 16/2 != 4
  EXPECT_THROW(model_run(*ord, t, 7, CostParams{}, 1), std::invalid_argument);   // unsupported n
}

TEST(FailureInjection, MessagePassingChecks) {
  EXPECT_THROW(mp::World(0), std::invalid_argument);
  mp::World world(2);
  EXPECT_THROW(world.run([](mp::Context& ctx) {
                 if (ctx.rank() == 0) ctx.send(5, 0, {1.0});  // bad destination
               }),
               std::invalid_argument);
}

TEST(FailureInjection, FaultPlanValidation) {
  // Probabilities must be sane individually and as a partition of [0, 1).
  {
    mp::World world(2);
    mp::FaultPlan plan;
    plan.drop_prob = -0.1;
    EXPECT_THROW(world.set_fault_plan(plan), std::invalid_argument);
    plan.drop_prob = 0.7;
    plan.duplicate_prob = 0.5;  // sums past 1
    EXPECT_THROW(world.set_fault_plan(plan), std::invalid_argument);
  }
  // The rank-kill target must exist in this world.
  {
    mp::World world(2);
    mp::FaultPlan plan;
    plan.kill_rank = 7;
    EXPECT_THROW(world.set_fault_plan(plan), std::invalid_argument);
  }
  // The reliable transport's retry budget must be positive; message faults
  // need no other switch.
  {
    mp::World world(2);
    mp::FaultPlan plan;
    plan.drop_prob = 0.1;
    plan.max_retries = 0;
    EXPECT_THROW(world.set_fault_plan(plan), std::invalid_argument);
    plan.max_retries = 1;
    EXPECT_NO_THROW(world.set_fault_plan(plan));
  }
}

TEST(FailureInjection, RecoveryGuardChecks) {
  Rng rng(5);
  Matrix a = random_gaussian(8, 4, rng);
  a(2, 1) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(require_finite_columns(a, "engine"), std::invalid_argument);
  const std::vector<double> poisoned = {1.0, std::numeric_limits<double>::infinity()};
  EXPECT_THROW(require_finite_payload(poisoned, 3, "engine"), std::invalid_argument);
}

TEST(FailureInjection, GeneratorChecks) {
  Rng rng(4);
  EXPECT_THROW(with_spectrum(10, 4, {1.0, 2.0}, rng), std::invalid_argument);
  EXPECT_THROW(geometric_spectrum(5, 0.1), std::invalid_argument);
  EXPECT_THROW(rank_deficient(10, 4, 9, rng), std::invalid_argument);
}

}  // namespace
}  // namespace treesvd
