#pragma once
// treesvd — parallel one-sided Jacobi SVD with tree-architecture orderings.
//
// Umbrella header: pulls in the full public API.
//
//   Matrix a = random_gaussian(256, 128, rng);
//   SvdResult r = one_sided_jacobi(a, *make_ordering("fat-tree"));
//   // r.sigma is nonincreasing; a ~= r.u * diag(r.sigma) * r.v^T
//
// Reproduction of: Zhou & Brent, "Parallel Computation of the Singular Value
// Decomposition on Tree Architectures", ICPP 1993.

#include "core/block_ring.hpp"   // IWYU pragma: export
#include "core/fat_tree.hpp"     // IWYU pragma: export
#include "core/hybrid.hpp"       // IWYU pragma: export
#include "core/new_ring.hpp"     // IWYU pragma: export
#include "core/odd_even.hpp"     // IWYU pragma: export
#include "core/ordering.hpp"     // IWYU pragma: export
#include "core/registry.hpp"     // IWYU pragma: export
#include "core/round_robin.hpp"  // IWYU pragma: export
#include "core/sweep_plan.hpp"  // IWYU pragma: export
#include "core/validate.hpp"     // IWYU pragma: export
#include "linalg/blas1.hpp"      // IWYU pragma: export
#include "linalg/generators.hpp" // IWYU pragma: export
#include "linalg/golub_kahan.hpp"  // IWYU pragma: export
#include "linalg/matrix.hpp"     // IWYU pragma: export
#include "linalg/qr.hpp"         // IWYU pragma: export
#include "linalg/rotation.hpp"   // IWYU pragma: export
#include "mp/fault.hpp"          // IWYU pragma: export
#include "mp/message_passing.hpp"  // IWYU pragma: export
#include "network/topology.hpp"  // IWYU pragma: export
#include "network/traffic.hpp"   // IWYU pragma: export
#include "sim/machine.hpp"       // IWYU pragma: export
#include "svd/block_jacobi.hpp"  // IWYU pragma: export
#include "svd/jacobi.hpp"        // IWYU pragma: export
#include "svd/kogbetliantz.hpp"  // IWYU pragma: export
#include "svd/preconditioned.hpp"  // IWYU pragma: export
#include "svd/recovery.hpp"      // IWYU pragma: export
#include "svd/spmd.hpp"          // IWYU pragma: export
#include "util/cli.hpp"          // IWYU pragma: export
#include "util/rng.hpp"          // IWYU pragma: export
#include "util/table.hpp"        // IWYU pragma: export
#include "util/timer.hpp"        // IWYU pragma: export
