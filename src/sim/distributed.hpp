#pragma once
// Distributed execution machine: the closest in-repo analogue to the paper's
// CM-5/CMMD implementation.
//
// Unlike the shared-memory SVD drivers (svd/jacobi.hpp), which rotate columns
// in place and only *model* communication, this machine physically owns each
// column on a leaf processor: every inter-leaf move serialises the column
// into a message, routes it through the fat-tree (accumulating modeled time
// and contention), and delivers it before the next step may use it. A
// rotation asserts that both of its columns are resident on the executing
// leaf — so running it end-to-end proves an ordering's schedule is physically
// executable with exactly the communication it claims.

#include <cstddef>
#include <vector>

#include "core/ordering.hpp"
#include "linalg/matrix.hpp"
#include "network/topology.hpp"
#include "network/traffic.hpp"
#include "sim/machine.hpp"
#include "svd/jacobi.hpp"

namespace treesvd {

/// Result of a distributed run: the numerical SVD plus the machine costs
/// actually incurred executing it.
struct DistributedResult {
  SvdResult svd;
  SweepCost cost;  ///< accumulated over all executed sweeps
};

/// Executes the one-sided Jacobi SVD on a simulated distributed tree machine.
///
/// Each of the n/2 leaves owns two column slots of A (and of V when
/// requested). Steps are barrier-synchronous: all leaves rotate their
/// resident pair, then the transition's column moves travel as messages
/// priced by the topology's contention model. Numerical results are
/// bit-identical to one_sided_jacobi with the same ordering and options
/// (verified by tests); the machine additionally reports the real
/// communication cost of the run.
///
/// Requires ordering.supports(a.cols()) — the distributed machine does not
/// pad (a physical machine has a fixed processor count).
///
/// The machine is single-threaded and has no transport, so it meets no
/// faults; kill and rollback over real processes are spmd_jacobi's
/// (svd/spmd.hpp, SpmdTransport).
DistributedResult distributed_jacobi(const Matrix& a, const Ordering& ordering,
                                     const FatTreeTopology& topology,
                                     const JacobiOptions& options = {},
                                     const CostParams& params = {});

}  // namespace treesvd
