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
#include "mp/fault.hpp"
#include "network/topology.hpp"
#include "network/traffic.hpp"
#include "sim/machine.hpp"
#include "svd/jacobi.hpp"
#include "svd/recovery.hpp"

namespace treesvd {

/// Result of a distributed run: the numerical SVD plus the machine costs
/// actually incurred executing it.
struct DistributedResult {
  SvdResult svd;
  SweepCost cost;         ///< accumulated over all executed sweeps
  std::size_t delivered_messages = 0;
  double delivered_words = 0.0;
  mp::RecoveryStats recovery;  ///< fault/checkpoint counters (chaos runs only)
};

/// Chaos configuration for the step-synchronous machine. The simulator has
/// no real transport underneath it, so the one fault that makes sense for a
/// barrier-synchronous exchange is honoured:
///  * kill_rank / kill_at_op — the machine dies at that 0-based executed
///    communication step; with checkpointing the run rolls back to the last
///    sweep boundary and replays bit-identically.
/// Any drop / duplicate / corrupt / delay / resend probability is rejected —
/// those need the real message transport (use spmd_jacobi with
/// SpmdTransport).
struct DistributedChaos {
  mp::FaultPlan faults;
  RecoveryOptions recovery;
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
DistributedResult distributed_jacobi(const Matrix& a, const Ordering& ordering,
                                     const FatTreeTopology& topology,
                                     const JacobiOptions& options = {},
                                     const CostParams& params = {},
                                     const DistributedChaos* chaos = nullptr);

}  // namespace treesvd
