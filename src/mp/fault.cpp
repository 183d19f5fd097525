#include "mp/fault.hpp"

#include <sstream>

namespace treesvd::mp {

bool FaultInjector::should_kill(int rank, std::uint64_t op) {
  if (plan_.kill_rank != rank || plan_.kill_at_op != op) return false;
  bool expected = false;
  return kill_fired_.compare_exchange_strong(expected, true);
}

std::string to_json(const RecoveryStats& s) {
  std::ostringstream os;
  os << "{\"kills\": " << s.kills << ", \"checkpoints\": " << s.checkpoints
     << ", \"rollbacks\": " << s.rollbacks << "}";
  return os.str();
}

std::string unfired_kill(const FaultPlan& plan, const RecoveryStats& stats) {
  if (plan.kill_rank < 0 || (stats.kills >= 1 && stats.rollbacks >= 1))
    return {};
  return "planned kill of rank " + std::to_string(plan.kill_rank) + " at op " +
         std::to_string(plan.kill_at_op) + " did not fire and roll back (kills " +
         std::to_string(stats.kills) + ", rollbacks " + std::to_string(stats.rollbacks) + ")";
}

}  // namespace treesvd::mp
