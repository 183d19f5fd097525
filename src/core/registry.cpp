#include "core/registry.hpp"

#include <cstdlib>

#include "core/block_ring.hpp"
#include "core/fat_tree.hpp"
#include "core/hybrid.hpp"
#include "core/new_ring.hpp"
#include "core/odd_even.hpp"
#include "core/round_robin.hpp"
#include "util/require.hpp"

namespace treesvd {

OrderingPtr make_ordering(const std::string& name) {
  if (name == "round-robin") return std::make_shared<RoundRobinOrdering>();
  if (name == "odd-even") return std::make_shared<OddEvenOrdering>();
  if (name == "fat-tree") return std::make_shared<FatTreeOrdering>();
  if (name == "llb-fat-tree") return std::make_shared<LlbFatTreeOrdering>();
  if (name == "new-ring") return std::make_shared<NewRingOrdering>();
  if (name == "modified-ring") return std::make_shared<ModifiedRingOrdering>();
  if (name.rfind("block-ring-g", 0) == 0) {
    const int groups = std::atoi(name.c_str() + 12);
    TREESVD_REQUIRE(groups > 0, "bad block-ring group count in ordering name: " + name);
    return std::make_shared<BlockRingOrdering>(groups);
  }
  if (name.rfind("hybrid-g", 0) == 0) {
    const int groups = std::atoi(name.c_str() + 8);
    TREESVD_REQUIRE(groups > 0, "bad hybrid group count in ordering name: " + name);
    return std::make_shared<HybridOrdering>(groups);
  }
  TREESVD_REQUIRE(false, "unknown ordering '" + name +
                             "' (known: round-robin, odd-even, fat-tree, llb-fat-tree, new-ring, "
                             "modified-ring, hybrid-g<N>, block-ring-g<N>)");
  return nullptr;  // unreachable
}

std::vector<std::string> ordering_names(const std::vector<int>& hybrid_groups) {
  std::vector<std::string> names = {"round-robin", "odd-even",  "fat-tree",
                                    "llb-fat-tree", "new-ring", "modified-ring"};
  for (int g : hybrid_groups) names.push_back("hybrid-g" + std::to_string(g));
  for (int g : hybrid_groups) names.push_back("block-ring-g" + std::to_string(g));
  return names;
}

}  // namespace treesvd
