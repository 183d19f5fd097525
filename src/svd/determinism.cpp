#include "svd/determinism.hpp"

#include "analysis/digest.hpp"

namespace treesvd {
namespace {

void add_core(analysis::Fnv1a& h, const SvdResult& r) {
  h.add_u64(r.u.rows());
  h.add_u64(r.u.cols());
  h.add_doubles(r.u.data());
  h.add_u64(r.sigma.size());
  h.add_doubles({r.sigma.data(), r.sigma.size()});
  h.add_u64(r.v.rows());
  h.add_u64(r.v.cols());
  h.add_doubles(r.v.data());
  h.add_u64(static_cast<std::uint64_t>(r.sweeps));
  h.add_u64(r.converged ? 1 : 0);
  h.add_u64(r.rotations);
  h.add_u64(r.swaps);
  h.add_u64(static_cast<std::uint64_t>(r.status));
}

}  // namespace

std::uint64_t result_core_digest(const SvdResult& r) {
  analysis::Fnv1a h;
  add_core(h, r);
  return h.value();
}

std::uint64_t result_digest(const SvdResult& r) {
  analysis::Fnv1a h;
  add_core(h, r);
  const KernelStats& k = r.kernel_stats;
  h.add_u64(k.pairs);
  h.add_u64(k.dot_passes);
  h.add_u64(k.gram_passes);
  h.add_u64(k.rotate_passes);
  h.add_u64(k.norm_refreshes);
  h.add_u64(k.gram_builds);
  h.add_u64(k.accum_rotations);
  h.add_u64(k.blocked_applies);
  return h.value();
}

std::string first_divergence(const SvdResult& got, const SvdResult& want) {
  if (got.converged != want.converged) return "converged flag differs";
  if (got.sweeps != want.sweeps)
    return "sweeps " + std::to_string(got.sweeps) + " != " + std::to_string(want.sweeps);
  if (got.rotations != want.rotations) return "rotation count differs";
  if (got.swaps != want.swaps) return "swap count differs";
  if (got.sigma.size() != want.sigma.size()) return "sigma length differs";
  for (std::size_t k = 0; k < want.sigma.size(); ++k)
    if (got.sigma[k] != want.sigma[k]) return "sigma[" + std::to_string(k) + "] differs bitwise";
  if (!(got.u == want.u)) return "U differs bitwise";
  if (!(got.v == want.v)) return "V differs bitwise";
  if (result_core_digest(got) != result_core_digest(want)) return "core digest differs";
  if (result_digest(got) != result_digest(want))
    return "kernel pass counters differ (full digest)";
  return {};
}

}  // namespace treesvd
