#pragma once
// Determinism-oracle digests of SvdResult (tests and the race, chaos and
// launch tools).
//
// The repo's strongest concurrency contract is that the threaded and SPMD
// engines reproduce the serial engine *bitwise* — values, factors, and the
// kernel pass counters. These helpers reduce a result to FNV-1a 64 digests
// so the oracle can compare K perturbed schedules against the serial
// reference with a single integer equality.

#include <cstdint>
#include <string>

#include "svd/jacobi.hpp"

namespace treesvd {

/// Digest of the numerical contract: sigma, U, V (bit patterns), sweep and
/// rotation/swap counts, convergence flag and status. Equal digests mean a
/// bit-identical factorization.
std::uint64_t result_core_digest(const SvdResult& r);

/// Core digest extended with every KernelStats counter — the full
/// schedule-invariance contract (identical work accounting, not just
/// identical numbers).
std::uint64_t result_digest(const SvdResult& r);

/// The first difference between `got` and `want`, as a diagnostic string;
/// empty when the results are bit-identical, which is when both digests
/// match. Names the first differing field (convergence, counts, sigma, U,
/// V), else the digest that differs.
std::string first_divergence(const SvdResult& got, const SvdResult& want);

}  // namespace treesvd
