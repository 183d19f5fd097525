#pragma once
// The engine table: every SVD engine of the library behind one signature,
// read by treesvd_torture, treesvd_race and the engine-sweep tests, so an
// engine is added or deleted in one place. Each entry carries only the
// flags some consumer reads. The first entry, serial, is the reference every
// bitwise_serial entry reproduces.

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "svd/batch.hpp"
#include "svd/block_jacobi.hpp"
#include "svd/determinism.hpp"
#include "svd/jacobi.hpp"
#include "svd/kogbetliantz.hpp"
#include "svd/preconditioned.hpp"
#include "svd/spmd.hpp"
#include "util/thread_pool.hpp"

namespace treesvd {

struct EngineEntry {
  const char* name;
  /// `threads` sizes the engine's pool where it has one (0 = hardware
  /// concurrency); the others ignore it.
  SvdResult (*solve)(const Matrix& a, const Ordering& ordering, const JacobiOptions& options,
                     unsigned threads);
  bool bitwise_serial;  ///< reproduces one_sided_jacobi bit for bit
  bool square_only;     ///< two-sided: needs m == n
  /// Columns per unit the ordering schedules: 1, or the block width (the
  /// block driver schedules ceil(n/b) blocks).
  int unit_width;
};

inline const EngineEntry kEngines[] = {
    {"serial",
     [](const Matrix& a, const Ordering& ord, const JacobiOptions& opt, unsigned) {
       return one_sided_jacobi(a, ord, opt);
     },
     true, false, 1},
    {"threaded",
     [](const Matrix& a, const Ordering& ord, const JacobiOptions& opt, unsigned threads) {
       return one_sided_jacobi_threaded(a, ord, opt, threads);
     },
     true, false, 1},
    // Five copies of the input over two shards of four lanes on one pool:
    // every lane must digest equal to lane 0 (same input, same schedule), and
    // lane 0 is the entry's result.
    {"batched",
     [](const Matrix& a, const Ordering& ord, const JacobiOptions& opt, unsigned threads) {
       BatchedSvdOptions bopt;
       bopt.jacobi = opt;
       bopt.lane_width = 4;
       BatchedSvd engine(a.rows(), a.cols(), ord, bopt);
       const std::vector<Matrix> inputs(5, a);
       ThreadPool pool(threads);
       std::vector<SvdResult> rs = engine.solve({inputs.data(), inputs.size()}, &pool);
       for (std::size_t b = 1; b < rs.size(); ++b)
         if (result_digest(rs[b]) != result_digest(rs.front()))
           throw std::runtime_error("batched lane " + std::to_string(b) +
                                    " diverged from lane 0 on identical input");
       return std::move(rs.front());
     },
     true, false, 1},
    {"block-gram",
     [](const Matrix& a, const Ordering& ord, const JacobiOptions& opt, unsigned) {
       BlockJacobiOptions bopt;
       bopt.block_width = 2;
       bopt.tol = opt.tol;
       bopt.max_outer_sweeps = opt.max_sweeps;
       bopt.sort = opt.sort;
       bopt.compute_v = opt.compute_v;
       bopt.rank_tol = opt.rank_tol;
       bopt.equilibrate = opt.equilibrate;
       bopt.full_diagnostics = opt.full_diagnostics;
       return block_one_sided_jacobi(a, ord, bopt);
     },
     false, false, 2},
    {"preconditioned",
     [](const Matrix& a, const Ordering& ord, const JacobiOptions& opt, unsigned) {
       return qr_preconditioned_jacobi(a, ord, opt);
     },
     false, false, 1},
    {"spmd",
     [](const Matrix& a, const Ordering& ord, const JacobiOptions& opt, unsigned) {
       return spmd_jacobi(a, ord, opt);
     },
     true, false, 1},
    {"kogbetliantz",
     [](const Matrix& a, const Ordering& ord, const JacobiOptions& opt, unsigned) {
       return kogbetliantz_svd(a, ord, opt);
     },
     false, true, 1},
};

/// The one report format of a result digest: 16 lowercase hex digits.
inline std::string hex_digest(std::uint64_t d) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(d));
  return buf;
}

}  // namespace treesvd
