#include "svd/kogbetliantz.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "svd/equilibrate.hpp"
#include "svd/recovery.hpp"
#include "util/require.hpp"

namespace treesvd {
namespace {

struct Staged {
  int i;
  int j;
  TwoSidedRotation rot;
};

double off_fraction(const Matrix& a) {
  double off = 0.0;
  double total = 0.0;
  for (std::size_t j = 0; j < a.cols(); ++j) {
    for (std::size_t i = 0; i < a.rows(); ++i) {
      const double x = a(i, j);
      total += x * x;
      if (i != j) off += x * x;
    }
  }
  return total == 0.0 ? 0.0 : std::sqrt(off / total);
}

}  // namespace

TwoSidedRotation two_sided_rotation(double w, double x, double y, double z) noexcept {
  // Angles from the two decoupled conditions (see header):
  //   tan(alpha + beta) = (x + y) / (w - z)
  //   tan(alpha - beta) = (y - x) / (w + z)
  double sum = std::atan2(x + y, w - z);
  double dif = std::atan2(y - x, w + z);
  // Fold into (-pi/2, pi/2]: shifts by pi only flip a sign of the resulting
  // diagonal, and the smaller angles aid convergence.
  if (sum > M_PI_2) sum -= M_PI;
  if (sum <= -M_PI_2) sum += M_PI;
  if (dif > M_PI_2) dif -= M_PI;
  if (dif <= -M_PI_2) dif += M_PI;
  const double alpha = 0.5 * (sum + dif);
  const double beta = 0.5 * (sum - dif);
  return {std::cos(alpha), std::sin(alpha), std::cos(beta), std::sin(beta)};
}

KogbetliantzResult kogbetliantz_svd(const Matrix& a, const Ordering& ordering,
                                    const KogbetliantzOptions& options) {
  TREESVD_REQUIRE(a.rows() == a.cols() && a.rows() >= 2,
                  "kogbetliantz_svd needs a square matrix (QR-reduce tall inputs first)");
  require_finite_columns(a, "kogbetliantz_svd");
  const std::size_t n0 = a.rows();
  const int padded = padded_width(ordering, static_cast<int>(n0));
  TREESVD_REQUIRE(padded > 0, ordering.name() + " supports no width near n");
  const auto np = static_cast<std::size_t>(padded);

  Matrix work(np, np);
  for (std::size_t j = 0; j < n0; ++j)
    for (std::size_t i = 0; i < n0; ++i) work(i, j) = a(i, j);
  // Pad diagonal with zeros: exact singular values 0, inert under the
  // threshold (their rows/columns stay zero).
  const Equilibration eq = equilibrate(work, options.equilibrate);
  StallDetector stall;

  Matrix u = options.compute_uv ? Matrix::identity(np) : Matrix();
  Matrix v = options.compute_uv ? Matrix::identity(np) : Matrix();

  const double scale = std::max(work.max_abs(), 1e-300);

  std::vector<int> layout(np);
  std::iota(layout.begin(), layout.end(), 0);

  KogbetliantzResult r;
  for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
    const Sweep s = ordering.sweep_from(layout, sweep);
    std::size_t sweep_rot = 0;
    for (int t = 0; t < s.steps(); ++t) {
      std::vector<Staged> staged;
      for (const IndexPair& p : s.pairs(t)) {
        const auto i = static_cast<std::size_t>(std::min(p.even, p.odd));
        const auto j = static_cast<std::size_t>(std::max(p.even, p.odd));
        const double aij = work(i, j);
        const double aji = work(j, i);
        if (std::fabs(aij) <= options.tol * scale && std::fabs(aji) <= options.tol * scale)
          continue;
        staged.push_back({static_cast<int>(i), static_cast<int>(j),
                          two_sided_rotation(work(i, i), aij, aji, work(j, j))});
        ++sweep_rot;
      }
      // Left phase: rows i, j combine (J_l^T from the left).
      for (const Staged& st : staged) {
        const auto i = static_cast<std::size_t>(st.i);
        const auto j = static_cast<std::size_t>(st.j);
        for (std::size_t k = 0; k < np; ++k) {
          const double rik = work(i, k);
          const double rjk = work(j, k);
          work(i, k) = st.rot.cl * rik + st.rot.sl * rjk;
          work(j, k) = -st.rot.sl * rik + st.rot.cl * rjk;
        }
        if (options.compute_uv) {
          const auto ui = u.col(i);
          const auto uj = u.col(j);
          for (std::size_t k = 0; k < np; ++k) {
            const double a1 = ui[k];
            const double a2 = uj[k];
            ui[k] = st.rot.cl * a1 + st.rot.sl * a2;
            uj[k] = -st.rot.sl * a1 + st.rot.cl * a2;
          }
        }
      }
      // Right phase: columns i, j combine (J_r from the right).
      for (const Staged& st : staged) {
        const auto i = static_cast<std::size_t>(st.i);
        const auto j = static_cast<std::size_t>(st.j);
        const auto ci = work.col(i);
        const auto cj = work.col(j);
        for (std::size_t k = 0; k < np; ++k) {
          const double a1 = ci[k];
          const double a2 = cj[k];
          ci[k] = st.rot.cr * a1 + st.rot.sr * a2;
          cj[k] = -st.rot.sr * a1 + st.rot.cr * a2;
        }
        if (options.compute_uv) {
          const auto vi = v.col(i);
          const auto vj = v.col(j);
          for (std::size_t k = 0; k < np; ++k) {
            const double a1 = vi[k];
            const double a2 = vj[k];
            vi[k] = st.rot.cr * a1 + st.rot.sr * a2;
            vj[k] = -st.rot.sr * a1 + st.rot.cr * a2;
          }
        }
        // Exact annihilation of the targeted off-diagonal pair.
        work(i, j) = 0.0;
        work(j, i) = 0.0;
      }
    }
    const auto fin = s.final_layout();
    layout.assign(fin.begin(), fin.end());
    r.rotations += sweep_rot;
    r.sweeps = sweep + 1;
    if (options.track_off) r.off_history.push_back(off_fraction(work));
    if (sweep_rot == 0) {
      r.converged = true;
      break;
    }
    stall.observe(static_cast<double>(sweep_rot));
  }

  // Extraction: sigma = |diag|, signs folded into U; drop the padding; sort.
  std::vector<std::size_t> order(n0);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> mags(n0);
  for (std::size_t i = 0; i < n0; ++i) mags[i] = std::fabs(work(i, i));
  if (options.sort_descending) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t p, std::size_t q) { return mags[p] > mags[q]; });
  }
  r.sigma.resize(n0);
  if (options.compute_uv) {
    r.u = Matrix(n0, n0);
    r.v = Matrix(n0, n0);
  }
  for (std::size_t out = 0; out < n0; ++out) {
    const std::size_t src = order[out];
    r.sigma[out] = mags[src];
    if (!options.compute_uv) continue;
    const double sign = work(src, src) < 0.0 ? -1.0 : 1.0;
    for (std::size_t k = 0; k < n0; ++k) {
      r.u(k, out) = sign * u(k, src);
      r.v(k, out) = v(k, src);
    }
  }
  unscale_sigma(r.sigma, eq);

  r.status = r.converged ? SvdStatus::kConverged
                         : (stall.stalled() ? SvdStatus::kStalled : SvdStatus::kMaxSweeps);
  r.diagnostics.input_scale = eq.stats;
  r.diagnostics.equilibrated = eq.applied;
  r.diagnostics.equilibration_exponent = eq.exponent;
  r.diagnostics.stalled_sweeps = stall.streak();
  return r;
}

}  // namespace treesvd
