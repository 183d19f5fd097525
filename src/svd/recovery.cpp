#include "svd/recovery.hpp"

#include <cmath>
#include <stdexcept>

namespace treesvd {

int first_nonfinite_column(const Matrix& a) noexcept {
  for (std::size_t j = 0; j < a.cols(); ++j) {
    for (const double v : a.col(j)) {
      if (!std::isfinite(v)) return static_cast<int>(j);
    }
  }
  return -1;
}

void require_finite_columns(const Matrix& a, const std::string& engine) {
  const int bad = first_nonfinite_column(a);
  if (bad < 0) return;
  const auto j = static_cast<std::size_t>(bad);
  const auto col = a.col(j);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    if (!std::isfinite(col[i])) {
      throw std::invalid_argument(engine + ": input column " + std::to_string(j) +
                                  " contains a non-finite value (" +
                                  (std::isnan(col[i]) ? "NaN" : "Inf") + " at row " +
                                  std::to_string(i) + ")");
    }
  }
}

}  // namespace treesvd
