// Small helpers shared by the perfbench programs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

namespace perfbench {

/// Monotonic seconds (steady_clock).
inline double mono_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// q-quantile (0..1) by nearest rank; reorders `values`. NaN when empty.
inline double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return std::nan("");
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t k = rank == 0 ? 0 : std::min(rank, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(k),
                   values.end());
  return values[k];
}

inline double median(std::vector<double> values) { return quantile(values, 0.5); }

}  // namespace perfbench
