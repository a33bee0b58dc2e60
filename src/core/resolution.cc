#include "core/resolution.h"

#include <cmath>

namespace moqo {

ResolutionSchedule::ResolutionSchedule(int num_levels, double alpha_target,
                                       double alpha_step, Kind kind)
    : num_levels_(num_levels),
      alpha_target_(alpha_target),
      alpha_step_(alpha_step),
      kind_(kind) {
  MOQO_CHECK(num_levels >= 1 && num_levels <= 256);
  MOQO_CHECK(alpha_target > 1.0);
  MOQO_CHECK(alpha_step >= 0.0);
  alphas_.reserve(static_cast<size_t>(num_levels));
  for (int r = 0; r < num_levels; ++r) alphas_.push_back(ComputeAlpha(r));
}

double ResolutionSchedule::ComputeAlpha(int r) const {
  const int rm = MaxResolution();
  if (rm == 0 || alpha_step_ == 0.0) return alpha_target_;
  switch (kind_) {
    case Kind::kLinear:
      return alpha_target_ + alpha_step_ * static_cast<double>(rm - r) /
                                 static_cast<double>(rm);
    case Kind::kGeometric: {
      // (α_r - 1) interpolates geometrically from (α_T + α_S - 1) down to
      // (α_T - 1).
      const double hi = alpha_target_ + alpha_step_ - 1.0;
      const double lo = alpha_target_ - 1.0;
      const double t = static_cast<double>(r) / static_cast<double>(rm);
      return 1.0 + hi * std::pow(lo / hi, t);
    }
  }
  return alpha_target_;
}

}  // namespace moqo
