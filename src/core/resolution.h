// Resolution schedule: resolution levels and their precision factors.
//
// IAMA approximates the Pareto frontier at resolution levels 0..rM. Each
// level r maps to a precision factor α_r > 1 with α_r > α_{r+1} (§4.2).
// Two sequences are provided:
//   * kLinear — the paper's evaluation formula (§6.1):
//       α_r = α_T + α_S · (rM − r) / rM
//   * kGeometric — equal *ratio* steps in (α_r − 1), i.e. log-uniform
//     spacing between α_T + α_S and α_T. The paper remarks (§6.2) that a
//     more optimized sequence of precision factors could further reduce
//     the maximal per-invocation time; geometric spacing equalizes the
//     plan-space volume unlocked per step, avoiding the burst at the
//     finest level that the linear sequence exhibits.
#ifndef MOQO_CORE_RESOLUTION_H_
#define MOQO_CORE_RESOLUTION_H_

#include <vector>

#include "util/common.h"

namespace moqo {

class ResolutionSchedule {
 public:
  enum class Kind {
    kLinear,
    kGeometric,
  };

  // `num_levels` = rM + 1 >= 1. `alpha_target` (α_T) is the precision
  // factor at the maximal resolution; `alpha_step` (α_S) the additional
  // slack at resolution 0.
  ResolutionSchedule(int num_levels, double alpha_target, double alpha_step,
                     Kind kind = Kind::kLinear);

  // The paper's Figure 3 configuration: α_T = 1.01, α_S = 0.05.
  static ResolutionSchedule Moderate(int num_levels) {
    return ResolutionSchedule(num_levels, 1.01, 0.05);
  }
  // The paper's Figure 4/5 configuration: α_T = 1.005, α_S = 0.5.
  static ResolutionSchedule Fine(int num_levels) {
    return ResolutionSchedule(num_levels, 1.005, 0.5);
  }
  // Geometric variant of an existing configuration.
  static ResolutionSchedule Geometric(int num_levels, double alpha_target,
                                      double alpha_step) {
    return ResolutionSchedule(num_levels, alpha_target, alpha_step,
                              Kind::kGeometric);
  }

  int MaxResolution() const { return num_levels_ - 1; }  // rM
  int NumLevels() const { return num_levels_; }
  double alpha_target() const { return alpha_target_; }
  double alpha_step() const { return alpha_step_; }
  Kind kind() const { return kind_; }

  // α_r for resolution level r in [0, rM]. Strictly decreasing in r,
  // with α_0 = α_T + α_S and α_rM = α_T. A table lookup: Prune asks for
  // α several times per plan, so the constructor evaluates the formula
  // (ComputeAlpha) once per level.
  double Alpha(int r) const {
    MOQO_CHECK(r >= 0 && r < num_levels_);
    return alphas_[static_cast<size_t>(r)];
  }

 private:
  double ComputeAlpha(int r) const;

  int num_levels_;
  double alpha_target_;
  double alpha_step_;
  Kind kind_;
  std::vector<double> alphas_;  // alphas_[r] = α_r.
};

}  // namespace moqo

#endif  // MOQO_CORE_RESOLUTION_H_
