#include <cmath>

#include <gtest/gtest.h>

#include "core/resolution.h"

namespace moqo {
namespace {

TEST(ResolutionScheduleTest, PaperFormula) {
  // α_r = α_T + α_S (rM − r)/rM with α_T = 1.01, α_S = 0.05, rM = 4.
  ResolutionSchedule s(5, 1.01, 0.05);
  EXPECT_EQ(s.MaxResolution(), 4);
  EXPECT_DOUBLE_EQ(s.Alpha(0), 1.06);
  EXPECT_DOUBLE_EQ(s.Alpha(4), 1.01);
  EXPECT_DOUBLE_EQ(s.Alpha(2), 1.01 + 0.05 * 0.5);
}

TEST(ResolutionScheduleTest, AlphasStrictlyDecreaseWithResolution) {
  for (int levels : {2, 5, 20}) {
    ResolutionSchedule s(levels, 1.005, 0.5);
    for (int r = 1; r <= s.MaxResolution(); ++r) {
      EXPECT_LT(s.Alpha(r), s.Alpha(r - 1));
      EXPECT_GT(s.Alpha(r), 1.0);
    }
  }
}

TEST(ResolutionScheduleTest, SingleLevelUsesTargetPrecision) {
  ResolutionSchedule s(1, 1.01, 0.05);
  EXPECT_EQ(s.MaxResolution(), 0);
  EXPECT_DOUBLE_EQ(s.Alpha(0), 1.01);
}

TEST(ResolutionScheduleTest, GeometricEndpointsMatchLinear) {
  const ResolutionSchedule lin(20, 1.005, 0.5);
  const ResolutionSchedule geo =
      ResolutionSchedule::Geometric(20, 1.005, 0.5);
  EXPECT_NEAR(geo.Alpha(0), lin.Alpha(0), 1e-12);
  EXPECT_NEAR(geo.Alpha(19), lin.Alpha(19), 1e-12);
  // Strictly decreasing, and coarser than linear in the middle (the
  // geometric sequence spends more levels near the fine end).
  for (int r = 1; r <= 19; ++r) {
    EXPECT_LT(geo.Alpha(r), geo.Alpha(r - 1));
  }
  EXPECT_LT(geo.Alpha(10), lin.Alpha(10));
}

TEST(ResolutionScheduleTest, GeometricConstantRatioSteps) {
  const ResolutionSchedule geo =
      ResolutionSchedule::Geometric(10, 1.01, 0.4);
  const double ratio0 = (geo.Alpha(1) - 1.0) / (geo.Alpha(0) - 1.0);
  for (int r = 2; r <= 9; ++r) {
    const double ratio = (geo.Alpha(r) - 1.0) / (geo.Alpha(r - 1) - 1.0);
    EXPECT_NEAR(ratio, ratio0, 1e-9);
  }
}

TEST(ResolutionScheduleTest, NamedConfigurationsMatchPaper) {
  const ResolutionSchedule moderate = ResolutionSchedule::Moderate(20);
  EXPECT_DOUBLE_EQ(moderate.alpha_target(), 1.01);
  EXPECT_DOUBLE_EQ(moderate.alpha_step(), 0.05);
  const ResolutionSchedule fine = ResolutionSchedule::Fine(20);
  EXPECT_DOUBLE_EQ(fine.alpha_target(), 1.005);
  EXPECT_DOUBLE_EQ(fine.alpha_step(), 0.5);
}

// Alpha reads a table filled at construction; every entry must be the
// closed form bit for bit, since Prune compares plans against it.
TEST(ResolutionScheduleTest, AlphaTableEqualsClosedFormExactly) {
  const double target = 1.005;
  const double step = 0.5;
  for (int levels : {1, 5, 20, 256}) {
    const ResolutionSchedule lin(levels, target, step);
    const ResolutionSchedule geo =
        ResolutionSchedule::Geometric(levels, target, step);
    const int rm = levels - 1;
    for (int r = 0; r <= rm; ++r) {
      double linear = target;
      double geometric = target;
      if (rm > 0) {
        linear = target + step * static_cast<double>(rm - r) /
                              static_cast<double>(rm);
        const double hi = target + step - 1.0;
        const double lo = target - 1.0;
        geometric =
            1.0 + hi * std::pow(lo / hi, static_cast<double>(r) /
                                             static_cast<double>(rm));
      }
      EXPECT_EQ(lin.Alpha(r), linear) << levels << " levels, r = " << r;
      EXPECT_EQ(geo.Alpha(r), geometric) << levels << " levels, r = " << r;
    }
  }
}

}  // namespace
}  // namespace moqo
