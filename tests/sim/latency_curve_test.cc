#include "sim/memory/latency_curve.h"

#include <gtest/gtest.h>

#include <cmath>

#include "fleet/platform.h"

namespace limoncello {
namespace {

TEST(LatencyCurveTest, UnloadedLatencyAtZeroUtilization) {
  LatencyCurveConfig config;
  EXPECT_DOUBLE_EQ(LatencyAtUtilization(config, 0.0), config.unloaded_ns);
}

TEST(LatencyCurveTest, MonotonicallyIncreasing) {
  LatencyCurveConfig config;
  double prev = 0.0;
  for (double u = 0.0; u <= 1.2; u += 0.05) {
    const double latency = LatencyAtUtilization(config, u);
    EXPECT_GE(latency, prev) << "at utilization " << u;
    prev = latency;
  }
}

TEST(LatencyCurveTest, RoughlyDoublesNearSaturation) {
  // The paper's Fig. 1 shape: ~2x latency increase by ~90 % utilization.
  LatencyCurveConfig config;
  const double low = LatencyAtUtilization(config, 0.05);
  const double high = LatencyAtUtilization(config, 0.90);
  EXPECT_GE(high / low, 1.8);
  EXPECT_LE(high / low, 3.0);
}

TEST(LatencyCurveTest, GrowsLinearlyAboveMaxUtilization) {
  LatencyCurveConfig config;
  const double at_max = LatencyAtUtilization(config, config.max_utilization);
  // Beyond the queuing clamp latency keeps ordering operating points but
  // grows only linearly, and is bounded for any input.
  const double over = LatencyAtUtilization(config, 1.2);
  EXPECT_GT(over, at_max);
  EXPECT_LT(over, at_max * 2.5);
  EXPECT_DOUBLE_EQ(LatencyAtUtilization(config, 5.0),
                   LatencyAtUtilization(config, 2.0));
}

TEST(LatencyCurveTest, StaysFiniteEverywhere) {
  LatencyCurveConfig config;
  for (double u = 0.0; u <= 2.0; u += 0.01) {
    const double latency = LatencyAtUtilization(config, u);
    EXPECT_TRUE(std::isfinite(latency));
    EXPECT_GT(latency, 0.0);
  }
}

TEST(LatencyCurveTest, QueueCoefficientScalesQueuingOnly) {
  LatencyCurveConfig a;
  LatencyCurveConfig b = a;
  b.queue_coeff_ns = 2.0 * a.queue_coeff_ns;
  EXPECT_DOUBLE_EQ(LatencyAtUtilization(a, 0.0),
                   LatencyAtUtilization(b, 0.0));
  const double qa = LatencyAtUtilization(a, 0.8) - a.unloaded_ns;
  const double qb = LatencyAtUtilization(b, 0.8) - b.unloaded_ns;
  EXPECT_NEAR(qb, 2.0 * qa, 1e-9);
}

// The fleet's operating-point solver skips bisection steps on the
// strength of LatencyLut::At being non-decreasing in floating point, so
// pin that for both platforms' curves: along a dense sweep, and one ulp
// at a time across every cell boundary (where the interpolation switches
// table entries and a rounding slip would show). Linear interpolation
// stays monotone there only if each hi - lo is exact, which holds while
// adjacent entries differ by less than 2x.
TEST(LatencyLutTest, NonDecreasingAcrossEveryCellBoundary) {
  for (const LatencyCurveConfig& config :
       {PlatformConfig::Platform1().latency,
        PlatformConfig::Platform2().latency}) {
    const LatencyLut lut(config);
    constexpr int kPoints = LatencyLut::kPoints;
    const double step = LatencyLut::kMaxUtilization / kPoints;
    double prev = lut.At(0.0);
    for (int j = 1; j <= 8 * kPoints + 64; ++j) {
      const double at = lut.At(j * step / 8);
      ASSERT_LE(prev, at) << "u=" << j * step / 8;
      prev = at;
    }
    for (int i = 1; i <= kPoints; ++i) {
      // Start a few ulps below the boundary and walk past it.
      double u = i * step;
      for (int k = 0; k < 4; ++k) u = std::nextafter(u, 0.0);
      double below = lut.At(u);
      for (int k = 0; k < 8; ++k) {
        const double next_u = std::nextafter(u, 2.0);
        const double at = lut.At(next_u);
        ASSERT_LE(below, at) << "boundary " << i << ", u=" << next_u;
        below = at;
        u = next_u;
      }
      ASSERT_LT(lut.At(i * step), 2.0 * lut.At((i - 1) * step));
    }
  }
}

// Latency-curve shape across a parameter sweep: the curve knee must stay
// past 50 % utilization for every plausible exponent.
class LatencyCurveShapeTest : public ::testing::TestWithParam<double> {};

TEST_P(LatencyCurveShapeTest, GentleBelowHalfUtilization) {
  LatencyCurveConfig config;
  config.exponent = GetParam();
  const double low = LatencyAtUtilization(config, 0.0);
  const double mid = LatencyAtUtilization(config, 0.5);
  EXPECT_LE(mid / low, 1.45) << "exponent " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Exponents, LatencyCurveShapeTest,
                         ::testing::Values(1.8, 2.0, 2.2, 2.5, 3.0));

}  // namespace
}  // namespace limoncello
