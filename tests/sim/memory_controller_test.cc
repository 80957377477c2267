#include "sim/memory/memory_controller.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "sim/memory/latency_curve.h"
#include "util/rng.h"

namespace limoncello {
namespace {

MemoryControllerConfig TestConfig() {
  MemoryControllerConfig config;
  config.peak_gbps = 10.0;  // 10 bytes/ns
  config.jitter_fraction = 0.0;
  return config;
}

TEST(MemoryControllerTest, UtilizationAccounting) {
  MemoryController mc(TestConfig(), Rng(1));
  mc.BeginEpoch(1000);  // capacity = 10'000 bytes
  for (int i = 0; i < 50; ++i) mc.Access(TrafficClass::kDemand);
  const auto epoch = mc.EndEpoch();
  // 50 lines * 64B = 3200 bytes of 10'000 => 32 %.
  EXPECT_NEAR(epoch.utilization, 0.32, 1e-9);
  EXPECT_EQ(epoch.requests, 50u);
  EXPECT_EQ(epoch.TotalBytes(), 3200u);
}

TEST(MemoryControllerTest, TrafficClassSeparation) {
  MemoryController mc(TestConfig(), Rng(1));
  mc.BeginEpoch(1000);
  mc.Access(TrafficClass::kDemand);
  mc.Access(TrafficClass::kHwPrefetch);
  mc.Access(TrafficClass::kHwPrefetch);
  mc.Access(TrafficClass::kSwPrefetch);
  mc.Access(TrafficClass::kWriteback);
  const auto epoch = mc.EndEpoch();
  EXPECT_EQ(epoch.bytes[static_cast<int>(TrafficClass::kDemand)], 64u);
  EXPECT_EQ(epoch.bytes[static_cast<int>(TrafficClass::kHwPrefetch)], 128u);
  EXPECT_EQ(epoch.bytes[static_cast<int>(TrafficClass::kSwPrefetch)], 64u);
  EXPECT_EQ(epoch.bytes[static_cast<int>(TrafficClass::kWriteback)], 64u);
  // Writebacks are not latency-bearing requests.
  EXPECT_EQ(epoch.requests, 4u);
}

TEST(MemoryControllerTest, FirstEpochLatencyIsUnloaded) {
  MemoryController mc(TestConfig(), Rng(1));
  mc.BeginEpoch(1000);
  const double latency = mc.Access(TrafficClass::kDemand);
  EXPECT_DOUBLE_EQ(latency, mc.config().latency.unloaded_ns);
  mc.EndEpoch();
}

TEST(MemoryControllerTest, SustainedTrafficRaisesLatency) {
  MemoryController mc(TestConfig(), Rng(1));
  double first_latency = 0.0;
  double last_latency = 0.0;
  for (int epoch = 0; epoch < 20; ++epoch) {
    mc.BeginEpoch(1000);
    // 90 % utilization: 141 requests ~ 9024 bytes of 10'000.
    double latency = 0.0;
    for (int i = 0; i < 141; ++i) latency = mc.Access(TrafficClass::kDemand);
    mc.EndEpoch();
    if (epoch == 0) first_latency = latency;
    last_latency = latency;
  }
  EXPECT_GT(last_latency, first_latency * 1.5);
}

TEST(MemoryControllerTest, EwmaSmoothsUtilization) {
  MemoryControllerConfig config = TestConfig();
  config.utilization_alpha = 0.5;
  MemoryController mc(config, Rng(1));
  mc.BeginEpoch(1000);
  for (int i = 0; i < 156; ++i) mc.Access(TrafficClass::kDemand);  // ~100 %
  mc.EndEpoch();
  // One epoch at ~100 % with alpha 0.5 => EWMA ~0.5.
  EXPECT_NEAR(mc.SmoothedUtilization(), 0.5, 0.01);
  mc.BeginEpoch(1000);
  mc.EndEpoch();  // idle epoch
  EXPECT_NEAR(mc.SmoothedUtilization(), 0.25, 0.01);
}

TEST(MemoryControllerTest, TotalsAccumulateAcrossEpochs) {
  MemoryController mc(TestConfig(), Rng(1));
  for (int e = 0; e < 3; ++e) {
    mc.BeginEpoch(1000);
    for (int i = 0; i < 10; ++i) mc.Access(TrafficClass::kDemand);
    mc.EndEpoch();
  }
  EXPECT_EQ(mc.totals().requests, 30u);
  EXPECT_EQ(mc.totals().TotalBytes(), 30u * 64u);
  EXPECT_GT(mc.totals().AvgLatencyNs(), 0.0);
}

TEST(MemoryControllerTest, JitterBoundedAndDeterministic) {
  MemoryControllerConfig config = TestConfig();
  config.jitter_fraction = 0.1;
  MemoryController a(config, Rng(9));
  MemoryController b(config, Rng(9));
  a.BeginEpoch(1000);
  b.BeginEpoch(1000);
  for (int i = 0; i < 100; ++i) {
    const double la = a.Access(TrafficClass::kDemand);
    const double lb = b.Access(TrafficClass::kDemand);
    EXPECT_DOUBLE_EQ(la, lb);  // same seed, same jitter
    EXPECT_GE(la, config.latency.unloaded_ns * 0.9);
    EXPECT_LE(la, config.latency.unloaded_ns * 1.1);
  }
  a.EndEpoch();
  b.EndEpoch();
}

std::uint64_t Bits(double d) { return std::bit_cast<std::uint64_t>(d); }

// The charged latency is a per-epoch constant, because EndEpoch is the
// only writer of the smoothed state it is computed from. Every request in
// an epoch is charged the same value, and CurrentLatencyNs() is the curve
// at the smoothed utilization lifted by the burst penalty, bit for bit,
// before the first epoch and after every EndEpoch. The rates reach past
// saturation (the curve's clamp) and the prefetch share varies.
TEST(MemoryControllerTest, LatencyIsFixedWithinAnEpoch) {
  const MemoryControllerConfig config = TestConfig();
  MemoryController mc(config, Rng(1));
  const auto formula = [&] {
    return LatencyAtUtilization(
        config.latency, mc.SmoothedUtilization() *
                            (1.0 + config.prefetch_burst_penalty *
                                       mc.SmoothedPrefetchShare()));
  };
  Rng rng(5);
  for (int epoch = 0; epoch < 30; ++epoch) {
    ASSERT_EQ(Bits(mc.CurrentLatencyNs()), Bits(formula())) << epoch;
    const double charged = mc.CurrentLatencyNs();
    mc.BeginEpoch(1000);  // capacity 10'000 bytes, ~156 lines
    // 0 to ~1.4x capacity; 0 to 90 % of the reads are hardware prefetch.
    const std::uint64_t lines = rng.NextBounded(220);
    const double prefetch_share = 0.9 * rng.NextDouble();
    for (std::uint64_t i = 0; i < lines; ++i) {
      const bool writeback = rng.NextBernoulli(0.2);
      const TrafficClass traffic =
          writeback ? TrafficClass::kWriteback
          : rng.NextBernoulli(prefetch_share) ? TrafficClass::kHwPrefetch
                                              : TrafficClass::kDemand;
      const double latency = mc.Access(traffic);
      ASSERT_EQ(Bits(latency), Bits(writeback ? 0.0 : charged))
          << "epoch " << epoch << " request " << i;
    }
    ASSERT_EQ(Bits(mc.CurrentLatencyNs()), Bits(charged)) << epoch;
    mc.EndEpoch();
  }
  EXPECT_EQ(Bits(mc.CurrentLatencyNs()), Bits(formula()));
  EXPECT_GT(mc.CurrentLatencyNs(), config.latency.unloaded_ns);
}

TEST(MemoryControllerDeathTest, EndWithoutBeginAborts) {
  MemoryController mc(TestConfig(), Rng(1));
  EXPECT_DEATH(mc.EndEpoch(), "CHECK");
}

TEST(MemoryControllerDeathTest, DoubleBeginAborts) {
  MemoryController mc(TestConfig(), Rng(1));
  mc.BeginEpoch(1000);
  EXPECT_DEATH(mc.BeginEpoch(1000), "CHECK");
}

}  // namespace
}  // namespace limoncello
