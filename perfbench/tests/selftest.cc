// Tests of the benchmark's own logic: percentile selection, the steal
// filter, open-loop due-time accounting, the wire toggle script against
// the real FSM and control plane, and termination of the max_fps
// bisection.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common.h"
#include "control/control_plane.h"
#include "control/telemetry_batch.h"
#include "core/hysteresis_controller.h"
#include "wire_script.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PercentileTest, WantedQuantileWhenTenSamplesLieBeyond) {
  const auto tail = TailPercentile(Ramp(1000), 0.99);
  ASSERT_TRUE(tail.has_value());
  EXPECT_DOUBLE_EQ(tail->quantile, 0.99);
  EXPECT_DOUBLE_EQ(tail->value, 990);
  EXPECT_EQ(tail->count, 1000u);
  EXPECT_EQ(tail->beyond, 10u);
}

TEST(PercentileTest, FallsBackToHighestQuantileWithTenBeyond) {
  // p99.9 of 1000 samples has only one sample beyond it; the highest
  // percentile that keeps ten beyond is p99.
  const auto tail = TailPercentile(Ramp(1000), 0.999);
  ASSERT_TRUE(tail.has_value());
  EXPECT_DOUBLE_EQ(tail->quantile, 0.99);
  EXPECT_DOUBLE_EQ(tail->value, 990);
  EXPECT_EQ(tail->beyond, kMinBeyond);
}

TEST(PercentileTest, NoTailBelowElevenSamples) {
  EXPECT_FALSE(TailPercentile(Ramp(10), 0.9).has_value());
  const auto tail = TailPercentile(Ramp(11), 0.9);
  ASSERT_TRUE(tail.has_value());
  EXPECT_DOUBLE_EQ(tail->value, 1);
  EXPECT_EQ(tail->beyond, 10u);
}

TEST(PercentileTest, RankTailReportsThinTails) {
  const TailStat tail = RankTail(Ramp(20), 0.9);
  EXPECT_DOUBLE_EQ(tail.quantile, 0.9);
  EXPECT_DOUBLE_EQ(tail.value, 18);
  EXPECT_EQ(tail.beyond, 2u);
  EXPECT_EQ(DescribeTail(tail), "p90=18 (n=20, 2 beyond)");
  EXPECT_DOUBLE_EQ(Median(Ramp(5)), 3);
}

TEST(StealFilterTest, KeepsEverySegmentAtOrBelowTheLimit) {
  // Four of six qualify: more than the least-stolen half.
  const std::vector<std::size_t> keep =
      LeastStolen({0.0, 0.05, kMaxStealShare, 0.002, 0.3, 0.005});
  EXPECT_EQ(keep, (std::vector<std::size_t>{0, 2, 3, 5}));
  EXPECT_EQ(Select({10, 11, 12, 13, 14, 15}, keep),
            (std::vector<double>{10, 12, 13, 15}));
}

TEST(StealFilterTest, KeepsTheLeastStolenHalfWhenFewQualify) {
  EXPECT_EQ(LeastStolen({0.2, 0.05, 0.1, 0.02, 0.3}),
            (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_EQ(LeastStolen({0.5}), (std::vector<std::size_t>{0}));
  EXPECT_TRUE(LeastStolen({}).empty());
}

TEST(OpenLoopScheduleTest, FramesFallDueOnTheClockNotOnCompletions) {
  OpenLoopSchedule schedule(/*start_ns=*/1000, /*rate_per_s=*/1000.0);
  EXPECT_EQ(schedule.DueNs(0), 1000u);
  EXPECT_EQ(schedule.DueNs(3), 3001000u);
  EXPECT_EQ(schedule.DueBy(999), 0u);
  EXPECT_EQ(schedule.DueBy(1000), 1u);
  EXPECT_EQ(schedule.DueBy(2000999), 2u);
  EXPECT_EQ(schedule.DueBy(2001000), 3u);
  // A generator stalled for 5 ms owes every frame that fell due meanwhile.
  EXPECT_EQ(schedule.DueBy(1000 + 5000000), 6u);
}

TEST(OpenLoopScheduleTest, LatenessIsMeasuredFromTheDueTime) {
  OpenLoopSchedule schedule(0, 1000.0);
  schedule.RecordSend(0, 10);
  schedule.RecordSend(1, 1000000);   // exactly on time
  schedule.RecordSend(2, 2700000);   // 700 us late
  schedule.RecordSend(3, 3000500);
  EXPECT_EQ(schedule.max_lateness_ns(), 700000u);
  EXPECT_EQ(schedule.sent(), 4u);
  EXPECT_NEAR(schedule.AchievedRate(), 3 * 1e9 / 3000500, 1e-6);
}

limoncello::ControllerAction Feed(limoncello::HysteresisController& fsm,
                                  const limoncello::TelemetryBatch& batch,
                                  int* actions) {
  limoncello::ControllerAction last = limoncello::ControllerAction::kNone;
  for (std::uint32_t i = 0; i < batch.num_samples; ++i) {
    const auto action = fsm.Tick(batch.utilization[i]);
    if (action != limoncello::ControllerAction::kNone) {
      ++*actions;
      last = action;
    }
  }
  return last;
}

TEST(ToggleScriptTest, DaemonConfigIsValidAndClampsSustainToTwoTicks) {
  const limoncello::ControllerConfig config = WireDaemonConfig();
  EXPECT_TRUE(config.Validate().empty());
  EXPECT_EQ(config.tick_period_ns, 1000000);
  EXPECT_EQ(config.sustain_duration_ns, 2000000);
  EXPECT_GT(config.max_missed_samples,
            static_cast<int>(kCrossingPeriod * 256 / 8));
}

TEST(ToggleScriptTest, EveryCrossingFrameYieldsExactlyOneActuation) {
  const limoncello::ControllerConfig config = WireDaemonConfig();
  ToggleScript script(config, /*endpoints=*/3, /*seed=*/7);
  std::vector<limoncello::HysteresisController> fsms(
      3, limoncello::HysteresisController(config));
  int crossings = 0;
  for (int round = 0; round < 200; ++round) {
    for (std::uint32_t e = 0; e < 3; ++e) {
      const ToggleScript::Frame frame = script.Next(e);
      int actions = 0;
      const auto action = Feed(fsms[e], frame.batch, &actions);
      ASSERT_EQ(actions, frame.crossing ? 1 : 0)
          << "endpoint " << e << " round " << round;
      if (frame.crossing) {
        ++crossings;
        EXPECT_EQ(action == limoncello::ControllerAction::kEnablePrefetchers,
                  frame.expect_enable);
        EXPECT_EQ(fsms[e].PrefetchersShouldBeEnabled(), frame.expect_enable);
      }
    }
  }
  EXPECT_EQ(crossings, 3 * 200 / static_cast<int>(kCrossingPeriod));
}

TEST(ToggleScriptTest, ControlPlaneEchoesOneActuationPerCrossing) {
  constexpr int kEndpoints = 16;
  limoncello::ControlPlaneOptions options;
  options.num_endpoints = kEndpoints;
  options.num_shards = 4;
  options.config = WireDaemonConfig();
  std::vector<std::pair<std::uint32_t, bool>> actuations;
  limoncello::ControlPlane plane(options, [&](std::uint32_t id, bool on) {
    actuations.emplace_back(id, on);
    return true;
  });
  ToggleScript script(options.config, kEndpoints, 11);
  unsigned char frame[limoncello::kMaxTelemetryFrameBytes];
  std::vector<std::pair<std::uint32_t, bool>> expected;
  for (int round = 0; round < 64; ++round) {
    for (std::uint32_t e = 0; e < kEndpoints; ++e) {
      const ToggleScript::Frame f = script.Next(e);
      const std::size_t n = limoncello::EncodeTelemetryBatch(f.batch, frame);
      ASSERT_GT(n, 0u);
      (void)plane.IngestFrame(frame, n, 0);
      if (f.crossing) expected.emplace_back(e, f.expect_enable);
    }
    (void)plane.DrainAll(0);
    plane.AdvanceTick();
  }
  std::sort(actuations.begin(), actuations.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(actuations, expected);
  EXPECT_EQ(plane.SnapshotStats().stale_endpoint_failsafes.value(), 0u);
}

TEST(BisectTest, TerminatesWithinTheProbeBudget) {
  int calls = 0;
  const BisectResult always = BisectMaxRate(
      100, 1e6, 6, 0.0, [&](double) { return ++calls, true; });
  EXPECT_EQ(always.probes, 6);
  EXPECT_EQ(calls, 6);
  EXPECT_GT(always.rate, 9e5);
  const BisectResult never =
      BisectMaxRate(100, 1e6, 6, 0.02, [](double) { return false; });
  EXPECT_EQ(never.rate, 100);
  EXPECT_LE(never.probes, 6);
}

TEST(BisectTest, StopsAtPrecisionAndFindsTheKnee) {
  const BisectResult r = BisectMaxRate(
      1000, 2000, 100, 0.01, [](double rate) { return rate <= 1500; });
  EXPECT_LT(r.probes, 100);
  EXPECT_LE(r.rate, 1500);
  EXPECT_GE(r.rate, 1500 - 0.01 * 1500);
  // Degenerate brackets terminate too.
  EXPECT_EQ(BisectMaxRate(0, 0, 1000, 0.0, [](double) { return true; })
                .probes,
            1000);
  EXPECT_EQ(BisectMaxRate(5, 1, 10, 0.01, [](double) { return true; })
                .probes,
            0);
}

}  // namespace
}  // namespace perfbench
