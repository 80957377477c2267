#include "tax/tax_tuner.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "softpf/prefetch_site_registry.h"
#include "softpf/size_class.h"

namespace limoncello {
namespace {

std::vector<TuneRegime> BothRegimes() {
  return {TuneRegime::kHwOn, TuneRegime::kHwOffEmulated};
}

TEST(ModelProbeTest, PureFunctionOfInputs) {
  ModelProbe a(42);
  ModelProbe b(42);
  SoftPrefetchConfig config;
  config.distance_bytes = 512;
  config.degree_bytes = 128;
  for (int k = 0; k < kNumTaxKernels; ++k) {
    for (int sc = kFirstTunedSizeClass; sc < kNumSizeClasses; ++sc) {
      for (const TuneRegime regime : BothRegimes()) {
        const double va = a.Measure(TaxKernelAt(k), sc, config, regime);
        const double vb = b.Measure(TaxKernelAt(k), sc, config, regime);
        EXPECT_EQ(va, vb) << "kernel=" << k << " sc=" << sc;
        EXPECT_GT(va, 0.0);
      }
    }
  }
}

TEST(ModelProbeTest, SeedChangesTheSurface) {
  ModelProbe a(1);
  ModelProbe b(2);
  SoftPrefetchConfig config;
  config.distance_bytes = 1024;
  config.degree_bytes = 256;
  int differing = 0;
  for (int k = 0; k < kNumTaxKernels; ++k) {
    if (a.Measure(TaxKernelAt(k), 2, config, TuneRegime::kHwOffEmulated) !=
        b.Measure(TaxKernelAt(k), 2, config, TuneRegime::kHwOffEmulated)) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

// The headline determinism contract: the same grid and the same seed must
// choose identical parameters on every cell, run to run. The chosen config
// is what ships in tuned_params.cc, so any nondeterminism here would make
// --emit-params output churn.
TEST(TunerSweepTest, SameGridAndSeedChooseIdenticalParams) {
  const TunerGrid grid = TunerGrid::Reduced();
  const PrefetchSiteRegistry registry =
      PrefetchSiteRegistry::DeployedDefault();

  ModelProbe probe1(0xfeed);
  ModelProbe probe2(0xfeed);
  const TunerReport r1 =
      RunTunerSweep(probe1, grid, BothRegimes(), registry);
  const TunerReport r2 =
      RunTunerSweep(probe2, grid, BothRegimes(), registry);

  ASSERT_EQ(r1.cells.size(), r2.cells.size());
  ASSERT_FALSE(r1.cells.empty());
  for (std::size_t i = 0; i < r1.cells.size(); ++i) {
    const TunedCell& a = r1.cells[i];
    const TunedCell& b = r2.cells[i];
    EXPECT_EQ(a.kernel, b.kernel);
    EXPECT_EQ(a.size_class, b.size_class);
    EXPECT_EQ(a.regime, b.regime);
    EXPECT_EQ(a.best.enabled, b.best.enabled) << "cell " << i;
    EXPECT_EQ(a.best.distance_bytes, b.best.distance_bytes) << "cell " << i;
    EXPECT_EQ(a.best.degree_bytes, b.best.degree_bytes) << "cell " << i;
    EXPECT_EQ(a.best.locality, b.best.locality) << "cell " << i;
    EXPECT_EQ(a.tuned_mbps, b.tuned_mbps) << "cell " << i;
  }
  EXPECT_EQ(r1.geomean_speedup_hw_off, r2.geomean_speedup_hw_off);
  EXPECT_EQ(r1.geomean_speedup_hw_on, r2.geomean_speedup_hw_on);
}

TEST(TunerSweepTest, CoversEveryKernelAndTunedSizeClass) {
  const TunerGrid grid = TunerGrid::Reduced();
  ModelProbe probe(7);
  const TunerReport report = RunTunerSweep(
      probe, grid, {TuneRegime::kHwOffEmulated},
      PrefetchSiteRegistry::DeployedDefault());
  const int tuned_classes = kNumSizeClasses - kFirstTunedSizeClass;
  EXPECT_EQ(report.cells.size(),
            static_cast<std::size_t>(kNumTaxKernels * tuned_classes));
  // The model surface guarantees attainable gains in the hw-off regime, so
  // a correct sweep must find a geomean above the hysteresis floor.
  EXPECT_GT(report.geomean_speedup_hw_off, 1.0);
}

TEST(TunerSweepTest, ChosenConfigNeverLosesToDisabledOnTheModel) {
  // On a noise-free surface the sweep's hysteresis guarantees: either the
  // cell ships disabled, or tuned throughput beats untuned by min_gain.
  const TunerGrid grid = TunerGrid::Reduced();
  ModelProbe probe(99);
  const TunerReport report = RunTunerSweep(
      probe, grid, {TuneRegime::kHwOffEmulated},
      PrefetchSiteRegistry::DeployedDefault());
  for (const TunedCell& cell : report.cells) {
    if (cell.best.enabled) {
      EXPECT_GE(cell.tuned_mbps, cell.untuned_mbps * grid.min_gain);
    } else {
      EXPECT_EQ(cell.tuned_mbps, cell.untuned_mbps);
    }
  }
}

TEST(SelectTunedParamsTest, KeepsOnlyHwOffCellsInOrder) {
  const TunerGrid grid = TunerGrid::Reduced();
  ModelProbe probe(3);
  const TunerReport report =
      RunTunerSweep(probe, grid, BothRegimes(),
                    PrefetchSiteRegistry::DeployedDefault());
  const std::vector<TunedParam> params =
      SelectTunedParams(report, "Test CPU, 2 CPUs, 8 MiB L3");
  const int tuned_classes = kNumSizeClasses - kFirstTunedSizeClass;
  EXPECT_EQ(params.size(),
            static_cast<std::size_t>(kNumTaxKernels * tuned_classes));
  for (std::size_t i = 1; i < params.size(); ++i) {
    const bool ordered =
        static_cast<int>(params[i - 1].kernel) <
            static_cast<int>(params[i].kernel) ||
        (params[i - 1].kernel == params[i].kernel &&
         params[i - 1].size_class < params[i].size_class);
    EXPECT_TRUE(ordered) << "param " << i << " out of (kernel, size) order";
  }
}

TEST(EmitTunedParamsCcTest, RendersACompilableLookingTable) {
  const TunerGrid grid = TunerGrid::Reduced();
  ModelProbe probe(5);
  const TunerReport report = RunTunerSweep(
      probe, grid, {TuneRegime::kHwOffEmulated},
      PrefetchSiteRegistry::DeployedDefault());
  const char* host = "Test CPU, 2 CPUs, 8 MiB L3";
  const std::string cc = EmitTunedParamsCc(SelectTunedParams(report, host));
  EXPECT_NE(cc.find("tax/tuned_params.h"), std::string::npos);
  EXPECT_NE(cc.find("TaxKernel::kMemcpy"), std::string::npos);
  EXPECT_NE(cc.find("TaxKernel::kHashJoinProbe"), std::string::npos);
  EXPECT_NE(cc.find("TunedParamsBegin"), std::string::npos);
  // One sweep, one host: a single constant that every row points at.
  EXPECT_NE(cc.find("constexpr char kHost1[] =\n    \"Test CPU, 2 CPUs, "
                    "8 MiB L3\";"),
            std::string::npos);
  EXPECT_EQ(cc.find("kHost2"), std::string::npos);
  std::size_t rows = 0;
  for (std::size_t at = cc.find(", kHost1},"); at != std::string::npos;
       at = cc.find(", kHost1},", at + 1)) {
    ++rows;
  }
  EXPECT_EQ(rows, SelectTunedParams(report, host).size());
  // The header no longer claims the whole table came from one sweep.
  EXPECT_EQ(cc.find("do not edit by hand"), std::string::npos);
  EXPECT_NE(cc.find("each row names the host"), std::string::npos);
  // Emission must be a pure function of the table.
  EXPECT_EQ(cc, EmitTunedParamsCc(SelectTunedParams(report, host)));
}

TEST(EmitTunedParamsCcTest, RowsFromDifferentHostsKeepTheirOwnHost) {
  const SoftPrefetchConfig off = SoftPrefetchConfig::Disabled();
  const std::vector<TunedParam> params = {
      {TaxKernel::kMemcpy, 1, off, 1.0f, 1.0f, "Old CPU, 1 CPU, L3 unknown"},
      {TaxKernel::kMemcpy, 2, off, 2.0f, 2.0f, "New \"CPU\", 4 CPUs, 1 MiB L3"},
      {TaxKernel::kMemcpy, 3, off, 3.0f, 3.0f, "Old CPU, 1 CPU, L3 unknown"},
      {TaxKernel::kMemset, 1, off, 4.0f, 4.0f, nullptr},
  };
  const std::string cc = EmitTunedParamsCc(params);
  EXPECT_NE(cc.find("kHost1[] =\n    \"Old CPU, 1 CPU, L3 unknown\";"),
            std::string::npos);
  EXPECT_NE(cc.find("kHost2[] =\n    \"New \\\"CPU\\\", 4 CPUs, 1 MiB L3\";"),
            std::string::npos);
  EXPECT_NE(cc.find("kHost3[] =\n    \"not recorded\";"), std::string::npos);
  EXPECT_NE(cc.find("1.0f, 1.0f, kHost1},"), std::string::npos);
  EXPECT_NE(cc.find("2.0f, 2.0f, kHost2},"), std::string::npos);
  EXPECT_NE(cc.find("3.0f, 3.0f, kHost1},"), std::string::npos);
  EXPECT_NE(cc.find("4.0f, 4.0f, kHost3},"), std::string::npos);
}

TEST(DescribeTuningHostTest, NamesModelCpusAndL3) {
  const std::string host = DescribeTuningHost();
  EXPECT_FALSE(host.empty());
  EXPECT_NE(host.find(" CPU"), std::string::npos) << host;
  EXPECT_NE(host.find("L3"), std::string::npos) << host;
}

TEST(TunedParamsTest, EveryCommittedRowNamesItsHost) {
  for (std::size_t i = 0; i < TunedParamsCount(); ++i) {
    const TunedParam& p = TunedParamsBegin()[i];
    ASSERT_NE(p.host, nullptr) << "row " << i;
    EXPECT_NE(std::string(p.host), "") << "row " << i;
  }
}

TEST(MeasuredProbeTest, OpPairsAreAnOddCountOfAtLeastTheMinimum) {
  MeasuredProbeOptions options;
  options.arena_bytes = std::size_t{8} << 20;
  MeasuredProbe probe(options);
  const SoftPrefetchConfig off = SoftPrefetchConfig::Disabled();
  const SoftPrefetchConfig on = SoftPrefetchConfig::DeployedDefault();
  for (const int min_pairs : {1, 4, 5}) {
    const std::vector<MeasuredProbe::OpPair> pairs = probe.MeasureOpPairs(
        TaxKernel::kMemcpy, kFirstTunedSizeClass, off, on,
        TuneRegime::kHwOffEmulated, min_pairs, /*budget_ms=*/0.0);
    EXPECT_EQ(pairs.size(), static_cast<std::size_t>(min_pairs | 1));
    for (const MeasuredProbe::OpPair& pair : pairs) {
      EXPECT_GT(pair.a_mbps, 0.0);
      EXPECT_GT(pair.b_mbps, 0.0);
    }
  }
  // A time budget adds pairs beyond the minimum and still ends odd.
  const std::size_t timed =
      probe
          .MeasureOpPairs(TaxKernel::kMemcpy, kFirstTunedSizeClass, off, on,
                          TuneRegime::kHwOffEmulated, 1, /*budget_ms=*/5.0)
          .size();
  EXPECT_GT(timed, 1u);
  EXPECT_EQ(timed % 2, 1u);
}

TEST(GeomeanSpeedupTest, EmptyCellsYieldOne) {
  EXPECT_EQ(GeomeanSpeedup({}, TuneRegime::kHwOffEmulated), 1.0);
}

}  // namespace
}  // namespace limoncello
