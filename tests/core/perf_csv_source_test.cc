#include "core/perf_csv_source.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "test_temp_path.h"

namespace limoncello {
namespace {

PerfCsvOptions Options() {
  PerfCsvOptions options;
  options.saturation_gbps = 100.0;
  return options;
}

TEST(ParsePerfCsvTest, SumsReadAndWriteOfLastInterval) {
  // Two intervals; the parser must use the second.
  const std::string csv =
      "1.000100,1000.00,MiB,uncore_imc/data_reads/,100,100.0\n"
      "1.000100,500.00,MiB,uncore_imc/data_writes/,100,100.0\n"
      "2.000200,2000.00,MiB,uncore_imc/data_reads/,100,100.0\n"
      "2.000200,1000.00,MiB,uncore_imc/data_writes/,100,100.0\n";
  const auto gbps = ParsePerfCsvBandwidth(csv, Options());
  ASSERT_TRUE(gbps.has_value());
  // 3000 MiB over 1 s = 3000 * 1048576 / 1e9 GB/s.
  EXPECT_NEAR(*gbps, 3000.0 * 1048576.0 / 1e9, 1e-6);
}

TEST(ParsePerfCsvTest, IgnoresCommentsAndJunkLines) {
  const std::string csv =
      "# started on Mon Jul  6 2026\n"
      "\n"
      "not,a,real,line\n"
      "1.5,100.00,MiB,uncore_imc/data_reads/,100,100.0\n"
      "1.5,50.00,MiB,uncore_imc/data_writes/,100,100.0\n";
  const auto gbps = ParsePerfCsvBandwidth(csv, Options());
  ASSERT_TRUE(gbps.has_value());
  EXPECT_NEAR(*gbps, 150.0 * 1048576.0 / 1e9, 1e-9);
}

TEST(ParsePerfCsvTest, IncompleteLastIntervalFallsBack) {
  // The second interval only has reads so far (perf mid-write): the
  // parser must fall back to the last complete interval.
  const std::string csv =
      "1.0,100.00,MiB,uncore_imc/data_reads/,100,100.0\n"
      "1.0,100.00,MiB,uncore_imc/data_writes/,100,100.0\n"
      "2.0,999.00,MiB,uncore_imc/data_reads/,100,100.0\n";
  const auto gbps = ParsePerfCsvBandwidth(csv, Options());
  ASSERT_TRUE(gbps.has_value());
  EXPECT_NEAR(*gbps, 200.0 * 1048576.0 / 1e9, 1e-9);
}

TEST(ParsePerfCsvTest, NoCompleteIntervalIsNullopt) {
  EXPECT_FALSE(ParsePerfCsvBandwidth("", Options()).has_value());
  EXPECT_FALSE(ParsePerfCsvBandwidth(
                   "1.0,100.00,MiB,uncore_imc/data_reads/,100,100\n",
                   Options())
                   .has_value());
}

TEST(ParsePerfCsvTest, RawLineCountUnit) {
  // Empty unit field: values are cacheline counts.
  const std::string csv =
      "1.0,1000000,,uncore_imc/data_reads/,100,100.0\n"
      "1.0,500000,,uncore_imc/data_writes/,100,100.0\n";
  const auto gbps = ParsePerfCsvBandwidth(csv, Options());
  ASSERT_TRUE(gbps.has_value());
  EXPECT_NEAR(*gbps, 1500000.0 * 64.0 / 1e9, 1e-9);
}

TEST(ParsePerfCsvTest, CustomEventNames) {
  PerfCsvOptions options = Options();
  options.read_event = "cas_count_read";
  options.write_event = "cas_count_write";
  const std::string csv =
      "1.0,10.00,MiB,cas_count_read,100,100.0\n"
      "1.0,10.00,MiB,cas_count_write,100,100.0\n";
  EXPECT_TRUE(ParsePerfCsvBandwidth(csv, options).has_value());
  // The default event names no longer match.
  EXPECT_FALSE(ParsePerfCsvBandwidth(csv, Options()).has_value());
}

TEST(PerfCsvUtilizationSourceTest, EndToEndFromFile) {
  const std::string path = TestTempPath("perf_test.csv");
  {
    std::ofstream out(path);
    out << "3.0,51200.00,MiB,uncore_imc/data_reads/,100,100.0\n"
        << "3.0,25600.00,MiB,uncore_imc/data_writes/,100,100.0\n";
  }
  PerfCsvOptions options = Options();  // saturation 100 GB/s
  PerfCsvUtilizationSource source(path, options);
  const auto u = source.SampleUtilization();
  ASSERT_TRUE(u.has_value());
  // 76800 MiB/s = ~80.5 GB/s => ~0.805 of saturation.
  EXPECT_NEAR(*u, 76800.0 * 1048576.0 / 1e9 / 100.0, 1e-6);
  std::remove(path.c_str());
}

TEST(PerfCsvUtilizationSourceTest, MissingFileIsNullopt) {
  PerfCsvUtilizationSource source("/nonexistent/perf.csv", Options());
  EXPECT_FALSE(source.SampleUtilization().has_value());
}

}  // namespace
}  // namespace limoncello
