#include "core/file_utilization_source.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "test_temp_path.h"

namespace limoncello {
namespace {

class FileSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestTempPath("membw_sample.txt");
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteFile(const std::string& contents) {
    std::ofstream out(path_, std::ios::binary);
    out << contents;
  }

  std::string path_;
};

TEST_F(FileSourceTest, MissingFileIsFailedSample) {
  FileUtilizationSource source(path_);
  EXPECT_FALSE(source.SampleUtilization().has_value());
}

TEST_F(FileSourceTest, ReadsLastLine) {
  WriteFile("0.10\n0.55\n0.83\n");
  FileUtilizationSource source(path_);
  const auto sample = source.SampleUtilization();
  ASSERT_TRUE(sample.has_value());
  EXPECT_DOUBLE_EQ(*sample, 0.83);
}

TEST_F(FileSourceTest, ReadsSingleLineWithoutNewline) {
  WriteFile("0.42");
  FileUtilizationSource source(path_);
  EXPECT_DOUBLE_EQ(source.SampleUtilization().value(), 0.42);
}

TEST_F(FileSourceTest, PicksUpUpdates) {
  WriteFile("0.2\n");
  FileUtilizationSource source(path_);
  EXPECT_DOUBLE_EQ(source.SampleUtilization().value(), 0.2);
  WriteFile("0.2\n0.9\n");
  EXPECT_DOUBLE_EQ(source.SampleUtilization().value(), 0.9);
}

TEST_F(FileSourceTest, EmptyFileIsFailedSample) {
  WriteFile("");
  FileUtilizationSource source(path_);
  EXPECT_FALSE(source.SampleUtilization().has_value());
}

TEST(ParseLastUtilizationLineTest, ValidForms) {
  EXPECT_DOUBLE_EQ(ParseLastUtilizationLine("0.5").value(), 0.5);
  EXPECT_DOUBLE_EQ(ParseLastUtilizationLine("1\n0.25\n").value(), 0.25);
  EXPECT_DOUBLE_EQ(ParseLastUtilizationLine("0.75  \n").value(), 0.75);
  EXPECT_DOUBLE_EQ(ParseLastUtilizationLine("a\n1.05\n").value(), 1.05);
}

TEST(ParseLastUtilizationLineTest, RejectsMalformed) {
  EXPECT_FALSE(ParseLastUtilizationLine("").has_value());
  EXPECT_FALSE(ParseLastUtilizationLine("\n\n").has_value());
  EXPECT_FALSE(ParseLastUtilizationLine("abc").has_value());
  EXPECT_FALSE(ParseLastUtilizationLine("0.5 extra words").has_value());
  EXPECT_FALSE(ParseLastUtilizationLine("-0.5").has_value());
  EXPECT_FALSE(ParseLastUtilizationLine("11.0").has_value());
}

TEST(ParseLastUtilizationLineTest, CarriageReturnsHandled) {
  EXPECT_DOUBLE_EQ(ParseLastUtilizationLine("0.3\r\n").value(), 0.3);
}

}  // namespace
}  // namespace limoncello
