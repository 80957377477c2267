#include "msr/prefetch_control.h"

#include <gtest/gtest.h>

#include "msr/simulated_msr_device.h"

namespace limoncello {
namespace {

class PrefetchControlTest
    : public ::testing::TestWithParam<PlatformMsrLayout> {
 protected:
  PrefetchControlTest() : dev_(4), control_(&dev_, GetParam(), 0, 4) {}

  SimulatedMsrDevice dev_;
  PrefetchControl control_;
};

TEST_P(PrefetchControlTest, PowerOnDefaultIsAllEnabled) {
  // Intel-style: zero register means enabled. Alt-style: zero means
  // disabled, so the power-on default check only holds for Intel.
  if (GetParam() == PlatformMsrLayout::kIntelStyle) {
    EXPECT_EQ(control_.AllEnabled(), true);
  }
}

TEST_P(PrefetchControlTest, DisableAllThenAllDisabled) {
  EXPECT_EQ(control_.DisableAll(), 4);
  EXPECT_EQ(control_.AllDisabled(), true);
  EXPECT_EQ(control_.AllEnabled(), false);
}

TEST_P(PrefetchControlTest, EnableAllAfterDisable) {
  ASSERT_EQ(control_.DisableAll(), 4);
  EXPECT_EQ(control_.EnableAll(), 4);
  EXPECT_EQ(control_.AllEnabled(), true);
  EXPECT_EQ(control_.AllDisabled(), false);
}

TEST_P(PrefetchControlTest, ToggleIsIdempotent) {
  ASSERT_EQ(control_.DisableAll(), 4);
  const std::uint64_t writes_after_first = dev_.write_count();
  EXPECT_EQ(control_.DisableAll(), 4);
  // Second disable changes nothing: no further writes needed.
  EXPECT_EQ(dev_.write_count(), writes_after_first);
}

TEST_P(PrefetchControlTest, PerEngineToggle) {
  ASSERT_EQ(control_.EnableAll(), 4);
  ASSERT_EQ(control_.SetEngine(PrefetchEngine::kL2Stream, false), 4);
  EXPECT_EQ(control_.EngineEnabled(0, PrefetchEngine::kL2Stream), false);
  EXPECT_EQ(control_.EngineEnabled(0, PrefetchEngine::kL2AdjacentLine),
            true);
  EXPECT_EQ(control_.EngineEnabled(0, PrefetchEngine::kDcuStreamer), true);
  EXPECT_EQ(control_.AllEnabled(), false);
  EXPECT_EQ(control_.AllDisabled(), false);

  ASSERT_EQ(control_.SetEngine(PrefetchEngine::kL2Stream, true), 4);
  EXPECT_EQ(control_.AllEnabled(), true);
}

TEST_P(PrefetchControlTest, ReadbackReadsEachRegisterOnce) {
  ASSERT_EQ(control_.DisableAll(), 4);
  const std::uint64_t before = dev_.read_count();
  EXPECT_EQ(control_.AllDisabled(), true);
  EXPECT_EQ(dev_.read_count(), before + 4);
  EXPECT_EQ(control_.AllEnabled(), false);  // stops at the first CPU
  EXPECT_EQ(dev_.read_count(), before + 5);
}

TEST_P(PrefetchControlTest, PartialCpuFailureReported) {
  dev_.FailCpu(2);
  EXPECT_EQ(control_.DisableAll(), 3);
  // The healthy CPUs are disabled.
  EXPECT_EQ(control_.EngineEnabled(0, PrefetchEngine::kDcuIpStride), false);
  // The failed CPU is unreadable.
  EXPECT_FALSE(
      control_.EngineEnabled(2, PrefetchEngine::kDcuIpStride).has_value());
}

TEST_P(PrefetchControlTest, AllCpusFailedReturnsNullopt) {
  for (int c = 0; c < 4; ++c) dev_.FailCpu(c);
  EXPECT_FALSE(control_.AllEnabled().has_value());
  EXPECT_FALSE(control_.AllDisabled().has_value());
  EXPECT_EQ(control_.DisableAll(), 0);
}

TEST_P(PrefetchControlTest, PreservesUnrelatedRegisterBits) {
  // Other feature bits in the same register must survive the toggles.
  const MsrRegister reg = control_.msr_map().reg;
  ASSERT_TRUE(dev_.Write(0, reg, 0xabcd0000u));
  ASSERT_EQ(control_.DisableAll(), 4);
  ASSERT_EQ(control_.EnableAll(), 4);
  EXPECT_EQ(dev_.PeekRaw(0, reg) & 0xffff0000u, 0xabcd0000u);
}

INSTANTIATE_TEST_SUITE_P(Layouts, PrefetchControlTest,
                         ::testing::Values(PlatformMsrLayout::kIntelStyle,
                                           PlatformMsrLayout::kAltStyle));

TEST(PrefetchMsrMapTest, IntelLayoutUses0x1A4DisableBits) {
  const PrefetchMsrMap map =
      PrefetchMsrMap::For(PlatformMsrLayout::kIntelStyle);
  EXPECT_EQ(map.reg, 0x1a4u);
  EXPECT_TRUE(map.set_bit_disables);
  EXPECT_EQ(map.engine_mask, 0xfu);
}

TEST(PrefetchMsrMapTest, AltLayoutUsesEnableBits) {
  const PrefetchMsrMap map =
      PrefetchMsrMap::For(PlatformMsrLayout::kAltStyle);
  EXPECT_NE(map.reg, 0x1a4u);
  EXPECT_FALSE(map.set_bit_disables);
}

TEST(PrefetchControlTest, SubsetOfCpusOnly) {
  SimulatedMsrDevice dev(8);
  PrefetchControl control(&dev, PlatformMsrLayout::kIntelStyle, 4, 4);
  EXPECT_EQ(control.DisableAll(), 4);
  // CPUs outside the socket range are untouched.
  EXPECT_EQ(dev.PeekRaw(0, 0x1a4), 0u);
  EXPECT_EQ(dev.PeekRaw(4, 0x1a4), 0xfu);
}

TEST(PrefetchEngineNameTest, AllNamesDistinct) {
  EXPECT_STREQ(PrefetchEngineName(PrefetchEngine::kL2Stream), "l2_stream");
  EXPECT_STREQ(PrefetchEngineName(PrefetchEngine::kL2AdjacentLine),
               "l2_adjacent_line");
  EXPECT_STREQ(PrefetchEngineName(PrefetchEngine::kDcuStreamer),
               "dcu_streamer");
  EXPECT_STREQ(PrefetchEngineName(PrefetchEngine::kDcuIpStride),
               "dcu_ip_stride");
}

}  // namespace
}  // namespace limoncello
