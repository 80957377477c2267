#include "workloads/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "sim/machine/socket.h"
#include "test_temp_path.h"
#include "workloads/generators.h"

namespace limoncello {
namespace {

std::vector<MemRef> SampleRefs() {
  return {
      {0x1000, 64, MemOp::kLoad, 3, 7},
      {0xdeadbeefcafe, 128, MemOp::kStore, 0, 1},
      {0x40, 64, MemOp::kSoftwarePrefetch, 65534, 255},
      {0, 1, MemOp::kLoad, 0, 0},
  };
}

TEST(TraceIoTest, RoundTripInMemory) {
  TraceWriter writer;
  for (const MemRef& ref : SampleRefs()) writer.Append(ref);
  TraceReader reader;
  ASSERT_TRUE(reader.Parse(writer.buffer())) << reader.error();
  const auto& refs = reader.refs();
  const auto expected = SampleRefs();
  ASSERT_EQ(refs.size(), expected.size());
  for (std::size_t i = 0; i < refs.size(); ++i) {
    EXPECT_EQ(refs[i].addr, expected[i].addr) << i;
    EXPECT_EQ(refs[i].size, expected[i].size) << i;
    EXPECT_EQ(refs[i].op, expected[i].op) << i;
    EXPECT_EQ(refs[i].function, expected[i].function) << i;
    EXPECT_EQ(refs[i].gap_instructions, expected[i].gap_instructions) << i;
  }
}

TEST(TraceIoTest, RoundTripThroughFile) {
  const std::string path = TestTempPath("trace_test.bin");
  TraceWriter writer;
  for (const MemRef& ref : SampleRefs()) writer.Append(ref);
  ASSERT_TRUE(writer.WriteFile(path));
  TraceReader reader;
  ASSERT_TRUE(reader.ReadFile(path)) << reader.error();
  EXPECT_EQ(reader.refs().size(), SampleRefs().size());
  std::remove(path.c_str());
}

TEST(TraceIoTest, EmptyTraceRoundTrips) {
  TraceWriter writer;
  TraceReader reader;
  ASSERT_TRUE(reader.Parse(writer.buffer()));
  EXPECT_TRUE(reader.refs().empty());
}

TEST(TraceIoTest, RejectsBadMagic) {
  TraceWriter writer;
  writer.Append(SampleRefs()[0]);
  std::string corrupt = writer.buffer();
  corrupt[0] = 'X';
  TraceReader reader;
  EXPECT_FALSE(reader.Parse(corrupt));
  EXPECT_EQ(reader.error(), "bad magic");
}

TEST(TraceIoTest, RejectsWrongVersion) {
  TraceWriter writer;
  std::string corrupt = writer.buffer();
  corrupt[4] = 99;
  TraceReader reader;
  EXPECT_FALSE(reader.Parse(corrupt));
  EXPECT_EQ(reader.error(), "unsupported version");
}

TEST(TraceIoTest, RejectsTruncation) {
  TraceWriter writer;
  for (const MemRef& ref : SampleRefs()) writer.Append(ref);
  TraceReader reader;
  EXPECT_FALSE(reader.Parse(
      writer.buffer().substr(0, writer.buffer().size() - 1)));
  EXPECT_FALSE(reader.Parse(writer.buffer().substr(0, 3)));
}

TEST(TraceIoTest, RejectsInvalidOp) {
  TraceWriter writer;
  writer.Append(SampleRefs()[0]);
  std::string corrupt = writer.buffer();
  corrupt[16 + 12] = 9;  // op byte of record 0
  TraceReader reader;
  EXPECT_FALSE(reader.Parse(corrupt));
  EXPECT_EQ(reader.error(), "invalid op");
}

TEST(TraceIoTest, RecordAllCapturesGenerator) {
  SequentialStreamGenerator::Options o;
  o.function = 5;
  SequentialStreamGenerator gen(o, Rng(1));
  TraceWriter writer;
  writer.RecordAll(&gen, 1000);
  EXPECT_EQ(writer.size(), 1000u);
  TraceReader reader;
  ASSERT_TRUE(reader.Parse(writer.buffer()));
  EXPECT_EQ(reader.refs()[0].function, 5);
}

TEST(TraceReplayGeneratorTest, ReplaysExactly) {
  TraceReplayGenerator replay(SampleRefs(), /*loop=*/false);
  MemRef ref;
  for (const MemRef& expected : SampleRefs()) {
    ASSERT_TRUE(replay.Next(&ref));
    EXPECT_EQ(ref.addr, expected.addr);
  }
  EXPECT_FALSE(replay.Next(&ref));
}

TEST(TraceReplayGeneratorTest, LoopWrapsAround) {
  TraceReplayGenerator replay(SampleRefs(), /*loop=*/true);
  MemRef ref;
  for (int i = 0; i < 11; ++i) ASSERT_TRUE(replay.Next(&ref));
  // 11 = 2 full loops of 4 + 3: the 11th record is index 2.
  EXPECT_EQ(ref.addr, SampleRefs()[2].addr);
}

TEST(TraceReplayGeneratorTest, EmptyLoopTerminates) {
  TraceReplayGenerator replay({}, /*loop=*/true);
  MemRef ref;
  EXPECT_FALSE(replay.Next(&ref));
}

TEST(TraceIoTest, RecordedTraceReproducesSimulation) {
  // Record a generator, then run the live generator and its recording
  // through identical sockets: identical PMU counters.
  auto make_gen = [] {
    RandomAccessGenerator::Options o;
    o.working_set_bytes = 8 * kMiB;
    o.function = 0;
    return std::make_unique<RandomAccessGenerator>(o, Rng(3));
  };
  TraceWriter writer;
  {
    auto gen = make_gen();
    writer.RecordAll(gen.get(), 200000);
  }
  TraceReader reader;
  ASSERT_TRUE(reader.Parse(writer.buffer()));

  SocketConfig config;
  config.num_cores = 1;
  config.memory.jitter_fraction = 0.0;
  Socket live(config, 2, Rng(9));
  Socket replayed(config, 2, Rng(9));
  live.SetWorkload(0, make_gen());
  replayed.SetWorkload(0, std::make_unique<TraceReplayGenerator>(
                              reader.refs(), /*loop=*/true));
  for (int epoch = 0; epoch < 10; ++epoch) {
    live.Step(100 * kNsPerUs);
    replayed.Step(100 * kNsPerUs);
  }
  EXPECT_EQ(live.counters().instructions,
            replayed.counters().instructions);
  EXPECT_EQ(live.counters().llc_demand_misses,
            replayed.counters().llc_demand_misses);
  EXPECT_EQ(live.counters().DramTotalBytes(),
            replayed.counters().DramTotalBytes());
}

}  // namespace
}  // namespace limoncello
