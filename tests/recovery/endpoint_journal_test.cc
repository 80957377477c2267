// EndpointStateJournal: append/snapshot/replay round trips and graceful
// degradation on every flavour of damaged file, plus the end-to-end
// RecoverEndpointStates path into a ControlPlane.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "control/control_plane.h"
#include "recovery/recovery_manager.h"
#include "recovery/state_journal.h"
#include "test_temp_path.h"
#include "util/crc32.h"
#include "util/wire.h"

namespace limoncello {
namespace {

std::string TempPath(const std::string& name) {
  const std::string path = TestTempPath(name);
  std::error_code ec;
  std::filesystem::remove(path, ec);  // a fresh file per test
  return path;
}

void WriteBytes(const std::string& path,
                const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

EndpointPersistentState SampleState(std::uint32_t endpoint_id,
                                    std::uint64_t sequence) {
  EndpointPersistentState state;
  state.endpoint_id = endpoint_id;
  state.controller_state = ControllerState::kDisabledSteady;
  state.timer_ns = 0;
  state.toggle_count = 3;
  state.intent_enabled = false;
  state.force_active = false;
  state.force_enabled = true;
  state.last_sequence = sequence;
  state.have_sequence = true;
  state.last_update_tick = 77;
  return state;
}

std::vector<unsigned char> EncodedRecord(const EndpointPersistentState& s) {
  std::vector<unsigned char> record(EndpointStateJournal::kRecordBytes);
  EndpointStateJournal::EncodeRecord(s, record.data());
  return record;
}

TEST(EndpointStateJournalTest, MissingFileReplaysEmpty) {
  const EndpointJournalReplay replay =
      EndpointStateJournal::Replay(TempPath("missing.lej"));
  EXPECT_FALSE(replay.file_found);
  EXPECT_TRUE(replay.states.empty());
  EXPECT_TRUE(replay.Clean());
}

TEST(EndpointStateJournalTest, AppendReplayRoundTrip) {
  const std::string path = TempPath("round_trip.lej");
  EndpointStateJournal journal({path});
  std::vector<EndpointPersistentState> written;
  for (std::uint32_t e = 0; e < 5; ++e) {
    written.push_back(SampleState(e, 100 + e));
    ASSERT_TRUE(journal.Append(written.back()));
  }
  EXPECT_EQ(journal.stats().appends, 5u);

  const EndpointJournalReplay replay = EndpointStateJournal::Replay(path);
  EXPECT_TRUE(replay.file_found);
  EXPECT_TRUE(replay.Clean());
  EXPECT_EQ(replay.valid_records, 5u);
  ASSERT_EQ(replay.states.size(), 5u);
  for (std::uint32_t e = 0; e < 5; ++e) {
    EXPECT_TRUE(replay.states[e] == written[e]) << e;
  }
}

TEST(EndpointStateJournalTest, NewestRecordPerEndpointWins) {
  const std::string path = TempPath("newest_wins.lej");
  EndpointStateJournal journal({path});
  ASSERT_TRUE(journal.Append(SampleState(4, 10)));
  ASSERT_TRUE(journal.Append(SampleState(2, 20)));
  EndpointPersistentState newer = SampleState(4, 55);
  newer.intent_enabled = true;
  newer.controller_state = ControllerState::kEnabledSteady;
  ASSERT_TRUE(journal.Append(newer));

  const EndpointJournalReplay replay = EndpointStateJournal::Replay(path);
  ASSERT_EQ(replay.states.size(), 2u);  // ascending id order
  EXPECT_EQ(replay.states[0].endpoint_id, 2u);
  EXPECT_EQ(replay.states[1].endpoint_id, 4u);
  EXPECT_EQ(replay.states[1].last_sequence, 55u);
  EXPECT_TRUE(replay.states[1].intent_enabled);
  EXPECT_EQ(replay.valid_records, 3u);
}

TEST(EndpointStateJournalTest, SnapshotAtomicallyReplacesJournal) {
  const std::string path = TempPath("snapshot.lej");
  EndpointStateJournal journal({path});
  // A long history...
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(journal.Append(SampleState(0, 1 + i)));
  }
  // ...folded down to one record per endpoint.
  ASSERT_TRUE(
      journal.WriteSnapshot({SampleState(0, 50), SampleState(1, 9)}));
  EXPECT_EQ(journal.stats().snapshots, 1u);
  EXPECT_EQ(std::filesystem::file_size(path),
            2 * EndpointStateJournal::kRecordBytes);

  const EndpointJournalReplay replay = EndpointStateJournal::Replay(path);
  EXPECT_TRUE(replay.Clean());
  ASSERT_EQ(replay.states.size(), 2u);
  EXPECT_EQ(replay.states[0].last_sequence, 50u);

  // Appends continue cleanly after a snapshot.
  ASSERT_TRUE(journal.Append(SampleState(1, 11)));
  EXPECT_EQ(EndpointStateJournal::Replay(path).states[1].last_sequence, 11u);
}

TEST(EndpointStateJournalTest, TornTailTolerated) {
  const std::string path = TempPath("torn.lej");
  std::vector<unsigned char> bytes = EncodedRecord(SampleState(1, 5));
  const std::vector<unsigned char> second = EncodedRecord(SampleState(2, 6));
  // Second record cut mid-write (crash during append).
  bytes.insert(bytes.end(), second.begin(), second.begin() + 17);
  WriteBytes(path, bytes);

  const EndpointJournalReplay replay = EndpointStateJournal::Replay(path);
  EXPECT_EQ(replay.valid_records, 1u);
  EXPECT_EQ(replay.torn_records, 1u);
  EXPECT_EQ(replay.corrupt_records, 0u);
  ASSERT_EQ(replay.states.size(), 1u);
  EXPECT_EQ(replay.states[0].endpoint_id, 1u);
}

TEST(EndpointStateJournalTest, CorruptRecordStopsScanKeepsPrefix) {
  const std::string path = TempPath("corrupt.lej");
  std::vector<unsigned char> bytes = EncodedRecord(SampleState(1, 5));
  std::vector<unsigned char> bad = EncodedRecord(SampleState(2, 6));
  bad[EndpointStateJournal::kHeaderBytes + 3] ^= 0x40;  // payload bit rot
  bytes.insert(bytes.end(), bad.begin(), bad.end());
  const std::vector<unsigned char> after = EncodedRecord(SampleState(3, 7));
  bytes.insert(bytes.end(), after.begin(), after.end());
  WriteBytes(path, bytes);

  const EndpointJournalReplay replay = EndpointStateJournal::Replay(path);
  EXPECT_FALSE(replay.Clean());
  EXPECT_EQ(replay.valid_records, 1u);
  EXPECT_EQ(replay.corrupt_records, 1u);
  // The scan cannot trust anything after unframed bytes.
  ASSERT_EQ(replay.states.size(), 1u);
  EXPECT_EQ(replay.states[0].endpoint_id, 1u);
}

TEST(EndpointStateJournalTest, ForeignVersionSkippedFrameIntact) {
  const std::string path = TempPath("version.lej");
  std::vector<unsigned char> record = EncodedRecord(SampleState(1, 5));
  // Bump the version and re-CRC so the frame is intact but foreign.
  StoreU32(record.data() + 4, EndpointStateJournal::kVersion + 1);
  StoreU32(record.data() + record.size() - 4,
           Crc32(record.data() + 4,
                 8 + EndpointStateJournal::kPayloadBytes));
  std::vector<unsigned char> bytes = record;
  const std::vector<unsigned char> good = EncodedRecord(SampleState(2, 6));
  bytes.insert(bytes.end(), good.begin(), good.end());
  WriteBytes(path, bytes);

  const EndpointJournalReplay replay = EndpointStateJournal::Replay(path);
  EXPECT_EQ(replay.version_mismatches, 1u);
  // An intact foreign-version frame is skippable: the scan continues.
  EXPECT_EQ(replay.valid_records, 1u);
  ASSERT_EQ(replay.states.size(), 1u);
  EXPECT_EQ(replay.states[0].endpoint_id, 2u);
}

TEST(EndpointStateJournalTest, GarbageFlagBitsRejected) {
  std::vector<unsigned char> record = EncodedRecord(SampleState(1, 5));
  // Set an undefined flag bit and re-CRC: DecodePayload must reject —
  // future flags change meaning, guessing would corrupt state.
  record[EndpointStateJournal::kHeaderBytes + 24] |= 0x80;
  StoreU32(record.data() + record.size() - 4,
           Crc32(record.data() + 4,
                 8 + EndpointStateJournal::kPayloadBytes));
  EndpointPersistentState out;
  EXPECT_FALSE(EndpointStateJournal::DecodePayload(
      record.data() + EndpointStateJournal::kHeaderBytes, &out));
}

TEST(EndpointRecoveryTest, ColdStartWhenNoJournal) {
  ControlPlaneOptions options;
  options.num_endpoints = 4;
  ControlPlane plane(options, [](std::uint32_t, bool) { return true; });
  const EndpointRecoveryResult result =
      RecoverEndpointStates(TempPath("no_journal.lej"), &plane);
  EXPECT_FALSE(result.Warm());
  EXPECT_EQ(result.adopted, 0);
  EXPECT_FALSE(result.replay.file_found);
}

TEST(EndpointRecoveryTest, WarmRestartThroughRealJournal) {
  const std::string path = TempPath("warm.lej");
  {
    EndpointStateJournal journal({path});
    ASSERT_TRUE(journal.Append(SampleState(0, 40)));
    ASSERT_TRUE(journal.Append(SampleState(3, 41)));
    EndpointPersistentState bad = SampleState(2, 42);
    bad.endpoint_id = 99;  // out of the plane's range: plane rejects
    ASSERT_TRUE(journal.Append(bad));
  }

  ControlPlaneOptions options;
  options.num_endpoints = 4;
  std::vector<bool> hardware(4, true);
  ControlPlane plane(options, [&hardware](std::uint32_t id, bool enable) {
    hardware[id] = enable;
    return true;
  });
  const EndpointRecoveryResult result = RecoverEndpointStates(path, &plane);
  EXPECT_TRUE(result.Warm());
  EXPECT_EQ(result.adopted, 2);
  EXPECT_EQ(result.rejected, 1);
  // The restored disabled intent was re-asserted against the hardware.
  EXPECT_FALSE(plane.EndpointIntentEnabled(0));
  EXPECT_FALSE(hardware[0]);
  EXPECT_FALSE(hardware[3]);
  EXPECT_TRUE(hardware[1]);
  EXPECT_EQ(plane.SnapshotStats().warm_restores, 2u);
}

}  // namespace
}  // namespace limoncello
