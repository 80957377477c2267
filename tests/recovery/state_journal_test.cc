// StateJournal framing tests: CRC correctness, append/replay round trips,
// compaction bounds, and — the point of the subsystem — graceful
// degradation on every flavour of damaged file. Corrupt fixtures are
// hand-crafted with the exposed EncodeRecord/Crc32 so they stay in sync
// with the real on-disk layout.
#include "recovery/state_journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "recovery/recovery_manager.h"
#include "test_temp_path.h"

namespace limoncello {
namespace {

using PersistentState = LimoncelloDaemon::PersistentState;

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

void StoreLe32(unsigned char* p, std::uint32_t v) {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
  p[2] = static_cast<unsigned char>(v >> 16);
  p[3] = static_cast<unsigned char>(v >> 24);
}

// A snapshot with every field distinctive, so a round trip that drops or
// swaps a field cannot pass by accident.
PersistentState DistinctiveState() {
  PersistentState state;
  state.controller_state = ControllerState::kDisabledArming;
  state.timer_ns = 3 * kNsPerSec;
  state.toggle_count = 7;
  state.pending_retry = ControllerAction::kEnablePrefetchers;
  state.retry_delay_ticks = 4;
  state.retry_wait_ticks = 2;
  state.consecutive_missed = 1;
  state.last_sample_bits = 0x3FE6666666666666ull;  // bits of 0.7
  state.have_last_sample = true;
  state.stale_run = 3;
  state.stats.ticks = 1234;
  state.stats.missed_samples = 5;
  state.stats.disables = 8;
  state.stats.enables = 7;
  state.stats.warm_restores = 2;
  state.stats.recovery_reconciles = 1;
  return state;
}

std::vector<unsigned char> EncodeOne(const PersistentState& state) {
  std::vector<unsigned char> record(StateJournal::kRecordBytes);
  StateJournal::EncodeRecord(state, record.data());
  return record;
}

TEST(StateJournalTest, Crc32MatchesTheIeeeCheckValue) {
  // The standard check value for CRC-32/ISO-HDLC.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0x00000000u);
}

TEST(StateJournalTest, AppendReplayRoundTripsEveryField) {
  const std::string path = TempPath("round_trip.journal");
  const PersistentState state = DistinctiveState();
  {
    StateJournal journal({.path = path});
    EXPECT_TRUE(journal.Append(state));
  }
  const JournalReplay replay = StateJournal::Replay(path);
  EXPECT_TRUE(replay.file_found);
  EXPECT_TRUE(replay.Clean());
  EXPECT_EQ(replay.valid_records, 1u);
  ASSERT_TRUE(replay.state.has_value());
  EXPECT_EQ(*replay.state, state);
}

TEST(StateJournalTest, ReplayKeepsTheNewestRecord) {
  const std::string path = TempPath("newest_wins.journal");
  StateJournal journal({.path = path});
  PersistentState state = DistinctiveState();
  for (std::uint64_t i = 0; i < 5; ++i) {
    state.stats.ticks = 100 + i;
    EXPECT_TRUE(journal.Append(state));
  }
  const JournalReplay replay = StateJournal::Replay(path);
  EXPECT_EQ(replay.valid_records, 5u);
  ASSERT_TRUE(replay.state.has_value());
  EXPECT_EQ(replay.state->stats.ticks, 104u);
}

TEST(StateJournalTest, CompactionBoundsFileSizeAndKeepsNewestState) {
  // Compaction is the journal owner's cadence: after
  // compact_every_appends appends, RecoveryManager writes the next
  // journaled state as a one-record snapshot. Journal every tick, so the
  // daemon's tick count numbers the records.
  struct Telemetry : UtilizationSource {
    std::optional<double> SampleUtilization() override {
      return 0.5 + 0.001 * static_cast<double>(n++ % 7);
    }
    int n = 0;
  } telemetry;
  struct Actuator : PrefetchActuator {
    bool DisablePrefetchers() override { return true; }
    bool EnablePrefetchers() override { return true; }
  } actuator;
  const std::string path = TempPath("compaction.journal");
  LimoncelloDaemon daemon(ControllerConfig(), &telemetry, &actuator);
  RecoveryManager manager({.state_file = path,
                           .snapshot_period_ticks = 1,
                           .compact_every_appends = 4},
                          &daemon);
  for (std::uint64_t i = 0; i < 39; ++i) {
    manager.OnTickComplete(
        daemon.RunTick(static_cast<SimTimeNs>(i) * kNsPerSec));
  }
  EXPECT_EQ(manager.journal().stats().io_errors, 0u);  // every write landed
  EXPECT_GT(manager.journal().stats().snapshots, 0u);
  EXPECT_LE(std::filesystem::file_size(path),
            5u * StateJournal::kRecordBytes);
  const JournalReplay replay = StateJournal::Replay(path);
  ASSERT_TRUE(replay.state.has_value());
  EXPECT_EQ(replay.state->stats.ticks, 39u);
}

TEST(StateJournalTest, WriteSnapshotLeavesExactlyOneRecord) {
  const std::string path = TempPath("snapshot.journal");
  StateJournal journal({.path = path});
  const PersistentState state = DistinctiveState();
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(journal.Append(state));
  EXPECT_TRUE(journal.WriteSnapshot(state));
  EXPECT_EQ(std::filesystem::file_size(path), StateJournal::kRecordBytes);
  const JournalReplay replay = StateJournal::Replay(path);
  EXPECT_EQ(replay.valid_records, 1u);
  ASSERT_TRUE(replay.state.has_value());
  EXPECT_EQ(*replay.state, state);
}

TEST(StateJournalTest, AppendsAfterSnapshotLandInTheRenamedFile) {
  // WriteSnapshot replaces the journal's inode; a stale append descriptor
  // would keep writing into the orphaned old file.
  const std::string path = TempPath("post_snapshot.journal");
  StateJournal journal({.path = path});
  PersistentState state = DistinctiveState();
  EXPECT_TRUE(journal.Append(state));
  EXPECT_TRUE(journal.WriteSnapshot(state));
  state.stats.ticks = 777;
  EXPECT_TRUE(journal.Append(state));
  const JournalReplay replay = StateJournal::Replay(path);
  EXPECT_EQ(replay.valid_records, 2u);
  ASSERT_TRUE(replay.state.has_value());
  EXPECT_EQ(replay.state->stats.ticks, 777u);
}

TEST(StateJournalTest, MissingFileIsACleanColdStart) {
  const JournalReplay replay =
      StateJournal::Replay(TempPath("never_written.journal"));
  EXPECT_FALSE(replay.file_found);
  EXPECT_FALSE(replay.state.has_value());
  EXPECT_TRUE(replay.Clean());
}

TEST(StateJournalTest, EmptyFileIsACleanColdStart) {
  const std::string path = TempPath("empty.journal");
  WriteBytes(path, {});
  const JournalReplay replay = StateJournal::Replay(path);
  EXPECT_TRUE(replay.file_found);
  EXPECT_FALSE(replay.state.has_value());
  EXPECT_TRUE(replay.Clean());
}

TEST(StateJournalTest, TornFinalRecordKeepsTheLastGoodOne) {
  const std::string path = TempPath("torn.journal");
  PersistentState first = DistinctiveState();
  first.stats.ticks = 1;
  PersistentState second = DistinctiveState();
  second.stats.ticks = 2;
  std::vector<unsigned char> bytes = EncodeOne(first);
  const std::vector<unsigned char> tail = EncodeOne(second);
  // The crash happened mid-append: only half of the second record hit
  // the disk.
  bytes.insert(bytes.end(), tail.begin(),
               tail.begin() + StateJournal::kRecordBytes / 2);
  WriteBytes(path, bytes);
  const JournalReplay replay = StateJournal::Replay(path);
  EXPECT_EQ(replay.valid_records, 1u);
  EXPECT_EQ(replay.torn_records, 1u);
  EXPECT_FALSE(replay.Clean());
  ASSERT_TRUE(replay.state.has_value());
  EXPECT_EQ(replay.state->stats.ticks, 1u);
}

TEST(StateJournalTest, BadCrcStopsTheScanWithoutAState) {
  const std::string path = TempPath("bad_crc.journal");
  std::vector<unsigned char> bytes = EncodeOne(DistinctiveState());
  bytes[StateJournal::kHeaderBytes + 5] ^= 0xFF;  // flip a payload byte
  WriteBytes(path, bytes);
  const JournalReplay replay = StateJournal::Replay(path);
  EXPECT_EQ(replay.corrupt_records, 1u);
  EXPECT_FALSE(replay.state.has_value());
}

TEST(StateJournalTest, GarbageFileNeverCrashesReplay) {
  const std::string path = TempPath("garbage.journal");
  std::vector<unsigned char> bytes(300);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<unsigned char>(i * 37 + 11);
  }
  WriteBytes(path, bytes);
  const JournalReplay replay = StateJournal::Replay(path);
  EXPECT_FALSE(replay.state.has_value());
  EXPECT_FALSE(replay.Clean());
}

TEST(StateJournalTest, OversizedSizeFieldIsCorruptNotACrash) {
  const std::string path = TempPath("oversized.journal");
  std::vector<unsigned char> bytes = EncodeOne(DistinctiveState());
  // A size field pointing gigabytes past the file must not be trusted.
  StoreLe32(&bytes[8], 0x7FFFFFFFu);
  WriteBytes(path, bytes);
  const JournalReplay replay = StateJournal::Replay(path);
  EXPECT_EQ(replay.corrupt_records, 1u);
  EXPECT_FALSE(replay.state.has_value());
}

TEST(StateJournalTest, ForeignVersionWithIntactCrcIsSkippedNotFatal) {
  const std::string path = TempPath("foreign_version.journal");
  std::vector<unsigned char> foreign = EncodeOne(DistinctiveState());
  StoreLe32(&foreign[4], StateJournal::kVersion + 1);
  // Re-seal the tampered header so the frame is intact, just foreign.
  StoreLe32(&foreign[StateJournal::kHeaderBytes + StateJournal::kPayloadBytes],
            Crc32(foreign.data() + 4, 8 + StateJournal::kPayloadBytes));
  PersistentState current = DistinctiveState();
  current.stats.ticks = 42;
  const std::vector<unsigned char> good = EncodeOne(current);
  std::vector<unsigned char> bytes = foreign;
  bytes.insert(bytes.end(), good.begin(), good.end());
  WriteBytes(path, bytes);
  const JournalReplay replay = StateJournal::Replay(path);
  EXPECT_EQ(replay.version_mismatches, 1u);
  EXPECT_EQ(replay.valid_records, 1u);
  ASSERT_TRUE(replay.state.has_value());
  EXPECT_EQ(replay.state->stats.ticks, 42u);
}

TEST(StateJournalTest, ReservedPayloadByteMustBeZero) {
  const std::string path = TempPath("reserved_byte.journal");
  std::vector<unsigned char> bytes = EncodeOne(DistinctiveState());
  bytes[StateJournal::kHeaderBytes + 3] = 1;  // reserved byte
  StoreLe32(&bytes[StateJournal::kHeaderBytes + StateJournal::kPayloadBytes],
            Crc32(bytes.data() + 4, 8 + StateJournal::kPayloadBytes));
  WriteBytes(path, bytes);
  const JournalReplay replay = StateJournal::Replay(path);
  EXPECT_EQ(replay.corrupt_records, 1u);
  EXPECT_FALSE(replay.state.has_value());
}

TEST(StateJournalTest, AppendToUnwritablePathCountsIoErrorsAndReturnsFalse) {
  StateJournal journal({.path = "/nonexistent-dir/limo.journal"});
  EXPECT_FALSE(journal.Append(DistinctiveState()));
  EXPECT_FALSE(journal.WriteSnapshot(DistinctiveState()));
  EXPECT_EQ(journal.stats().io_errors, 2u);
}

}  // namespace
}  // namespace limoncello
