// Crash-safe persistence for controller state.
//
// A journal is an append-only file of CRC32-protected, versioned,
// fixed-size records. JournalFile implements everything the formats
// share; each format is a payload codec on top of it:
//   * StateJournal (LMJ1): one full LimoncelloDaemon::PersistentState per
//     record; replay keeps the newest.
//   * EndpointStateJournal (LEJ1): one control-plane endpoint's committed
//     state per record; replay keeps the newest per endpoint.
//
// A record is magic | version | payload size | payload | CRC32 (all
// little-endian u32 but the payload); the CRC covers version, size and
// payload — the magic is the frame sync, not data. Appends are cheap (one
// write(2) of a fixed-size record from a preallocated buffer through a
// cached descriptor — the steady-state path never allocates); the
// durability point is the atomic snapshot: serialize to a temp file,
// fsync, rename over the journal. rename(2) is atomic on POSIX, so a
// reader sees either the old journal or the new one, never a half-
// written file. Writing a snapshot is also how a journal is compacted;
// the caller owns that cadence (RecoveryManager, limoncellod).
//
// Replay walks the records front to back. Anything wrong — a torn tail
// from a crash mid-append, a record whose CRC fails, a version from a
// different binary, a size field pointing past the file — is counted and
// the scan degrades safely: torn/corrupt data stops the scan (framing
// past it cannot be trusted), while a version mismatch with an intact CRC
// skips just that record. Replay never crashes on any input; the worst
// outcome is "no state", which callers treat as a cold start.
#ifndef LIMONCELLO_RECOVERY_STATE_JOURNAL_H_
#define LIMONCELLO_RECOVERY_STATE_JOURNAL_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "control/control_plane.h"
#include "core/daemon.h"
#include "stats/saturating.h"
#include "util/crc32.h"

namespace limoncello {

// Replay outcome counters, the same for every record format.
struct JournalScan {
  std::uint64_t valid_records = 0;
  std::uint64_t version_mismatches = 0;  // intact frame, foreign version
  std::uint64_t corrupt_records = 0;     // bad magic/size/CRC: scan stops
  std::uint64_t torn_records = 0;        // file ends mid-record
  bool file_found = false;

  bool Clean() const {
    return version_mismatches == 0 && corrupt_records == 0 &&
           torn_records == 0;
  }
};

// Record framing, the append descriptor, the snapshot, and the replay
// scan, for one record format.
class JournalFile {
 public:
  static constexpr std::size_t kHeaderBytes = 12;  // magic|version|size

  struct Format {
    std::uint32_t magic;
    std::uint32_t version;
    std::size_t payload_bytes;
  };

  struct Options {
    std::string path;
    // fsync(2) after every append. Off by default: the atomic-rename
    // snapshot is the durability point, and a torn append tail is
    // recovered by replay — per-append fsync buys little and costs a
    // device flush on the tick path.
    bool fsync_each_append = false;
  };

  struct Stats {
    SatCounter appends;
    SatCounter snapshots;
    SatCounter io_errors;
  };

  ~JournalFile();

  JournalFile(const JournalFile&) = delete;
  JournalFile& operator=(const JournalFile&) = delete;

  const Stats& stats() const { return stats_; }
  const std::string& path() const { return options_.path; }

 protected:
  JournalFile(const Format& format, const Options& options);

  static std::size_t RecordBytes(const Format& format) {
    return kHeaderBytes + format.payload_bytes + 4 /* CRC */;
  }
  // Writes the header and the CRC around a payload already encoded at
  // record + kHeaderBytes.
  static void Frame(const Format& format, unsigned char* record);

  // Appends one framed record. Zero-allocation (cached descriptor).
  // Returns false on IO failure (counted; later calls keep trying).
  bool AppendRecord(const unsigned char* record);

  // Atomically replaces the journal with `count` framed records: write
  // temp + fsync + rename.
  bool WriteRecords(const unsigned char* records, std::size_t count);

  // Replays the journal at `path`: calls `decode` with the payload of
  // each intact record of this format, front to back. A payload `decode`
  // refuses counts as corrupt and stops the scan.
  static JournalScan Scan(
      const std::string& path, const Format& format,
      const std::function<bool(const unsigned char* payload)>& decode);

 private:
  bool EnsureOpenForAppend();
  void CloseAppendFd();

  Format format_;
  Options options_;
  std::string tmp_path_;  // precomputed: options_.path + ".tmp"
  int fd_ = -1;           // append descriptor, opened lazily
  Stats stats_;
};

// Outcome of replaying a daemon journal.
struct JournalReplay : JournalScan {
  // The newest record that framed, checksummed, and decoded cleanly.
  std::optional<LimoncelloDaemon::PersistentState> state;
};

// The daemon's journal (LMJ1): one full PersistentState per record.
class StateJournal : public JournalFile {
 public:
  // On-disk framing constants (also used by tests to build fixtures).
  static constexpr std::uint32_t kMagic = 0x4C4D4A31;  // "LMJ1"
  static constexpr std::uint32_t kVersion = 1;
  static constexpr std::size_t kPayloadBytes = 148;
  static constexpr std::size_t kRecordBytes =
      kHeaderBytes + kPayloadBytes + 4 /* CRC */;
  static constexpr Format kFormat = {kMagic, kVersion, kPayloadBytes};

  explicit StateJournal(const Options& options);

  // Appends one record. Zero-allocation: serializes into a fixed member
  // buffer and writes to the kept-open descriptor.
  bool Append(const LimoncelloDaemon::PersistentState& state);

  // Atomically replaces the journal with a single record of `state`.
  // This is the graceful-shutdown flush and the compaction mechanism.
  bool WriteSnapshot(const LimoncelloDaemon::PersistentState& state);

  // Replays the journal at `path`. Tolerates every malformed input
  // (missing, empty, torn, corrupt, truncated, foreign-versioned) —
  // failures are reported in the result, never thrown or crashed on.
  static JournalReplay Replay(const std::string& path);

  // Serialization of one full record into/out of a buffer of at least
  // kRecordBytes. Exposed for tests that hand-craft corrupt files.
  static void EncodeRecord(const LimoncelloDaemon::PersistentState& state,
                           unsigned char* out);
  static bool DecodePayload(const unsigned char* payload,
                            LimoncelloDaemon::PersistentState* out);

 private:
  // Scratch for Append/WriteSnapshot so the hot path never allocates.
  std::array<unsigned char, kRecordBytes> scratch_{};
};

// Outcome of replaying a per-endpoint control-plane journal.
struct EndpointJournalReplay : JournalScan {
  // Newest fully valid record per endpoint, ascending endpoint id.
  std::vector<EndpointPersistentState> states;
};

// The control plane's journal (LEJ1): the unit of record is one
// endpoint's committed state. A record is appended whenever an endpoint's
// decision state changes (ControlPlane::CollectDirtyEndpoints feeds
// this); replay keeps the newest valid record per endpoint, so a warm
// restart recovers every endpoint's last committed decision. The control
// loop bounds growth by calling WriteSnapshot with
// ControlPlane::ExportAllEndpoints().
class EndpointStateJournal : public JournalFile {
 public:
  static constexpr std::uint32_t kMagic = 0x4C454A31;  // "LEJ1"
  static constexpr std::uint32_t kVersion = 1;
  static constexpr std::size_t kPayloadBytes = 44;
  static constexpr std::size_t kRecordBytes =
      kHeaderBytes + kPayloadBytes + 4 /* CRC */;
  static constexpr Format kFormat = {kMagic, kVersion, kPayloadBytes};

  explicit EndpointStateJournal(const Options& options);

  // Appends one endpoint record. Zero-allocation (fixed scratch buffer,
  // cached descriptor). Returns false on IO failure (counted).
  bool Append(const EndpointPersistentState& state);

  // Atomically replaces the journal with one record per entry of
  // `states`. Shutdown flush and the caller-driven compaction mechanism.
  bool WriteSnapshot(const std::vector<EndpointPersistentState>& states);

  // Replays the journal at `path`, tolerating every malformed input.
  // Later records supersede earlier ones for the same endpoint.
  static EndpointJournalReplay Replay(const std::string& path);

  // One-record (de)serialization, exposed for corruption fixtures.
  // DecodePayload validates flag bits; field-level validation against
  // the controller's invariants happens in ControlPlane::RestoreEndpoints.
  static void EncodeRecord(const EndpointPersistentState& state,
                           unsigned char* out);
  static bool DecodePayload(const unsigned char* payload,
                            EndpointPersistentState* out);

 private:
  std::array<unsigned char, kRecordBytes> scratch_{};
};

}  // namespace limoncello

#endif  // LIMONCELLO_RECOVERY_STATE_JOURNAL_H_
