#include "recovery/state_journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <map>

#include "util/check.h"
#include "util/posix_io.h"
#include "util/wire.h"

namespace limoncello {

namespace {

// Upper bound on the size field accepted during replay: a corrupted size
// must not make the scanner index past the buffer or misinterpret
// gigabytes of garbage as one record.
constexpr std::uint32_t kMaxPayloadBytes = 4096;

}  // namespace

// --- Shared framing and file discipline ----------------------------------

JournalFile::JournalFile(const Format& format, const Options& options)
    : format_(format), options_(options), tmp_path_(options.path + ".tmp") {
  LIMONCELLO_CHECK(!options.path.empty());
}

JournalFile::~JournalFile() { CloseAppendFd(); }

void JournalFile::Frame(const Format& format, unsigned char* record) {
  StoreU32(record, format.magic);
  StoreU32(record + 4, format.version);
  StoreU32(record + 8, static_cast<std::uint32_t>(format.payload_bytes));
  const std::uint32_t crc = Crc32(record + 4, 8 + format.payload_bytes);
  StoreU32(record + kHeaderBytes + format.payload_bytes, crc);
}

bool JournalFile::EnsureOpenForAppend() {
  if (fd_ >= 0) return true;
  // One open per journal lifetime (or per snapshot); the descriptor is
  // cached across appends.
  fd_ = ::open(  // limolint:allow(hot-path-blocking)
      options_.path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
      0644);
  return fd_ >= 0;
}

void JournalFile::CloseAppendFd() {
  if (fd_ >= 0) {
    (void)::close(fd_);
    fd_ = -1;
  }
}

// limolint:hot-path — the journaled persistence path runs on every daemon
// tick; it must stay allocation-free (the designed ::write/::fsync pair is
// the one blocking exception, annotated at the call sites).
bool JournalFile::AppendRecord(const unsigned char* record) {
  if (!EnsureOpenForAppend()) {
    ++stats_.io_errors;
    return false;
  }
  if (!WriteFully(fd_, record, RecordBytes(format_))) {
    ++stats_.io_errors;
    return false;
  }
  // The designed durability point: an append is not an append until it
  // is on stable storage.
  if (options_.fsync_each_append &&
      ::fsync(fd_) != 0) {  // limolint:allow(hot-path-blocking)
    ++stats_.io_errors;
    return false;
  }
  ++stats_.appends;
  return true;
}

// limolint:cold-path — a snapshot (compaction or shutdown flush) is a
// designed heavyweight rarity whose tmp+fsync+rename dance is the
// crash-safety mechanism itself.
bool JournalFile::WriteRecords(const unsigned char* records,
                               std::size_t count) {
  // The rename below replaces the journal's inode; a kept-open append
  // descriptor would keep writing to the orphaned old file.
  CloseAppendFd();
  const int fd = ::open(tmp_path_.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    ++stats_.io_errors;
    return false;
  }
  bool ok = WriteFully(fd, records, count * RecordBytes(format_));
  // fsync before rename: the atomicity argument needs the new contents
  // durable before the new name points at them.
  ok = ::fsync(fd) == 0 && ok;
  ok = ::close(fd) == 0 && ok;
  if (ok) {
    ok = std::rename(tmp_path_.c_str(), options_.path.c_str()) == 0;
  }
  if (!ok) {
    ++stats_.io_errors;
    return false;
  }
  ++stats_.snapshots;
  return true;
}

JournalScan JournalFile::Scan(
    const std::string& path, const Format& format,
    const std::function<bool(const unsigned char* payload)>& decode) {
  JournalScan scan;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return scan;  // no file: plain cold start
  scan.file_found = true;
  std::vector<unsigned char> data;
  unsigned char chunk[4096];
  for (;;) {
    const ssize_t n = ReadChunk(fd, chunk, sizeof(chunk));
    if (n < 0) {
      ++scan.corrupt_records;  // unreadable counts as corrupt
      (void)::close(fd);
      return scan;
    }
    if (n == 0) break;
    data.insert(data.end(), chunk, chunk + n);
  }
  (void)::close(fd);

  std::size_t off = 0;
  while (off < data.size()) {
    const std::size_t remaining = data.size() - off;
    if (remaining < kHeaderBytes) {
      ++scan.torn_records;
      break;
    }
    if (LoadU32(&data[off]) != format.magic) {
      ++scan.corrupt_records;
      break;
    }
    const std::uint32_t version = LoadU32(&data[off + 4]);
    const std::uint32_t payload_size = LoadU32(&data[off + 8]);
    if (payload_size > kMaxPayloadBytes) {
      ++scan.corrupt_records;
      break;
    }
    if (remaining < kHeaderBytes + payload_size + 4) {
      ++scan.torn_records;
      break;
    }
    const std::uint32_t crc = Crc32(&data[off + 4], 8 + payload_size);
    if (crc != LoadU32(&data[off + kHeaderBytes + payload_size])) {
      // Framing beyond a checksum failure cannot be trusted: stop and
      // keep whatever was valid before it.
      ++scan.corrupt_records;
      break;
    }
    if (version != format.version || payload_size != format.payload_bytes) {
      // Intact record from another binary version: skip it, keep
      // scanning — framing is still sound.
      ++scan.version_mismatches;
      off += kHeaderBytes + payload_size + 4;
      continue;
    }
    if (!decode(&data[off + kHeaderBytes])) {
      ++scan.corrupt_records;
      break;
    }
    ++scan.valid_records;
    off += RecordBytes(format);
  }
  return scan;
}

// --- LMJ1: the daemon's PersistentState -----------------------------------

void StateJournal::EncodeRecord(
    const LimoncelloDaemon::PersistentState& state, unsigned char* out) {
  unsigned char* p = out + kHeaderBytes;
  p[0] = static_cast<unsigned char>(state.controller_state);
  p[1] = static_cast<unsigned char>(state.pending_retry);
  p[2] = state.have_last_sample ? 1 : 0;
  p[3] = 0;  // reserved
  StoreU64(p + 4, static_cast<std::uint64_t>(state.timer_ns));
  StoreU64(p + 12, state.toggle_count);
  StoreU64(p + 20, state.last_sample_bits);
  StoreU32(p + 28, static_cast<std::uint32_t>(state.retry_delay_ticks));
  StoreU32(p + 32, static_cast<std::uint32_t>(state.retry_wait_ticks));
  StoreU32(p + 36, static_cast<std::uint32_t>(state.consecutive_missed));
  StoreU32(p + 40, static_cast<std::uint32_t>(state.stale_run));
  const LimoncelloDaemon::Stats& s = state.stats;
  const std::uint64_t stats_fields[] = {
      s.ticks,           s.missed_samples,     s.invalid_samples,
      s.stale_samples,   s.failsafe_resets,    s.actuation_failures,
      s.retry_backoff_skips, s.reboots_detected, s.state_reasserts,
      s.disables,        s.enables,            s.warm_restores,
      s.recovery_reconciles};
  static_assert(sizeof(stats_fields) == 13 * sizeof(std::uint64_t));
  static_assert(kPayloadBytes == 44 + sizeof(stats_fields));
  for (std::size_t i = 0; i < 13; ++i) {
    StoreU64(p + 44 + 8 * i, stats_fields[i]);
  }
  Frame(kFormat, out);
}

bool StateJournal::DecodePayload(const unsigned char* p,
                                 LimoncelloDaemon::PersistentState* out) {
  if (p[3] != 0) return false;  // reserved byte must be zero in v1
  out->controller_state = static_cast<ControllerState>(p[0]);
  out->pending_retry = static_cast<ControllerAction>(p[1]);
  out->have_last_sample = p[2] != 0;
  out->timer_ns = static_cast<SimTimeNs>(LoadU64(p + 4));
  out->toggle_count = LoadU64(p + 12);
  out->last_sample_bits = LoadU64(p + 20);
  out->retry_delay_ticks = static_cast<int>(LoadU32(p + 28));
  out->retry_wait_ticks = static_cast<int>(LoadU32(p + 32));
  out->consecutive_missed = static_cast<int>(LoadU32(p + 36));
  out->stale_run = static_cast<int>(LoadU32(p + 40));
  LimoncelloDaemon::Stats& s = out->stats;
  SatCounter* stats_fields[] = {
      &s.ticks,           &s.missed_samples,     &s.invalid_samples,
      &s.stale_samples,   &s.failsafe_resets,    &s.actuation_failures,
      &s.retry_backoff_skips, &s.reboots_detected, &s.state_reasserts,
      &s.disables,        &s.enables,            &s.warm_restores,
      &s.recovery_reconciles};
  for (std::size_t i = 0; i < 13; ++i) {
    *stats_fields[i] = SatCounter(LoadU64(p + 44 + 8 * i));
  }
  return true;
}

StateJournal::StateJournal(const Options& options)
    : JournalFile(kFormat, options) {}

// limolint:hot-path — runs after every journaled daemon tick.
bool StateJournal::Append(const LimoncelloDaemon::PersistentState& state) {
  EncodeRecord(state, scratch_.data());
  return AppendRecord(scratch_.data());
}

bool StateJournal::WriteSnapshot(
    const LimoncelloDaemon::PersistentState& state) {
  EncodeRecord(state, scratch_.data());
  return WriteRecords(scratch_.data(), 1);
}

JournalReplay StateJournal::Replay(const std::string& path) {
  JournalReplay replay;
  static_cast<JournalScan&>(replay) =
      Scan(path, kFormat, [&replay](const unsigned char* payload) {
        LimoncelloDaemon::PersistentState state;
        if (!DecodePayload(payload, &state)) return false;
        replay.state = state;
        return true;
      });
  return replay;
}

// --- LEJ1: one control-plane endpoint per record --------------------------

void EndpointStateJournal::EncodeRecord(
    const EndpointPersistentState& state, unsigned char* out) {
  unsigned char* p = out + kHeaderBytes;
  StoreU32(p, state.endpoint_id);
  StoreU32(p + 4, static_cast<std::uint32_t>(state.controller_state));
  StoreU64(p + 8, static_cast<std::uint64_t>(state.timer_ns));
  StoreU64(p + 16, state.toggle_count);
  std::uint32_t flags = 0;
  if (state.intent_enabled) flags |= 1u;
  if (state.force_active) flags |= 2u;
  if (state.force_enabled) flags |= 4u;
  if (state.have_sequence) flags |= 8u;
  StoreU32(p + 24, flags);
  StoreU64(p + 28, state.last_sequence);
  StoreU64(p + 36, state.last_update_tick);
  Frame(kFormat, out);
}

bool EndpointStateJournal::DecodePayload(const unsigned char* p,
                                         EndpointPersistentState* out) {
  const std::uint32_t flags = LoadU32(p + 24);
  if ((flags & ~0xFu) != 0) return false;  // reserved bits must be zero
  out->endpoint_id = LoadU32(p);
  out->controller_state = static_cast<ControllerState>(LoadU32(p + 4));
  out->timer_ns = static_cast<SimTimeNs>(LoadU64(p + 8));
  out->toggle_count = LoadU64(p + 16);
  out->intent_enabled = (flags & 1u) != 0;
  out->force_active = (flags & 2u) != 0;
  out->force_enabled = (flags & 4u) != 0;
  out->have_sequence = (flags & 8u) != 0;
  out->last_sequence = LoadU64(p + 28);
  out->last_update_tick = LoadU64(p + 36);
  return true;
}

EndpointStateJournal::EndpointStateJournal(const Options& options)
    : JournalFile(kFormat, options) {}

// limolint:hot-path — runs for every dirty endpoint on every plane tick.
bool EndpointStateJournal::Append(const EndpointPersistentState& state) {
  EncodeRecord(state, scratch_.data());
  return AppendRecord(scratch_.data());
}

// limolint:cold-path — caller-driven compaction on the snapshot cadence.
bool EndpointStateJournal::WriteSnapshot(
    const std::vector<EndpointPersistentState>& states) {
  std::vector<unsigned char> records(states.size() * kRecordBytes);
  for (std::size_t i = 0; i < states.size(); ++i) {
    EncodeRecord(states[i], records.data() + i * kRecordBytes);
  }
  return WriteRecords(records.data(), states.size());
}

EndpointJournalReplay EndpointStateJournal::Replay(const std::string& path) {
  // Newest valid record per endpoint: later records in the file
  // supersede earlier ones (appends land after the snapshot base).
  std::map<std::uint32_t, EndpointPersistentState> newest;
  EndpointJournalReplay replay;
  static_cast<JournalScan&>(replay) =
      Scan(path, kFormat, [&newest](const unsigned char* payload) {
        EndpointPersistentState state;
        if (!DecodePayload(payload, &state)) return false;
        newest[state.endpoint_id] = state;
        return true;
      });
  replay.states.reserve(newest.size());
  for (const auto& [id, state] : newest) replay.states.push_back(state);
  return replay;
}

}  // namespace limoncello
