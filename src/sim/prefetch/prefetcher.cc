#include "sim/prefetch/prefetcher.h"

#include "util/check.h"

namespace limoncello {

// ---------------------------------------------------------------------------
// DcuStreamerPrefetcher

void DcuStreamerPrefetcher::Observe(const PrefetchObservation& obs,
                                    std::vector<Addr>* out) {
  // The socket reserves its scratch vectors for the engines' largest
  // burst at construction, so these pushes never reallocate.
  out->push_back(obs.line_addr + 1);  // limolint:allow(hot-path-alloc)
  CountIssued(1);
}

// ---------------------------------------------------------------------------
// IpStridePrefetcher

IpStridePrefetcher::IpStridePrefetcher(const Options& options)
    : options_(options),
      table_(static_cast<std::size_t>(options.table_size)) {
  LIMONCELLO_CHECK_GT(options.table_size, 0);
  LIMONCELLO_CHECK_GT(options.degree, 0);
}

void IpStridePrefetcher::Observe(const PrefetchObservation& obs,
                                 std::vector<Addr>* out) {
  if (obs.function == kInvalidFunctionId) return;
  Entry& entry = table_[obs.function % table_.size()];
  if (!entry.valid || entry.function != obs.function) {
    entry = Entry{};
    entry.function = obs.function;
    entry.last_line = obs.line_addr;
    entry.valid = true;
    return;
  }
  const std::int64_t stride = static_cast<std::int64_t>(obs.line_addr) -
                              static_cast<std::int64_t>(entry.last_line);
  if (stride != 0 && stride == entry.stride) {
    if (entry.confidence < 3) ++entry.confidence;
  } else {
    entry.stride = stride;
    entry.confidence = stride == 0 ? entry.confidence : 0;
  }
  entry.last_line = obs.line_addr;
  if (stride != 0 && entry.confidence >= options_.confidence_threshold) {
    for (int d = 1; d <= options_.degree; ++d) {
      const std::int64_t target =
          static_cast<std::int64_t>(obs.line_addr) + stride * d;
      // Reserved scratch (see DcuStreamer).
      if (target > 0) {
        out->push_back(  // limolint:allow(hot-path-alloc)
            static_cast<Addr>(target));
      }
    }
    CountIssued(static_cast<std::size_t>(options_.degree));
  }
}

void IpStridePrefetcher::ResetState() {
  for (Entry& entry : table_) entry = Entry{};
}

// ---------------------------------------------------------------------------
// AdjacentLinePrefetcher

void AdjacentLinePrefetcher::Observe(const PrefetchObservation& obs,
                                     std::vector<Addr>* out) {
  if (obs.was_hit) return;  // only triggered by L2 misses
  // Reserved scratch (see DcuStreamer).
  out->push_back(obs.line_addr ^ 1);  // limolint:allow(hot-path-alloc)
  CountIssued(1);
}

// ---------------------------------------------------------------------------
// StreamPrefetcher

namespace {
// 4 KiB pages hold 64 cache lines.
constexpr int kPageLineShift = 6;
}  // namespace

StreamPrefetcher::StreamPrefetcher(const Options& options)
    : options_(options),
      trackers_(static_cast<std::size_t>(options.tracker_size)) {
  LIMONCELLO_CHECK_GT(options.tracker_size, 0);
  LIMONCELLO_CHECK_GT(options.degree, 0);
  LIMONCELLO_CHECK_GE(options.distance, 0);
}

void StreamPrefetcher::Observe(const PrefetchObservation& obs,
                               std::vector<Addr>* out) {
  ++clock_;
  const Addr page = obs.line_addr >> kPageLineShift;
  Tracker* tracker = nullptr;
  Tracker* victim = &trackers_[0];
  for (Tracker& t : trackers_) {
    if (t.valid && t.page == page) {
      tracker = &t;
      break;
    }
    if (!t.valid || t.last_use < victim->last_use) victim = &t;
  }
  if (tracker == nullptr) {
    // Allocate a fresh tracker for this page.
    *victim = Tracker{};
    victim->page = page;
    victim->last_line = obs.line_addr;
    victim->valid = true;
    victim->last_use = clock_;
    return;
  }
  tracker->last_use = clock_;
  const std::int64_t delta = static_cast<std::int64_t>(obs.line_addr) -
                             static_cast<std::int64_t>(tracker->last_line);
  if (delta == 0) return;
  const int direction = delta > 0 ? 1 : -1;
  if (direction == tracker->direction) {
    ++tracker->train_count;
  } else {
    tracker->direction = direction;
    tracker->train_count = 1;
  }
  tracker->last_line = obs.line_addr;
  if (tracker->train_count >= options_.train_threshold) {
    for (int d = 1; d <= options_.degree; ++d) {
      const std::int64_t target =
          static_cast<std::int64_t>(obs.line_addr) +
          static_cast<std::int64_t>(direction) *
              (options_.distance + d);
      // Reserved scratch (see DcuStreamer).
      if (target > 0) {
        out->push_back(  // limolint:allow(hot-path-alloc)
            static_cast<Addr>(target));
      }
    }
    CountIssued(static_cast<std::size_t>(options_.degree));
  }
}

void StreamPrefetcher::ResetState() {
  for (Tracker& t : trackers_) t = Tracker{};
  clock_ = 0;
}

}  // namespace limoncello
