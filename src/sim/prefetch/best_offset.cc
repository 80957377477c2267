#include "sim/prefetch/best_offset.h"

#include <algorithm>

#include "util/check.h"
#include "util/rng.h"

namespace limoncello {

BestOffsetPrefetcher::BestOffsetPrefetcher(const Options& options)
    : options_(options),
      rr_table_(static_cast<std::size_t>(options.rr_table_size), 0),
      rr_valid_(static_cast<std::size_t>(options.rr_table_size), false),
      scores_(options.candidates.size(), 0) {
  LIMONCELLO_CHECK(!options.candidates.empty());
  LIMONCELLO_CHECK_GT(options.rr_table_size, 0);
  LIMONCELLO_CHECK_GT(options.score_max, 0);
  LIMONCELLO_CHECK_GT(options.round_max, 0);
  for (int offset : options.candidates) {
    LIMONCELLO_CHECK_GT(offset, 0);
  }
}

void BestOffsetPrefetcher::InsertRecent(Addr line) {
  std::uint64_t h = line;
  h = SplitMix64(h);
  const std::size_t slot = h % rr_table_.size();
  rr_table_[slot] = line;
  rr_valid_[slot] = true;
}

bool BestOffsetPrefetcher::InRecent(Addr line) const {
  std::uint64_t h = line;
  h = SplitMix64(h);
  const std::size_t slot = h % rr_table_.size();
  return rr_valid_[slot] && rr_table_[slot] == line;
}

void BestOffsetPrefetcher::FinishRound() {
  int best_score = -1;
  int best_offset = 0;
  for (std::size_t i = 0; i < options_.candidates.size(); ++i) {
    if (scores_[i] > best_score) {
      best_score = scores_[i];
      best_offset = options_.candidates[i];
    }
  }
  // Throttle: a poorly scoring best offset means the access pattern is
  // not offset-predictable — stop prefetching rather than pollute.
  current_offset_ = best_score >= options_.bad_score ? best_offset : 0;
  std::fill(scores_.begin(), scores_.end(), 0);
  round_accesses_ = 0;
  ++rounds_completed_;
}

void BestOffsetPrefetcher::Observe(const PrefetchObservation& obs,
                                   std::vector<Addr>* out) {
  // Learn: score every candidate whose "would-have-issued-from" line was
  // recently demanded.
  bool round_done = false;
  for (std::size_t i = 0; i < options_.candidates.size(); ++i) {
    const auto offset = static_cast<Addr>(options_.candidates[i]);
    if (obs.line_addr >= offset && InRecent(obs.line_addr - offset)) {
      if (++scores_[i] >= options_.score_max) round_done = true;
    }
  }
  InsertRecent(obs.line_addr);
  if (round_done || ++round_accesses_ >= options_.round_max) {
    FinishRound();
  }

  // Prefetch with the offset selected by the previous round.
  if (current_offset_ > 0) {
    // Reserved scratch (see DcuStreamerPrefetcher::Observe).
    out->push_back(  // limolint:allow(hot-path-alloc)
        obs.line_addr + static_cast<Addr>(current_offset_));
    CountIssued(1);
  }
}

void BestOffsetPrefetcher::ResetState() {
  std::fill(rr_valid_.begin(), rr_valid_.end(), false);
  std::fill(scores_.begin(), scores_.end(), 0);
  round_accesses_ = 0;
  current_offset_ = 1;
}

}  // namespace limoncello
