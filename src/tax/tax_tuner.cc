#include "tax/tax_tuner.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "tax/block_compressor.h"
#include "tax/block_hash.h"
#include "tax/dict_compressor.h"
#include "tax/hash_join.h"
#include "tax/prefetching_memcpy.h"
#include "tax/varint_codec.h"
#include "tax/wire_serializer.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/units.h"

namespace limoncello {

namespace {

// Smallest call size in a swept class (the class's lower bound), so a
// candidate config applies to the whole class it is tuned for.
std::uint64_t MinSizeForClass(int size_class) {
  LIMONCELLO_CHECK(size_class >= kFirstTunedSizeClass &&
                   size_class < kNumSizeClasses);
  return kSizeClassUpperBytes[size_class - 1];
}

}  // namespace

const char* TuneRegimeName(TuneRegime regime) {
  switch (regime) {
    case TuneRegime::kHwOn:
      return "hw_on";
    case TuneRegime::kHwOffEmulated:
      return "hw_off_emulated";
  }
  return "unknown";
}

TunerGrid TunerGrid::Default() {
  TunerGrid grid;
  grid.distances = {128, 256, 512, 1024, 2048, 4096};
  grid.degrees = {64, 128, 256, 512, 1024};
  grid.localities = {0, 1, 2, 3};
  return grid;
}

TunerGrid TunerGrid::Reduced() {
  TunerGrid grid;
  grid.distances = {256, 512, 1024};
  grid.degrees = {128, 256};
  grid.localities = {0, 3};
  return grid;
}

// ---------------------------------------------------------------------------
// ModelProbe: deterministic synthetic cost surface.

double ModelProbe::Measure(TaxKernel kernel, int size_class,
                           const SoftPrefetchConfig& config,
                           TuneRegime regime) {
  std::uint64_t state = seed_ ^
                        (static_cast<std::uint64_t>(kernel) * 0x9e3779b97f4a7c15ULL) ^
                        (static_cast<std::uint64_t>(size_class) * 0xc2b2ae3d27d4eb4fULL) ^
                        (static_cast<std::uint64_t>(regime) * 0x165667b19e3779f9ULL);
  const std::uint64_t r1 = SplitMix64(state);
  const std::uint64_t r2 = SplitMix64(state);
  const std::uint64_t r3 = SplitMix64(state);
  const std::uint64_t r4 = SplitMix64(state);
  const std::uint64_t r5 = SplitMix64(state);

  const double base = 400.0 + static_cast<double>(r1 % 4096);
  if (!config.AppliesTo(kSizeClassRepBytes[size_class])) return base;

  // Hidden preferred parameters for this cell.
  const double pref_log_distance = 7.0 + static_cast<double>(r2 % 5);  // 128..2048
  const double pref_log_degree = 6.0 + static_cast<double>(r3 % 4);    // 64..512
  const double pref_locality = static_cast<double>(r4 % 4);

  const double dd =
      std::fabs(std::log2(static_cast<double>(config.distance_bytes)) -
                pref_log_distance);
  const double dg =
      std::fabs(std::log2(static_cast<double>(config.degree_bytes)) -
                pref_log_degree);
  const double dl =
      std::fabs(static_cast<double>(config.locality) - pref_locality);
  const double closeness =
      (1.0 / (1.0 + dd)) * (1.0 / (1.0 + dg)) * (0.5 + 0.5 / (1.0 + dl));

  // Attainable gain: large while the hardware prefetchers are off, small
  // (possibly negligible) while they are on.
  const double max_gain =
      regime == TuneRegime::kHwOffEmulated
          ? 0.25 + 0.75 * static_cast<double>(r5 % 100) / 100.0
          : 0.12 * static_cast<double>(r5 % 100) / 100.0;
  return base * (1.0 + max_gain * closeness);
}

// ---------------------------------------------------------------------------
// MeasuredProbe: real wall-clock measurement.

namespace {

inline double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

inline std::size_t AlignUp(std::size_t v, std::size_t a) {
  return (v + a - 1) / a * a;
}

// Optimization sink for value-returning kernels.
volatile std::uint64_t g_probe_sink = 0;

// Compressible word-soup text (stand-in for log/RPC payloads).
std::string MakeText(std::size_t bytes, Rng& rng) {
  static constexpr const char* kWords[] = {
      "request", "latency", "bandwidth", "prefetch", "cache",  "memory",
      "socket",  "stream",  "payload",   "header",   "bucket", "shard",
      "replica", "commit",  "epoch",     "metric",   "queue",  "batch",
      "tensor",  "index",   "column",    "cursor",   "txn",    "page"};
  constexpr std::size_t kNumWords = sizeof(kWords) / sizeof(kWords[0]);
  std::string text;
  text.reserve(bytes + 16);
  while (text.size() < bytes) {
    text += kWords[rng.NextBounded(kNumWords)];
    text += ' ';
    if (rng.NextBernoulli(0.08)) {
      char num[24];
      std::snprintf(num, sizeof(num), "%llu ",
                    static_cast<unsigned long long>(rng.NextBounded(100000)));
      text += num;
    }
  }
  text.resize(bytes);
  return text;
}

std::string MakeRandomBytes(std::size_t bytes, Rng& rng) {
  std::string data(bytes, '\0');
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    const std::uint64_t v = rng.NextU64();
    std::memcpy(&data[i], &v, 8);
  }
  for (; i < bytes; ++i) data[i] = static_cast<char>(rng.NextU64());
  return data;
}

// Build-side key universe: a pure function of the index, so probe keys can
// be drawn from it without materializing the build side.
inline std::uint64_t JoinKeyAt(std::uint64_t universe_seed, std::uint64_t j) {
  std::uint64_t s = universe_seed + j * 0x9e3779b97f4a7c15ULL;
  return SplitMix64(s);
}

}  // namespace

struct MeasuredProbe::Impl {
  MeasuredProbeOptions opts;

  struct Workload {
    int kernel = -1;
    int size_class = -1;
    int regime = -1;

    std::size_t op_bytes = 0;       // throughput credit per op
    std::size_t slot_payload = 0;   // bytes per byte-slot
    std::vector<char> arena;        // byte-slot backing
    std::vector<std::size_t> slots;  // shuffled byte offsets into arena

    std::size_t u64_per_slot = 0;   // elements per u64-slot
    std::vector<std::uint64_t> u64_arena;
    std::vector<std::size_t> u64_slots;  // shuffled element offsets

    std::size_t cursor = 0;

    // Kernel-specific fixtures / reused outputs.
    std::vector<char> dst;
    std::string out;
    std::vector<std::uint64_t> out_u64;
    std::vector<std::uint64_t> out_sums;
    std::vector<WireMessage> msgs;
    WireMessage msg_out;
    std::unique_ptr<DictCompressor> dict;
    HashJoinTable join;
  };

  // Single-entry cache: the sweep visits cells sequentially, and one
  // workload can be near arena_bytes big.
  Workload work;

  explicit Impl(MeasuredProbeOptions options) : opts(options) {}

  Workload& Get(TaxKernel kernel, int size_class, TuneRegime regime) {
    if (work.kernel == static_cast<int>(kernel) &&
        work.size_class == size_class &&
        work.regime == static_cast<int>(regime)) {
      return work;
    }
    work = Workload{};
    work.kernel = static_cast<int>(kernel);
    work.size_class = size_class;
    work.regime = static_cast<int>(regime);
    Prepare(work, kernel, size_class, regime);
    return work;
  }

  // Lays `payload` copies out at page-randomized, shuffled slots of the
  // arena (cold regime) or as a single slot (warm regime).
  void FillByteSlots(Workload& w, std::string_view payload, bool cold,
                     Rng& rng) {
    w.slot_payload = payload.size();
    const std::size_t stride = AlignUp(payload.size() + 4096, 4096);
    const std::size_t target = cold ? std::max(opts.arena_bytes, stride)
                                    : stride;
    const std::size_t num = std::max<std::size_t>(1, target / stride);
    w.arena.assign(num * stride, 0);
    w.slots.resize(num);
    const std::size_t jitter_slots = (stride - payload.size()) / 64 + 1;
    for (std::size_t i = 0; i < num; ++i) {
      const std::size_t off =
          i * stride + 64 * rng.NextBounded(jitter_slots);
      std::memcpy(w.arena.data() + off, payload.data(), payload.size());
      w.slots[i] = off;
    }
    for (std::size_t i = num; i > 1; --i) {
      std::swap(w.slots[i - 1], w.slots[rng.NextBounded(i)]);
    }
  }

  // Same, for u64-element slots (varint input values, join keys).
  void FillU64Slots(Workload& w, const std::vector<std::uint64_t>& payload,
                    bool cold, bool distinct_slots, Rng& rng,
                    std::uint64_t universe_seed, std::uint64_t universe) {
    w.u64_per_slot = payload.size();
    const std::size_t stride = AlignUp(payload.size() + 512, 512);
    const std::size_t target_elems =
        cold ? std::max(opts.arena_bytes / 8, stride) : stride;
    const std::size_t num = std::max<std::size_t>(1, target_elems / stride);
    w.u64_arena.assign(num * stride, 0);
    w.u64_slots.resize(num);
    const std::size_t jitter_slots = (stride - payload.size()) / 8 + 1;
    for (std::size_t i = 0; i < num; ++i) {
      const std::size_t off = i * stride + 8 * rng.NextBounded(jitter_slots);
      if (distinct_slots) {
        // Fresh draw per slot (probe keys: revisiting identical keys would
        // let earlier passes warm exactly the entries later passes visit).
        for (std::size_t j = 0; j < payload.size(); ++j) {
          w.u64_arena[off + j] =
              JoinKeyAt(universe_seed, rng.NextBounded(universe));
        }
      } else {
        std::memcpy(w.u64_arena.data() + off, payload.data(),
                    payload.size() * 8);
      }
      w.u64_slots[i] = off;
    }
    for (std::size_t i = num; i > 1; --i) {
      std::swap(w.u64_slots[i - 1], w.u64_slots[rng.NextBounded(i)]);
    }
  }

  void Prepare(Workload& w, TaxKernel kernel, int size_class,
               TuneRegime regime) {
    const std::size_t rep = kSizeClassRepBytes[size_class];
    const bool cold = regime == TuneRegime::kHwOffEmulated;
    Rng rng(opts.seed ^ (static_cast<std::uint64_t>(kernel) << 32) ^
            (static_cast<std::uint64_t>(size_class) << 8) ^
            static_cast<std::uint64_t>(regime));
    switch (kernel) {
      case TaxKernel::kMemcpy: {
        FillByteSlots(w, MakeRandomBytes(rep, rng), cold, rng);
        w.dst.assign(rep, 0);
        w.op_bytes = rep;
        break;
      }
      case TaxKernel::kMemmove:
      case TaxKernel::kMemset: {
        FillByteSlots(w, MakeRandomBytes(rep, rng), cold, rng);
        w.op_bytes = rep;
        break;
      }
      case TaxKernel::kBlockHash:
      case TaxKernel::kCrc32c: {
        FillByteSlots(w, MakeRandomBytes(rep, rng), cold, rng);
        w.op_bytes = rep;
        break;
      }
      case TaxKernel::kCompress: {
        FillByteSlots(w, MakeText(rep, rng), cold, rng);
        w.op_bytes = rep;
        break;
      }
      case TaxKernel::kDecompress: {
        const std::string text = MakeText(rep, rng);
        std::string compressed;
        BlockCompressor(SoftPrefetchConfig::Disabled())
            .Compress(text, &compressed);
        FillByteSlots(w, compressed, cold, rng);
        w.op_bytes = compressed.size();
        break;
      }
      case TaxKernel::kSerialize: {
        // One reference message of ~rep payload bytes split over fields;
        // cold regime cycles through enough copies to defeat the caches.
        WireMessage reference;
        const std::size_t fields = 8;
        for (std::size_t f = 0; f < fields; ++f) {
          reference.push_back(
              {static_cast<std::uint32_t>(f + 1), MakeText(rep / fields, rng)});
        }
        const std::size_t copies =
            cold ? std::max<std::size_t>(2, opts.arena_bytes / 2 / rep) : 1;
        w.msgs.assign(copies, reference);
        w.op_bytes = WireSerializer::EncodedSize(reference);
        w.slots.assign(copies, 0);  // cursor domain
        break;
      }
      case TaxKernel::kParse: {
        WireMessage reference;
        const std::size_t fields = 8;
        for (std::size_t f = 0; f < fields; ++f) {
          reference.push_back(
              {static_cast<std::uint32_t>(f + 1), MakeText(rep / fields, rng)});
        }
        std::string encoded;
        WireSerializer(SoftPrefetchConfig::Disabled())
            .Serialize(reference, &encoded);
        FillByteSlots(w, encoded, cold, rng);
        w.op_bytes = encoded.size();
        break;
      }
      case TaxKernel::kVarintEncode: {
        std::vector<std::uint64_t> values(rep / 8);
        // Spread over 1..10-byte encodings.
        for (auto& v : values) v = rng.NextU64() >> rng.NextBounded(57);
        FillU64Slots(w, values, cold, /*distinct_slots=*/false, rng, 0, 1);
        w.out.reserve(VarintStreamSize(values.data(), values.size()) + 16);
        w.op_bytes = rep;
        break;
      }
      case TaxKernel::kVarintDecode: {
        std::vector<std::uint64_t> values(rep / 8);
        for (auto& v : values) v = rng.NextU64() >> rng.NextBounded(57);
        std::string encoded;
        VarintEncodeStream(values.data(), values.size(), &encoded);
        FillByteSlots(w, encoded, cold, rng);
        w.out_u64.reserve(values.size() + 16);
        w.op_bytes = encoded.size();
        break;
      }
      case TaxKernel::kDictCompress: {
        Rng dict_rng = rng.Fork(0xd1c7);
        w.dict = std::make_unique<DictCompressor>(
            MakeText(64 * kKiB, dict_rng));
        // Payload: mostly substrings of the dictionary (dictionary hits)
        // plus fresh text, the small-RPC shape dictionary codecs target.
        const std::string& dict = w.dict->dictionary();
        std::string payload;
        payload.reserve(rep + 80);
        while (payload.size() < rep) {
          if (rng.NextBernoulli(0.8)) {
            const std::size_t len = 16 + rng.NextBounded(49);
            const std::size_t pos = rng.NextBounded(dict.size() - len);
            payload.append(dict, pos, len);
          } else {
            payload += MakeText(24, rng);
          }
        }
        payload.resize(rep);
        FillByteSlots(w, payload, cold, rng);
        w.op_bytes = rep;
        break;
      }
      case TaxKernel::kDictDecompress: {
        Rng dict_rng = rng.Fork(0xd1c7);
        w.dict = std::make_unique<DictCompressor>(
            MakeText(64 * kKiB, dict_rng));
        const std::string& dict = w.dict->dictionary();
        std::string payload;
        payload.reserve(rep + 80);
        while (payload.size() < rep) {
          if (rng.NextBernoulli(0.8)) {
            const std::size_t len = 16 + rng.NextBounded(49);
            const std::size_t pos = rng.NextBounded(dict.size() - len);
            payload.append(dict, pos, len);
          } else {
            payload += MakeText(24, rng);
          }
        }
        payload.resize(rep);
        std::string compressed;
        w.dict->Compress(payload, SoftPrefetchConfig::Disabled(), &compressed);
        FillByteSlots(w, compressed, cold, rng);
        w.op_bytes = compressed.size();
        break;
      }
      case TaxKernel::kHashJoinBuild: {
        // Slots carry fresh (keys, values) build inputs of rep bytes.
        const std::size_t n = rep / 16;
        std::vector<std::uint64_t> payload(2 * n);
        for (std::size_t j = 0; j < n; ++j) {
          payload[j] = rng.NextU64();
          payload[n + j] = j;
        }
        FillU64Slots(w, payload, cold, /*distinct_slots=*/false, rng, 0, 1);
        w.op_bytes = rep;
        break;
      }
      case TaxKernel::kHashJoinProbe: {
        // Build side scaled by class so the chain walk misses further down
        // the hierarchy as the class grows. The large class stops at ~224MB
        // (8M entries + buckets): big enough that probes miss to DRAM under
        // the arena's streaming pressure, small enough that its page tables
        // stay cache-resident — beyond that this host is page-walker-bound
        // (no usable THP) and no prefetch choice changes anything.
        const std::size_t base_entries =
            size_class >= 3 ? (std::size_t{1} << 23)
                            : size_class == 2 ? (std::size_t{1} << 21)
                                              : (std::size_t{1} << 18);
        std::size_t entries = std::max<std::size_t>(
            1024,
            static_cast<std::size_t>(static_cast<double>(base_entries) *
                                     opts.join_footprint_scale));
        const std::uint64_t universe_seed = opts.seed ^ 0x10b5;
        std::vector<std::uint64_t> keys(entries);
        std::vector<std::uint64_t> values(entries);
        for (std::size_t j = 0; j < entries; ++j) {
          keys[j] = JoinKeyAt(universe_seed, j);
          values[j] = j;
        }
        w.join.Build(keys.data(), values.data(), entries);
        // Probe keys: fresh random draws per slot from twice the build
        // universe (~50% hit rate).
        const std::size_t n_probe = rep / 8;
        std::vector<std::uint64_t> dummy(n_probe);
        FillU64Slots(w, dummy, cold, /*distinct_slots=*/true, rng,
                     universe_seed, 2 * entries);
        w.out_sums.assign(n_probe, 0);
        w.op_bytes = rep;
        break;
      }
    }
  }

  void RunOp(Workload& w, TaxKernel kernel, const SoftPrefetchConfig& config) {
    switch (kernel) {
      case TaxKernel::kMemcpy: {
        const char* in = w.arena.data() + NextByteSlot(w);
        PrefetchingMemcpy(w.dst.data(), in, w.slot_payload, config);
        break;
      }
      case TaxKernel::kMemmove: {
        char* in = w.arena.data() + NextByteSlot(w);
        PrefetchingMemmove(in + 64, in, w.slot_payload - 64, config);
        break;
      }
      case TaxKernel::kMemset: {
        char* in = w.arena.data() + NextByteSlot(w);
        PrefetchingMemset(in, 0xab, w.slot_payload, config);
        break;
      }
      case TaxKernel::kBlockHash: {
        const char* in = w.arena.data() + NextByteSlot(w);
        g_probe_sink ^= BlockHash64(in, w.slot_payload, 0, config);
        break;
      }
      case TaxKernel::kCrc32c: {
        const char* in = w.arena.data() + NextByteSlot(w);
        g_probe_sink ^= Crc32c(in, w.slot_payload, config);
        break;
      }
      case TaxKernel::kCompress: {
        const char* in = w.arena.data() + NextByteSlot(w);
        BlockCompressor(config).Compress({in, w.slot_payload}, &w.out);
        break;
      }
      case TaxKernel::kDecompress: {
        const char* in = w.arena.data() + NextByteSlot(w);
        BlockCompressor(config).Decompress({in, w.slot_payload}, &w.out);
        break;
      }
      case TaxKernel::kSerialize: {
        const WireMessage& msg = w.msgs[w.cursor++ % w.msgs.size()];
        WireSerializer(config).Serialize(msg, &w.out);
        break;
      }
      case TaxKernel::kParse: {
        const char* in = w.arena.data() + NextByteSlot(w);
        WireSerializer(config).Parse({in, w.slot_payload}, &w.msg_out);
        break;
      }
      case TaxKernel::kVarintEncode: {
        const std::uint64_t* in = w.u64_arena.data() + NextU64Slot(w);
        VarintEncodeStream(in, w.u64_per_slot, config, &w.out);
        break;
      }
      case TaxKernel::kVarintDecode: {
        const char* in = w.arena.data() + NextByteSlot(w);
        VarintDecodeStream({in, w.slot_payload}, config, &w.out_u64);
        break;
      }
      case TaxKernel::kDictCompress: {
        const char* in = w.arena.data() + NextByteSlot(w);
        w.dict->Compress({in, w.slot_payload}, config, &w.out);
        break;
      }
      case TaxKernel::kDictDecompress: {
        const char* in = w.arena.data() + NextByteSlot(w);
        w.dict->Decompress({in, w.slot_payload}, config, &w.out);
        break;
      }
      case TaxKernel::kHashJoinBuild: {
        const std::uint64_t* in = w.u64_arena.data() + NextU64Slot(w);
        const std::size_t n = w.u64_per_slot / 2;
        w.join.Build(in, in + n, n, config);
        break;
      }
      case TaxKernel::kHashJoinProbe: {
        const std::uint64_t* in = w.u64_arena.data() + NextU64Slot(w);
        g_probe_sink ^= w.join.Probe(in, w.u64_per_slot,
                                     w.out_sums.data(), config);
        break;
      }
    }
  }

  std::size_t NextByteSlot(Workload& w) {
    return w.slots[w.cursor++ % w.slots.size()];
  }
  std::size_t NextU64Slot(Workload& w) {
    return w.u64_slots[w.cursor++ % w.u64_slots.size()];
  }
};

MeasuredProbe::MeasuredProbe(MeasuredProbeOptions options)
    : impl_(std::make_unique<Impl>(options)) {}

MeasuredProbe::~MeasuredProbe() = default;

double MeasuredProbe::Measure(TaxKernel kernel, int size_class,
                              const SoftPrefetchConfig& config,
                              TuneRegime regime) {
  Impl::Workload& w = impl_->Get(kernel, size_class, regime);
  impl_->RunOp(w, kernel, config);  // warm code paths / page-in
  double best_mbps = 0.0;
  const double budget_s = impl_->opts.budget_ms / 1e3;
  for (int rep = 0; rep < impl_->opts.reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t ops = 0;
    double elapsed = 0.0;
    do {
      impl_->RunOp(w, kernel, config);
      ++ops;
      elapsed = SecondsSince(t0);
    } while (elapsed < budget_s);
    const double mbps = static_cast<double>(ops * w.op_bytes) /
                        (elapsed * 1e6);
    best_mbps = std::max(best_mbps, mbps);
  }
  return best_mbps;
}

std::vector<MeasuredProbe::OpPair> MeasuredProbe::MeasureOpPairs(
    TaxKernel kernel, int size_class, const SoftPrefetchConfig& a,
    const SoftPrefetchConfig& b, TuneRegime regime, int min_pairs,
    double budget_ms) {
  Impl::Workload& w = impl_->Get(kernel, size_class, regime);
  impl_->RunOp(w, kernel, a);  // warm code paths / page-in
  impl_->RunOp(w, kernel, b);
  const auto op_mbps = [&](const SoftPrefetchConfig& config) {
    const auto t0 = std::chrono::steady_clock::now();
    impl_->RunOp(w, kernel, config);
    const double elapsed = SecondsSince(t0);
    return elapsed > 0.0 ? static_cast<double>(w.op_bytes) / (elapsed * 1e6)
                         : 0.0;
  };
  std::vector<OpPair> pairs;
  double timed_s = 0.0;
  while (static_cast<int>(pairs.size()) < min_pairs ||
         timed_s * 1e3 < budget_ms || pairs.size() % 2 == 0) {
    const auto t0 = std::chrono::steady_clock::now();
    OpPair pair;
    if (pairs.size() % 2 == 0) {
      pair.a_mbps = op_mbps(a);
      pair.b_mbps = op_mbps(b);
    } else {
      pair.b_mbps = op_mbps(b);
      pair.a_mbps = op_mbps(a);
    }
    timed_s += SecondsSince(t0);
    pairs.push_back(pair);
  }
  return pairs;
}

// ---------------------------------------------------------------------------
// Sweep logic.

TunedCell SweepCell(ThroughputProbe& probe, TaxKernel kernel, int size_class,
                    TuneRegime regime,
                    const SoftPrefetchConfig& default_config,
                    const TunerGrid& grid) {
  TunedCell cell;
  cell.kernel = kernel;
  cell.size_class = size_class;
  cell.regime = regime;

  const std::uint64_t min_size = MinSizeForClass(size_class);
  cell.untuned_mbps =
      probe.Measure(kernel, size_class, SoftPrefetchConfig::Disabled(),
                    regime);

  SoftPrefetchConfig def = default_config;
  def.min_size_bytes = min_size;
  cell.default_mbps = probe.Measure(kernel, size_class, def, regime);

  SoftPrefetchConfig best = def;
  double best_mbps = cell.default_mbps;

  // Distance sweep at the pivot degree/locality (Fig. 15a).
  for (const std::uint32_t distance : grid.distances) {
    SoftPrefetchConfig candidate;
    candidate.distance_bytes = distance;
    candidate.degree_bytes = grid.pivot_degree;
    candidate.min_size_bytes = min_size;
    candidate.locality = grid.pivot_locality;
    const double mbps = probe.Measure(kernel, size_class, candidate, regime);
    if (mbps > best_mbps) {
      best = candidate;
      best_mbps = mbps;
    }
  }
  // Degree sweep at the best distance (Fig. 15b).
  for (const std::uint32_t degree : grid.degrees) {
    if (degree == best.degree_bytes) continue;
    SoftPrefetchConfig candidate = best;
    candidate.degree_bytes = degree;
    const double mbps = probe.Measure(kernel, size_class, candidate, regime);
    if (mbps > best_mbps) {
      best = candidate;
      best_mbps = mbps;
    }
  }
  // Locality sweep at the best distance/degree (third axis).
  for (const std::uint8_t locality : grid.localities) {
    if (locality == best.locality) continue;
    SoftPrefetchConfig candidate = best;
    candidate.locality = locality;
    const double mbps = probe.Measure(kernel, size_class, candidate, regime);
    if (mbps > best_mbps) {
      best = candidate;
      best_mbps = mbps;
    }
  }

  // Hysteresis: ship prefetching only when it clearly beats off.
  if (best_mbps < grid.min_gain * cell.untuned_mbps) {
    best = SoftPrefetchConfig::Disabled();
    best_mbps = cell.untuned_mbps;
  }
  cell.best = best;
  cell.tuned_mbps = best_mbps;
  cell.speedup = cell.untuned_mbps > 0.0 ? best_mbps / cell.untuned_mbps
                                         : 1.0;
  return cell;
}

TunerReport RunTunerSweep(ThroughputProbe& probe, const TunerGrid& grid,
                          const std::vector<TuneRegime>& regimes,
                          const PrefetchSiteRegistry& registry,
                          const std::vector<TaxKernel>& only) {
  TunerReport report;
  for (int k = 0; k < kNumTaxKernels; ++k) {
    const TaxKernel kernel = TaxKernelAt(k);
    if (!only.empty() &&
        std::find(only.begin(), only.end(), kernel) == only.end()) {
      continue;
    }
    for (int sc = kFirstTunedSizeClass; sc < kNumSizeClasses; ++sc) {
      const auto default_config =
          registry.Lookup(TaxKernelSiteName(kernel), kSizeClassRepBytes[sc]);
      for (const TuneRegime regime : regimes) {
        report.cells.push_back(SweepCell(
            probe, kernel, sc, regime,
            default_config.value_or(SoftPrefetchConfig::DeployedDefault()),
            grid));
      }
    }
  }
  report.geomean_speedup_hw_off =
      GeomeanSpeedup(report.cells, TuneRegime::kHwOffEmulated);
  report.geomean_speedup_hw_on =
      GeomeanSpeedup(report.cells, TuneRegime::kHwOn);
  return report;
}

double GeomeanSpeedup(const std::vector<TunedCell>& cells,
                      TuneRegime regime) {
  double log_sum = 0.0;
  int count = 0;
  for (const TunedCell& cell : cells) {
    if (cell.regime != regime || cell.speedup <= 0.0) continue;
    log_sum += std::log(cell.speedup);
    ++count;
  }
  return count > 0 ? std::exp(log_sum / count) : 1.0;
}

std::string DescribeTuningHost() {
  std::string model = "unknown CPU";
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[512];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      const char* colon = std::strchr(line, ':');
      if (std::strncmp(line, "model name", 10) != 0 || colon == nullptr) {
        continue;
      }
      model = colon + 1 + std::strspn(colon + 1, " \t");
      while (!model.empty() && (model.back() == '\n' || model.back() == ' ')) {
        model.pop_back();
      }
      break;
    }
    std::fclose(f);
  }
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  long l3_bytes = 0;
#ifdef _SC_LEVEL3_CACHE_SIZE
  l3_bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
#endif
  char l3[32];
  if (l3_bytes > 0) {
    std::snprintf(l3, sizeof(l3), "%.4g MiB L3",
                  static_cast<double>(l3_bytes) / (1024.0 * 1024.0));
  } else {
    std::snprintf(l3, sizeof(l3), "L3 unknown");
  }
  char label[640];
  std::snprintf(label, sizeof(label), "%s, %ld CPU%s, %s", model.c_str(),
                cpus > 0 ? cpus : 1L, cpus > 1 ? "s" : "", l3);
  return label;
}

std::vector<TunedParam> SelectTunedParams(const TunerReport& report,
                                          const char* host) {
  std::vector<TunedParam> params;
  for (const TunedCell& cell : report.cells) {
    if (cell.regime != TuneRegime::kHwOffEmulated) continue;
    params.push_back({cell.kernel, cell.size_class, cell.best,
                      static_cast<float>(cell.untuned_mbps),
                      static_cast<float>(cell.tuned_mbps), host});
  }
  return params;
}

namespace {

// `text` as the body of a C++ string literal.
std::string EscapeForLiteral(const char* text) {
  std::string out;
  for (const char* c = text; *c != '\0'; ++c) {
    if (*c == '"' || *c == '\\') out += '\\';
    out += *c;
  }
  return out;
}

const char* TaxKernelEnumName(TaxKernel kernel) {
  switch (kernel) {
    case TaxKernel::kMemcpy: return "kMemcpy";
    case TaxKernel::kMemmove: return "kMemmove";
    case TaxKernel::kMemset: return "kMemset";
    case TaxKernel::kBlockHash: return "kBlockHash";
    case TaxKernel::kCrc32c: return "kCrc32c";
    case TaxKernel::kCompress: return "kCompress";
    case TaxKernel::kDecompress: return "kDecompress";
    case TaxKernel::kSerialize: return "kSerialize";
    case TaxKernel::kParse: return "kParse";
    case TaxKernel::kVarintEncode: return "kVarintEncode";
    case TaxKernel::kVarintDecode: return "kVarintDecode";
    case TaxKernel::kDictCompress: return "kDictCompress";
    case TaxKernel::kDictDecompress: return "kDictDecompress";
    case TaxKernel::kHashJoinBuild: return "kHashJoinBuild";
    case TaxKernel::kHashJoinProbe: return "kHashJoinProbe";
  }
  return "kMemcpy";
}

}  // namespace

std::string EmitTunedParamsCc(const std::vector<TunedParam>& params) {
  // Distinct row hosts, in order of first appearance.
  std::vector<std::string> hosts;
  std::vector<std::size_t> row_host;
  row_host.reserve(params.size());
  for (const TunedParam& p : params) {
    const std::string host =
        EscapeForLiteral(p.host != nullptr ? p.host : "not recorded");
    std::size_t h = 0;
    while (h < hosts.size() && hosts[h] != host) ++h;
    if (h == hosts.size()) hosts.push_back(host);
    row_host.push_back(h + 1);
  }

  std::string out;
  out +=
      "// Rows are rendered by `bench_tax_tuner --emit-params` from a full "
      "sweep.\n"
      "// A single row may later be replaced by the same cell measured on "
      "another\n"
      "// host, so the table can mix sweeps: each row names the host that "
      "measured\n"
      "// it (CPU model, online CPUs, L3 size).\n"
      "// Config columns: {enabled, distance_bytes, degree_bytes, "
      "min_size_bytes,\n"
      "// locality}. Size classes: 1 = small (4K..64K), 2 = medium "
      "(64K..1M),\n"
      "// 3 = large (>= 1M). Throughputs are MB/s in the "
      "hw-prefetchers-off\n"
      "// (cold, page-scattered) regime on the row's host; zero means the "
      "entry\n"
      "// is hand-seeded from the registry defaults and not yet "
      "measured.\n"
      "#include \"tax/tuned_params.h\"\n\n"
      "#include \"softpf/runtime.h\"\n"
      "#include \"softpf/size_class.h\"\n\n"
      "namespace limoncello {\n\n"
      "namespace {\n\n";
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    out += "constexpr char kHost" + std::to_string(h + 1) + "[] =\n    \"" +
           hosts[h] + "\";\n";
  }
  if (!hosts.empty()) out += "\n";
  out += "constexpr TunedParam kTunedParams[] = {\n";
  char line[256];
  for (std::size_t r = 0; r < params.size(); ++r) {
    const TunedParam& p = params[r];
    std::snprintf(
        line, sizeof(line),
        "    {TaxKernel::%s, %d, {%s, %u, %u, %llu, %u}, %.1ff, %.1ff, "
        "kHost%zu},\n",
        TaxKernelEnumName(p.kernel), p.size_class,
        p.config.enabled ? "true" : "false", p.config.distance_bytes,
        p.config.degree_bytes,
        static_cast<unsigned long long>(p.config.min_size_bytes),
        static_cast<unsigned>(p.config.locality),
        static_cast<double>(p.untuned_mbps),
        static_cast<double>(p.tuned_mbps), row_host[r]);
    out += line;
  }
  out +=
      "};\n\n"
      "}  // namespace\n\n"
      "const TunedParam* TunedParamsBegin() { return kTunedParams; }\n\n"
      "std::size_t TunedParamsCount() {\n"
      "  return sizeof(kTunedParams) / sizeof(kTunedParams[0]);\n"
      "}\n\n"
      "void ApplyTunedParams(PrefetchSiteRegistry* registry) {\n"
      "  const TunedParam* params = TunedParamsBegin();\n"
      "  const std::size_t count = TunedParamsCount();\n"
      "  for (std::size_t i = 0; i < count;) {\n"
      "    const TaxKernel kernel = params[i].kernel;\n"
      "    const char* site = TaxKernelSiteName(kernel);\n"
      "    SizeClassConfigs table;\n"
      "    if (const SizeClassConfigs* existing = "
      "registry->LookupTable(site)) {\n"
      "      table = *existing;\n"
      "    } else {\n"
      "      table.fill(SoftPrefetchConfig::Disabled());\n"
      "    }\n"
      "    for (; i < count && params[i].kernel == kernel; ++i) {\n"
      "      const int sc = params[i].size_class;\n"
      "      if (sc < kFirstTunedSizeClass || sc >= kNumSizeClasses) "
      "continue;\n"
      "      table[static_cast<std::size_t>(sc)] = params[i].config;\n"
      "    }\n"
      "    registry->RegisterTable(site, table);\n"
      "  }\n"
      "}\n\n"
      "bool InstallTunedParams() {\n"
      "  SoftPrefetchRuntime& runtime = SoftPrefetchRuntime::Global();\n"
      "  ApplyTunedParams(&runtime.registry());\n"
      "  runtime.RebuildFastPath();\n"
      "  return true;\n"
      "}\n\n"
      "}  // namespace limoncello\n";
  return out;
}

}  // namespace limoncello
