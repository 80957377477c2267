// tax_mix: one thread calls all 15 Adaptive* entry points on inputs drawn
// from an arena at least 3x the host L3, with call sizes from
// MemcpySizeDistribution and each kernel weighted by the cycle weight of
// its FunctionCatalog::FleetDefault() entry. An antagonist thread
// streams memcpy over separate buffers, creating the bandwidth pressure
// Soft Limoncello targets. Phase `swpf` tells SoftPrefetchRuntime the
// hardware prefetchers are off (tuned soft prefetch live); phase `plain`
// tells it they are on. The only workload on tax/ and softpf/.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "softpf/runtime.h"
#include "softpf/tax_kernel.h"
#include "tax/adaptive.h"
#include "tax/block_hash.h"
#include "tax/dict_compressor.h"
#include "tax/hash_join.h"
#include "tax/wire_serializer.h"
#include "util/rng.h"
#include "workloads.h"
#include "workloads/function_catalog.h"
#include "workloads/generators.h"

namespace perfbench {
namespace {

using limoncello::Rng;
using limoncello::TaxKernel;

constexpr int kKernels = limoncello::kNumTaxKernels;
// Calls per pass. A pass pair takes under a second, so the steal filter
// can pick out the quiet ones.
constexpr std::size_t kCalls = 100000;
constexpr std::size_t kBatch = 64;
constexpr std::uint64_t kMaxCallBytes = 1 << 20;
constexpr int kMinBucket = 4;   // 16 B
constexpr int kMaxBucket = 20;  // 1 MiB
constexpr int kBlobCopies = 8;
constexpr std::size_t kValues = 1 << 20;
constexpr std::size_t kProbeTableKeys = 1 << 16;
constexpr std::size_t kMaxJoinKeys = 1 << 16;
constexpr int kSetups = 3;
constexpr std::size_t kWarmCalls = 20000;
constexpr std::size_t kCheckStride = 97;
constexpr std::size_t kAntagonistBytes = 64ull << 20;
// Copy rate of the antagonist, bytes/s.
constexpr double kAntagonistRate = 2e9;

constexpr std::array<const char*, kKernels> kEntryNames = {
    "memcpy",     "memmove",         "memset",          "block_hash64",
    "crc32c",     "compress",        "decompress",      "wire_serialize",
    "wire_parse", "varint_encode",   "varint_decode",   "dict_compress",
    "dict_decompress", "hash_join_build", "hash_join_probe"};

// Span names per entry and phase ([0] swpf, [1] plain); static so the
// tracer can key on them.
const std::array<std::array<std::string, kKernels>, 2>& SpanNames() {
  static const std::array<std::array<std::string, kKernels>, 2> names = [] {
    std::array<std::array<std::string, kKernels>, 2> n;
    for (int p = 0; p < 2; ++p) {
      for (int k = 0; k < kKernels; ++k) {
        n[p][k] = std::string("tax.") + kEntryNames[k] +
                  (p == 0 ? ".swpf" : ".plain");
      }
    }
    return n;
  }();
  return names;
}

// hashjoin_build and hashjoin_probe are not FleetDefault() entries: their
// random-access probes would break the fleet model's tax-category
// invariants. They get the weight of the catalog's smallest tax entries
// (the varint and dictionary codecs), so the mix still calls them.
constexpr double kHashJoinWeight = 1.5;

// Kernel weights: the fleet_cycle_weight of the FleetDefault() function
// each kernel stands for (its TaxKernelSiteName).
std::array<double, kKernels> KernelWeights() {
  const limoncello::FunctionCatalog catalog =
      limoncello::FunctionCatalog::FleetDefault();
  std::array<double, kKernels> weights{};
  for (std::size_t id = 0; id < catalog.size(); ++id) {
    const limoncello::FunctionSpec& spec =
        catalog.spec(static_cast<limoncello::FunctionId>(id));
    for (int k = 0; k < kKernels; ++k) {
      if (spec.name ==
          limoncello::TaxKernelSiteName(limoncello::TaxKernelAt(k))) {
        weights[static_cast<std::size_t>(k)] = spec.fleet_cycle_weight;
      }
    }
  }
  weights[static_cast<std::size_t>(TaxKernel::kHashJoinBuild)] =
      kHashJoinWeight;
  weights[static_cast<std::size_t>(TaxKernel::kHashJoinProbe)] =
      kHashJoinWeight;
  return weights;
}

int BucketFor(std::uint64_t n) {
  int b = kMinBucket;
  while (b < kMaxBucket && (1ull << b) < n) ++b;
  return b;
}

struct Call {
  TaxKernel kernel;
  std::uint32_t size;  // bytes (keys/values: size / 8 elements)
  std::uint32_t copy;  // which pre-encoded copy (decoders)
  std::uint64_t src;   // arena offset
  std::uint64_t dst;   // arena offset
};

// Everything the calls read and write. Built once per setup.
struct Inputs {
  std::size_t arena_bytes = 0;
  std::unique_ptr<unsigned char[]> arena;
  std::vector<std::uint64_t> values;     // varint values
  std::vector<std::uint64_t> join_keys;  // probe keys (half hit)
  limoncello::HashJoinTable probe_table;
  limoncello::HashJoinTable build_table;
  std::unordered_map<std::uint64_t, std::uint64_t> probe_reference;
  std::unique_ptr<limoncello::DictCompressor> dict;
  // Pre-encoded inputs of the decoders, per size bucket and copy, with the
  // bytes (or message/values) they decode to.
  struct Blob {
    std::string encoded;
    std::string plain;
    limoncello::WireMessage message;
    std::uint64_t value_offset = 0;
    std::size_t value_count = 0;
  };
  std::vector<std::vector<Blob>> compressed, dict_compressed, serialized,
      varints;
  std::vector<std::vector<limoncello::WireMessage>> messages;
  std::vector<Call> calls;
  // Reused outputs.
  std::string out;
  std::vector<std::uint64_t> decoded;
  limoncello::WireMessage parsed;
  std::vector<std::uint64_t> sums;
};

void FillText(unsigned char* data, std::size_t n, Rng& rng) {
  // Compressible pseudo-text: words from a small vocabulary.
  static const char* kWords[] = {"prefetch ", "bandwidth ", "limoncello ",
                                 "fleet ",    "memory ",    "tax ",
                                 "latency ",  "socket ",    "cache ",
                                 "line ",     "stream ",    "core "};
  std::size_t i = 0;
  constexpr std::size_t kBlock = 1 << 20;
  while (i < std::min(n, kBlock)) {
    const char* w = kWords[rng.NextBounded(12)];
    const std::size_t len = std::min(std::strlen(w), n - i);
    std::memcpy(data + i, w, len);
    i += len;
  }
  // Replicate the block with a varying prefix so copies differ.
  for (std::size_t off = kBlock; off < n; off += kBlock) {
    const std::size_t len = std::min(kBlock, n - off);
    std::memcpy(data + off, data, len);
    const std::uint64_t stamp = rng.NextU64();
    std::memcpy(data + off, &stamp, std::min<std::size_t>(8, len));
  }
}

std::unique_ptr<Inputs> BuildInputs(std::uint64_t seed) {
  auto in = std::make_unique<Inputs>();
  Rng rng(seed);
  in->arena_bytes = std::min<std::uint64_t>(
      1ull << 30, std::max<std::uint64_t>(3 * L3Bytes(), 256ull << 20));
  in->arena.reset(new unsigned char[in->arena_bytes]);
  FillText(in->arena.get(), in->arena_bytes, rng);

  in->values.resize(kValues);
  for (std::uint64_t& v : in->values) {
    v = rng.NextU64() >> rng.NextBounded(64);
  }
  std::vector<std::uint64_t> build_keys(kProbeTableKeys), build_vals(
                                                              kProbeTableKeys);
  for (std::size_t i = 0; i < kProbeTableKeys; ++i) {
    build_keys[i] = rng.NextU64();
    build_vals[i] = rng.NextU64() >> 8;
    in->probe_reference[build_keys[i]] += build_vals[i];
  }
  in->probe_table.Build(build_keys.data(), build_vals.data(),
                        kProbeTableKeys);
  in->join_keys.resize(kValues);
  for (std::uint64_t& k : in->join_keys) {
    k = rng.NextBernoulli(0.5) ? build_keys[rng.NextBounded(kProbeTableKeys)]
                               : rng.NextU64();
  }
  in->build_table.Build(build_keys.data(), build_vals.data(),
                        kMaxJoinKeys);
  in->sums.resize(kMaxJoinKeys);
  in->dict = std::make_unique<limoncello::DictCompressor>(std::string_view(
      reinterpret_cast<const char*>(in->arena.get()), 64 * 1024));

  const int buckets = kMaxBucket + 1;
  in->compressed.resize(buckets);
  in->dict_compressed.resize(buckets);
  in->serialized.resize(buckets);
  in->varints.resize(buckets);
  in->messages.resize(buckets);
  limoncello::WireSerializer serializer;
  for (int b = kMinBucket; b <= kMaxBucket; ++b) {
    const std::size_t n = std::size_t{1} << b;
    for (int c = 0; c < kBlobCopies; ++c) {
      const std::uint64_t off = rng.NextBounded(in->arena_bytes - n);
      const std::string_view plain(
          reinterpret_cast<const char*>(in->arena.get() + off), n);
      Inputs::Blob blob;
      blob.plain = std::string(plain);
      limoncello::AdaptiveCompress(plain, &blob.encoded);
      in->compressed[b].push_back(blob);
      Inputs::Blob dict_blob;
      dict_blob.plain = blob.plain;
      in->dict->Compress(plain, &dict_blob.encoded);
      in->dict_compressed[b].push_back(std::move(dict_blob));
      // A message of ~n payload bytes in fields of up to 256 bytes.
      limoncello::WireMessage message;
      for (std::size_t used = 0, f = 1; used < n; ++f) {
        const std::size_t len = std::min<std::size_t>(256, n - used);
        message.push_back({static_cast<std::uint32_t>(f),
                           std::string(plain.substr(used, len))});
        used += len;
      }
      Inputs::Blob wire_blob;
      serializer.Serialize(message, &wire_blob.encoded);
      wire_blob.message = message;
      in->serialized[b].push_back(std::move(wire_blob));
      in->messages[b].push_back(std::move(message));
      Inputs::Blob varint_blob;
      varint_blob.value_count = std::max<std::size_t>(1, n / 8);
      varint_blob.value_offset =
          rng.NextBounded(kValues - varint_blob.value_count);
      limoncello::AdaptiveVarintEncode(
          in->values.data() + varint_blob.value_offset,
          varint_blob.value_count, &varint_blob.encoded);
      in->varints[b].push_back(std::move(varint_blob));
    }
  }

  const std::array<double, kKernels> weights = KernelWeights();
  double total = 0.0;
  for (double w : weights) total += w;
  const limoncello::MemcpySizeDistribution sizes;
  in->calls.resize(kCalls);
  const std::uint64_t half = in->arena_bytes / 2;
  for (Call& call : in->calls) {
    double pick = rng.NextDouble(0.0, total);
    int k = 0;
    while (k < kKernels - 1 && pick >= weights[static_cast<std::size_t>(k)]) {
      pick -= weights[static_cast<std::size_t>(k)];
      ++k;
    }
    call.kernel = limoncello::TaxKernelAt(k);
    call.size = static_cast<std::uint32_t>(
        std::clamp<std::uint64_t>(sizes.Sample(rng), 8, kMaxCallBytes));
    call.copy = static_cast<std::uint32_t>(rng.NextBounded(kBlobCopies));
    // Sources in one half of the arena, destinations in the other.
    const bool low = rng.NextBernoulli(0.5);
    call.src = (low ? 0 : half) + rng.NextBounded(half - kMaxCallBytes);
    call.dst = (low ? half : 0) + rng.NextBounded(half - kMaxCallBytes);
  }
  return in;
}

// Executes one call; returns the bytes it processed.
std::uint64_t Execute(Inputs& in, const Call& call) {
  unsigned char* arena = in.arena.get();
  const std::size_t n = call.size;
  const std::string_view src(reinterpret_cast<const char*>(arena + call.src),
                             n);
  const int b = BucketFor(n);
  const std::size_t elems = std::max<std::size_t>(1, n / 8);
  switch (call.kernel) {
    case TaxKernel::kMemcpy:
      limoncello::AdaptiveMemcpy(arena + call.dst, arena + call.src, n);
      return n;
    case TaxKernel::kMemmove:
      limoncello::AdaptiveMemmove(arena + call.dst, arena + call.src, n);
      return n;
    case TaxKernel::kMemset:
      limoncello::AdaptiveMemset(arena + call.dst,
                                 static_cast<int>(call.size & 0xff), n);
      return n;
    case TaxKernel::kBlockHash:
      in.decoded.assign(1, limoncello::AdaptiveBlockHash64(src.data(), n));
      return n;
    case TaxKernel::kCrc32c:
      in.decoded.assign(1, limoncello::AdaptiveCrc32c(src.data(), n));
      return n;
    case TaxKernel::kCompress:
      limoncello::AdaptiveCompress(src, &in.out);
      return n;
    case TaxKernel::kDecompress: {
      const Inputs::Blob& blob = in.compressed[b][call.copy];
      (void)limoncello::AdaptiveDecompress(blob.encoded, &in.out);
      return blob.plain.size();
    }
    case TaxKernel::kSerialize: {
      const limoncello::WireMessage& m = in.messages[b][call.copy];
      limoncello::AdaptiveWireSerialize(m, &in.out);
      return in.out.size();
    }
    case TaxKernel::kParse: {
      const Inputs::Blob& blob = in.serialized[b][call.copy];
      (void)limoncello::AdaptiveWireParse(blob.encoded, &in.parsed);
      return blob.encoded.size();
    }
    case TaxKernel::kVarintEncode: {
      const std::uint64_t off = call.src % (kValues - elems);
      limoncello::AdaptiveVarintEncode(in.values.data() + off, elems,
                                       &in.out);
      return elems * 8;
    }
    case TaxKernel::kVarintDecode: {
      const Inputs::Blob& blob = in.varints[b][call.copy];
      (void)limoncello::AdaptiveVarintDecode(blob.encoded, &in.decoded);
      return blob.value_count * 8;
    }
    case TaxKernel::kDictCompress:
      limoncello::AdaptiveDictCompress(*in.dict, src, &in.out);
      return n;
    case TaxKernel::kDictDecompress: {
      const Inputs::Blob& blob = in.dict_compressed[b][call.copy];
      (void)limoncello::AdaptiveDictDecompress(*in.dict, blob.encoded,
                                               &in.out);
      return blob.plain.size();
    }
    case TaxKernel::kHashJoinBuild: {
      const std::size_t keys = std::min(elems, kMaxJoinKeys);
      const std::uint64_t off = call.src % (kValues - keys);
      limoncello::AdaptiveHashJoinBuild(in.build_table,
                                        in.join_keys.data() + off,
                                        in.values.data() + off, keys);
      return keys * 8;
    }
    case TaxKernel::kHashJoinProbe: {
      const std::size_t keys = std::min(elems, kMaxJoinKeys);
      const std::uint64_t off = call.src % (kValues - keys);
      (void)limoncello::AdaptiveHashJoinProbe(
          in.probe_table, in.join_keys.data() + off, keys, in.sums.data());
      return keys * 8;
    }
  }
  return 0;
}

std::uint32_t ReferenceCrc32c(const unsigned char* data, std::size_t n) {
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0x82f63b78u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

// Re-executes a call outside the timed region and checks its output
// against a reference.
bool CheckCall(Inputs& in, const Call& call) {
  unsigned char* arena = in.arena.get();
  const std::size_t n = call.size;
  const std::string_view src(reinterpret_cast<const char*>(arena + call.src),
                             n);
  const int b = BucketFor(n);
  const std::size_t elems = std::max<std::size_t>(1, n / 8);
  (void)Execute(in, call);
  switch (call.kernel) {
    case TaxKernel::kMemcpy:
    case TaxKernel::kMemmove:
      return std::memcmp(arena + call.dst, arena + call.src, n) == 0;
    case TaxKernel::kMemset:
      return std::all_of(arena + call.dst, arena + call.dst + n,
                         [&](unsigned char c) {
                           return c == (call.size & 0xff);
                         });
    case TaxKernel::kBlockHash:
      return in.decoded[0] == limoncello::BlockHash64(src.data(), n);
    case TaxKernel::kCrc32c:
      return in.decoded[0] ==
             ReferenceCrc32c(reinterpret_cast<const unsigned char*>(
                                 src.data()),
                             n);
    case TaxKernel::kCompress: {
      std::string round;
      return limoncello::AdaptiveDecompress(in.out, &round) && round == src;
    }
    case TaxKernel::kDecompress:
      return in.out == in.compressed[b][call.copy].plain;
    case TaxKernel::kSerialize: {
      limoncello::WireMessage back;
      return limoncello::AdaptiveWireParse(in.out, &back) &&
             back == in.messages[b][call.copy];
    }
    case TaxKernel::kParse:
      return in.parsed == in.serialized[b][call.copy].message;
    case TaxKernel::kVarintEncode: {
      const std::uint64_t off = call.src % (kValues - elems);
      std::vector<std::uint64_t> back;
      return limoncello::AdaptiveVarintDecode(in.out, &back) &&
             std::equal(back.begin(), back.end(), in.values.begin() + off,
                        in.values.begin() + off + elems) &&
             back.size() == elems;
    }
    case TaxKernel::kVarintDecode: {
      const Inputs::Blob& blob = in.varints[b][call.copy];
      return in.decoded.size() == blob.value_count &&
             std::equal(in.decoded.begin(), in.decoded.end(),
                        in.values.begin() + blob.value_offset);
    }
    case TaxKernel::kDictCompress: {
      std::string round;
      return limoncello::AdaptiveDictDecompress(*in.dict, in.out, &round) &&
             round == src;
    }
    case TaxKernel::kDictDecompress:
      return in.out == in.dict_compressed[b][call.copy].plain;
    case TaxKernel::kHashJoinBuild: {
      const std::size_t keys = std::min(elems, kMaxJoinKeys);
      const std::uint64_t off = call.src % (kValues - keys);
      std::unordered_map<std::uint64_t, std::uint64_t> reference;
      for (std::size_t i = 0; i < keys; ++i) {
        reference[in.join_keys[off + i]] += in.values[off + i];
      }
      std::vector<std::uint64_t> sums(keys);
      (void)in.build_table.Probe(in.join_keys.data() + off, keys,
                                 sums.data());
      for (std::size_t i = 0; i < keys; ++i) {
        if (sums[i] != reference[in.join_keys[off + i]]) return false;
      }
      return true;
    }
    case TaxKernel::kHashJoinProbe: {
      const std::size_t keys = std::min(elems, kMaxJoinKeys);
      const std::uint64_t off = call.src % (kValues - keys);
      for (std::size_t i = 0; i < keys; ++i) {
        const auto it = in.probe_reference.find(in.join_keys[off + i]);
        const std::uint64_t want =
            it == in.probe_reference.end() ? 0 : it->second;
        if (in.sums[i] != want) return false;
      }
      return true;
    }
  }
  return false;
}

// Streams memcpy over its own buffers at a fixed rate until stopped. A
// paced stream keeps the pressure the same from run to run, where an
// unpaced one would take whatever bandwidth the host has left.
class Antagonist {
 public:
  Antagonist()
      : src_(new unsigned char[kAntagonistBytes]),
        dst_(new unsigned char[kAntagonistBytes]) {
    std::memset(src_.get(), 0x5a, kAntagonistBytes);
    std::memset(dst_.get(), 0, kAntagonistBytes);
    thread_ = std::thread([this] {
      const std::uint64_t start = NowNs();
      std::uint64_t copied = 0;
      std::size_t offset = 0;
      while (!stop_.load(std::memory_order_relaxed)) {
        const double due_s = static_cast<double>(copied) / kAntagonistRate;
        if (static_cast<double>(NowNs() - start) < due_s * 1e9) continue;
        std::memcpy(dst_.get() + offset, src_.get() + offset, kChunk);
        offset = (offset + kChunk) % kAntagonistBytes;
        copied += kChunk;
      }
      achieved_ = static_cast<double>(copied) * 1e9 /
                  static_cast<double>(NowNs() - start);
    });
  }
  // Joins the thread; returns the bytes/s the antagonist moved.
  double Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return achieved_;
  }
  ~Antagonist() { Stop(); }
  Antagonist(const Antagonist&) = delete;
  Antagonist& operator=(const Antagonist&) = delete;

 private:
  static constexpr std::size_t kChunk = 1 << 20;
  std::unique_ptr<unsigned char[]> src_;
  std::unique_ptr<unsigned char[]> dst_;
  std::atomic<bool> stop_{false};
  double achieved_ = 0.0;
  std::thread thread_;
};

struct PassStats {
  std::uint64_t bytes = 0;
  double seconds = 0.0;
  std::vector<double> pass_mb_per_s;
  std::vector<double> batch_us;
  std::array<std::uint64_t, kKernels> entry_bytes{};
  std::array<double, kKernels> entry_ns{};
};

// Runs the first `calls` calls of the sequence in one phase.
void RunPass(Inputs& in, int phase, std::size_t calls, Tracer* tracer,
             PassStats* stats) {
  limoncello::SoftPrefetchRuntime::Global().SetHwPrefetchersEnabled(phase !=
                                                                    0);
  const auto& names = SpanNames();
  const std::uint64_t bytes_before = stats->bytes;
  const double seconds_before = stats->seconds;
  for (std::size_t first = 0; first < calls; first += kBatch) {
    const std::size_t last = std::min(calls, first + kBatch);
    const auto t0 = Clock::now();
    std::uint64_t bytes = 0;
    {
      Span batch(tracer, "tax_mix.batch");
      for (std::size_t i = first; i < last; ++i) {
        const Call& call = in.calls[i];
        if (tracer == nullptr) {
          bytes += Execute(in, call);
          continue;
        }
        const auto k = static_cast<std::size_t>(call.kernel);
        const std::uint64_t c0 = NowNs();
        std::uint64_t done = 0;
        {
          Span s(tracer, names[static_cast<std::size_t>(phase)][k].c_str());
          done = Execute(in, call);
        }
        stats->entry_ns[k] += static_cast<double>(NowNs() - c0);
        stats->entry_bytes[k] += done;
        bytes += done;
      }
    }
    const double seconds = SecondsBetween(t0, Clock::now());
    stats->batch_us.push_back(seconds * 1e6);
    stats->seconds += seconds;
    stats->bytes += bytes;
  }
  stats->pass_mb_per_s.push_back(
      static_cast<double>(stats->bytes - bytes_before) /
      (stats->seconds - seconds_before) / 1e6);
}

// Times ConfigFor over the call sequence with the hardware prefetchers
// reported off, the swpf phase's state, in which the lookup reaches the
// kernel x size-class table (with them on it returns at the policy check).
double ProbeConfigForNs(const Inputs& in, Tracer* tracer) {
  limoncello::SoftPrefetchRuntime& runtime =
      limoncello::SoftPrefetchRuntime::Global();
  runtime.SetHwPrefetchersEnabled(false);
  constexpr int kRounds = 10;
  std::uint64_t enabled = 0;
  const auto t0 = Clock::now();
  {
    Span s(tracer, "softpf.config_for");
    for (int r = 0; r < kRounds; ++r) {
      for (const Call& call : in.calls) {
        enabled += runtime.ConfigFor(call.kernel, call.size).enabled;
      }
    }
  }
  const double ns = SecondsBetween(t0, Clock::now()) * 1e9 /
                    (kRounds * static_cast<double>(in.calls.size()));
  runtime.SetHwPrefetchersEnabled(true);
  if (enabled == 1) std::printf(" \n");
  return ns;
}

}  // namespace

WorkloadResult RunTaxMix(const RunOptions& opt, Tracer* tracer) {
  WorkloadResult r;
  r.workload = "tax_mix";
  const auto begin = Clock::now();
  std::vector<double> setup_s, setup_steal;
  std::unique_ptr<Inputs> in;
  for (int i = 0; i < kSetups; ++i) {
    in.reset();
    const CpuTimes steal0 = CpuTimes::Now();
    const auto t0 = Clock::now();
    in = BuildInputs(opt.seed);
    for (std::size_t c = 0; c < kWarmCalls; ++c) {
      (void)Execute(*in, in->calls[c]);
    }
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    setup_steal.push_back(StealShare(steal0, CpuTimes::Now()));
  }

  PassStats stats[2];  // [0] swpf, [1] plain
  // One entry per swpf+plain pass pair: bytes/s, and the steal share.
  std::vector<double> pair_rate, pair_steal;
  std::uint64_t allocs = 0;
  double antagonist_rate = 0.0;
  {
    Antagonist antagonist;
    // Untimed warm-up under the antagonist's pressure: one whole pass per
    // phase, so every call's buffers have grown before timing starts.
    PassStats warm[2];
    for (int phase = 0; phase < 2; ++phase) {
      RunPass(*in, phase, kCalls, nullptr, &warm[phase]);
    }
    const auto t0 = Clock::now();
    const double budget = opt.seconds - SecondsBetween(begin, t0);
    AllocCounter::Start();
    // Alternate the phases so drift hits both alike.
    do {
      const std::uint64_t bytes = stats[0].bytes + stats[1].bytes;
      const double seconds = stats[0].seconds + stats[1].seconds;
      const CpuTimes steal0 = CpuTimes::Now();
      for (int phase = 0; phase < 2; ++phase) {
        RunPass(*in, phase, kCalls, tracer, &stats[phase]);
      }
      pair_steal.push_back(StealShare(steal0, CpuTimes::Now()));
      pair_rate.push_back(
          static_cast<double>(stats[0].bytes + stats[1].bytes - bytes) /
          (stats[0].seconds + stats[1].seconds - seconds));
    } while (tracer == nullptr && SecondsBetween(t0, Clock::now()) < budget);
    allocs = AllocCounter::Stop();
    antagonist_rate = antagonist.Stop();
  }

  // The sampled calls, re-run in each phase's prefetch state, so the
  // soft-prefetch paths the swpf phase times are checked too.
  for (int phase = 0; phase < 2; ++phase) {
    limoncello::SoftPrefetchRuntime::Global().SetHwPrefetchersEnabled(phase !=
                                                                      0);
    for (std::size_t i = 0; i < in->calls.size(); i += kCheckStride) {
      ++r.attempted;
      if (!CheckCall(*in, in->calls[i])) ++r.failed;
    }
  }
  limoncello::SoftPrefetchRuntime::Global().SetHwPrefetchersEnabled(true);

  // Over the pass pairs (and setups) the hypervisor stole least from; the
  // medians are robust to a host stall during one of them.
  const std::vector<std::size_t> keep = LeastStolen(pair_steal);
  const std::size_t batches_per_pass = (kCalls + kBatch - 1) / kBatch;
  std::vector<double> kept_batch_us[2], kept_mb_per_s[2];
  for (int phase = 0; phase < 2; ++phase) {
    const PassStats& ps = stats[phase];
    for (std::size_t pass : keep) {
      kept_mb_per_s[phase].push_back(ps.pass_mb_per_s[pass]);
      kept_batch_us[phase].insert(
          kept_batch_us[phase].end(),
          ps.batch_us.begin() +
              static_cast<std::ptrdiff_t>(pass * batches_per_pass),
          ps.batch_us.begin() +
              static_cast<std::ptrdiff_t>((pass + 1) * batches_per_pass));
    }
  }
  r.setup_s = Median(Select(setup_s, LeastStolen(setup_steal)));
  r.peak_rss_mb = PeakRssMb();
  r.work_per_s = Median(Select(pair_rate, keep));
  r.a_p50_us = Median(kept_batch_us[0]);
  r.a_p90_us = RankTail(kept_batch_us[0], 0.9).value;
  r.b_p50_us = Median(kept_batch_us[1]);
  r.b_p90_us = RankTail(kept_batch_us[1], 0.9).value;
  r.named = {
      {"tax_mb_per_s_swpf", Median(kept_mb_per_s[0]), "MB/s"},
      {"tax_mb_per_s_plain", Median(kept_mb_per_s[1]), "MB/s"},
  };
  char buf[400];
  std::snprintf(buf, sizeof(buf),
                "tax: arena %.0f MiB (host L3 %.0f MiB), %zu calls/pass in "
                "batches of %zu, 1 caller + 1 antagonist thread (%.2f GB/s), "
                "%zu pass pairs, %zu kept (steal max %.1f%%), %llu heap "
                "allocations while timed",
                static_cast<double>(in->arena_bytes) / (1 << 20),
                static_cast<double>(L3Bytes()) / (1 << 20), kCalls, kBatch,
                antagonist_rate / 1e9, pair_rate.size(), keep.size(),
                100.0 * *std::max_element(pair_steal.begin(), pair_steal.end()),
                static_cast<unsigned long long>(allocs));
  r.notes.push_back(buf);
  std::string passes = "tax: MB/s per pass (swpf/plain):";
  for (std::size_t i = 0; i < stats[0].pass_mb_per_s.size(); ++i) {
    char pass[64];
    std::snprintf(pass, sizeof(pass), " %.0f/%.0f", stats[0].pass_mb_per_s[i],
                  stats[1].pass_mb_per_s[i]);
    passes += pass;
  }
  r.notes.push_back(passes);
  std::snprintf(buf, sizeof(buf), "tax: batch tails: swpf %s, plain %s",
                DescribeTail(RankTail(kept_batch_us[0], 0.9)).c_str(),
                DescribeTail(RankTail(kept_batch_us[1], 0.9)).c_str());
  r.notes.push_back(buf);

  if (tracer != nullptr) {
    for (int phase = 0; phase < 2; ++phase) {
      for (int k = 0; k < kKernels; ++k) {
        const auto ks = static_cast<std::size_t>(k);
        const double ns = stats[phase].entry_ns[ks];
        r.per_layer.push_back(
            {std::string("tax.") + kEntryNames[ks] + ".mb_per_s." +
                 (phase == 0 ? "swpf" : "plain"),
             ns > 0 ? static_cast<double>(stats[phase].entry_bytes[ks]) /
                          ns * 1e3
                    : 0.0,
             "MB/s"});
      }
    }
    r.per_layer.push_back(
        {"softpf.config_for_ns", ProbeConfigForNs(*in, tracer), "ns"});
    std::snprintf(buf, sizeof(buf), "tax.allocs = %llu (with the tracer's own)",
                  static_cast<unsigned long long>(allocs));
    r.notes.push_back(buf);
  }
  r.correct = r.failed == 0;
  return r;
}

}  // namespace perfbench
