// Rows are rendered by `bench_tax_tuner --emit-params` from a full sweep.
// A single row may later be replaced by the same cell measured on another
// host, so the table can mix sweeps: each row names the host that measured
// it (CPU model, online CPUs, L3 size).
// Config columns: {enabled, distance_bytes, degree_bytes, min_size_bytes,
// locality}. Size classes: 1 = small (4K..64K), 2 = medium (64K..1M),
// 3 = large (>= 1M). Throughputs are MB/s in the hw-prefetchers-off
// (cold, page-scattered) regime on the row's host; zero means the entry
// is hand-seeded from the registry defaults and not yet measured.
#include "tax/tuned_params.h"

#include "softpf/runtime.h"
#include "softpf/size_class.h"

namespace limoncello {

namespace {

constexpr char kHost1[] =
    "Emerald Rapids Firecracker guest, 1 CPU, L3 not recorded";
constexpr char kHost2[] =
    "Intel(R) Xeon(R) Processor, 4 CPUs, 300 MiB L3";

constexpr TunedParam kTunedParams[] = {
    {TaxKernel::kMemcpy, 1, {false, 512, 256, 2048, 3}, 8465.3f, 8465.3f, kHost1},
    {TaxKernel::kMemcpy, 2, {true, 4096, 128, 65536, 2}, 9374.3f, 9989.7f, kHost1},
    {TaxKernel::kMemcpy, 3, {true, 4096, 1024, 1048576, 3}, 8002.2f, 8678.7f, kHost1},
    {TaxKernel::kMemmove, 1, {false, 512, 256, 2048, 3}, 8167.9f, 8167.9f, kHost1},
    {TaxKernel::kMemmove, 2, {true, 4096, 512, 65536, 3}, 9270.8f, 10003.9f, kHost1},
    {TaxKernel::kMemmove, 3, {false, 512, 256, 2048, 3}, 10547.8f, 10547.8f, kHost1},
    {TaxKernel::kMemset, 1, {true, 512, 1024, 4096, 3}, 6993.3f, 7959.7f, kHost1},
    {TaxKernel::kMemset, 2, {true, 4096, 512, 65536, 3}, 8150.7f, 10169.9f, kHost1},
    {TaxKernel::kMemset, 3, {false, 512, 256, 2048, 3}, 9003.8f, 9003.8f, kHost2},
    {TaxKernel::kBlockHash, 1, {true, 4096, 256, 4096, 0}, 3921.6f, 4010.2f, kHost1},
    {TaxKernel::kBlockHash, 2, {true, 4096, 128, 65536, 2}, 4930.9f, 5068.2f, kHost1},
    {TaxKernel::kBlockHash, 3, {true, 256, 256, 1048576, 3}, 4941.2f, 5075.5f, kHost1},
    {TaxKernel::kCrc32c, 1, {true, 256, 256, 4096, 2}, 4665.6f, 4771.4f, kHost1},
    {TaxKernel::kCrc32c, 2, {true, 4096, 64, 65536, 3}, 5333.0f, 5551.2f, kHost1},
    {TaxKernel::kCrc32c, 3, {false, 512, 256, 2048, 3}, 5425.1f, 5425.1f, kHost1},
    {TaxKernel::kCompress, 1, {false, 512, 256, 2048, 3}, 471.8f, 471.8f, kHost1},
    {TaxKernel::kCompress, 2, {false, 512, 256, 2048, 3}, 337.4f, 337.4f, kHost1},
    {TaxKernel::kCompress, 3, {true, 4096, 256, 1048576, 2}, 300.8f, 336.2f, kHost1},
    {TaxKernel::kDecompress, 1, {true, 128, 256, 4096, 2}, 315.7f, 326.5f, kHost1},
    {TaxKernel::kDecompress, 2, {true, 256, 256, 65536, 3}, 191.2f, 197.5f, kHost1},
    {TaxKernel::kDecompress, 3, {true, 4096, 256, 1048576, 1}, 162.1f, 195.2f, kHost1},
    {TaxKernel::kSerialize, 1, {true, 256, 128, 4096, 3}, 8938.4f, 9121.8f, kHost1},
    {TaxKernel::kSerialize, 2, {true, 128, 128, 65536, 3}, 8494.9f, 9457.0f, kHost1},
    {TaxKernel::kSerialize, 3, {true, 4096, 1024, 1048576, 3}, 3216.3f, 3931.8f, kHost1},
    {TaxKernel::kParse, 1, {true, 512, 256, 4096, 3}, 3307.1f, 3983.0f, kHost1},
    {TaxKernel::kParse, 2, {false, 512, 256, 2048, 3}, 5142.7f, 5142.7f, kHost1},
    {TaxKernel::kParse, 3, {true, 1024, 256, 1048576, 3}, 4486.4f, 4585.4f, kHost1},
    {TaxKernel::kVarintEncode, 1, {true, 2048, 128, 4096, 3}, 759.9f, 901.9f, kHost1},
    {TaxKernel::kVarintEncode, 2, {true, 2048, 64, 65536, 3}, 326.4f, 389.8f, kHost1},
    {TaxKernel::kVarintEncode, 3, {true, 128, 1024, 1048576, 3}, 307.9f, 343.4f, kHost1},
    {TaxKernel::kVarintDecode, 1, {true, 4096, 256, 4096, 2}, 644.2f, 1413.2f, kHost1},
    {TaxKernel::kVarintDecode, 2, {true, 2048, 1024, 65536, 3}, 407.3f, 433.3f, kHost1},
    {TaxKernel::kVarintDecode, 3, {false, 512, 256, 2048, 3}, 427.8f, 427.8f, kHost1},
    {TaxKernel::kDictCompress, 1, {false, 512, 256, 2048, 3}, 70.1f, 70.1f, kHost1},
    {TaxKernel::kDictCompress, 2, {true, 4096, 512, 65536, 3}, 52.0f, 58.9f, kHost1},
    {TaxKernel::kDictCompress, 3, {true, 512, 1024, 1048576, 3}, 34.8f, 39.2f, kHost1},
    {TaxKernel::kDictDecompress, 1, {false, 512, 256, 2048, 3}, 262.5f, 262.5f, kHost1},
    {TaxKernel::kDictDecompress, 2, {false, 512, 256, 2048, 3}, 134.3f, 134.3f, kHost1},
    {TaxKernel::kDictDecompress, 3, {false, 512, 256, 2048, 3}, 128.8f, 128.8f, kHost1},
    {TaxKernel::kHashJoinBuild, 1, {false, 512, 256, 2048, 3}, 4930.4f, 4930.4f, kHost1},
    {TaxKernel::kHashJoinBuild, 2, {false, 512, 256, 2048, 3}, 2389.3f, 2389.3f, kHost1},
    {TaxKernel::kHashJoinBuild, 3, {false, 512, 256, 2048, 3}, 2142.7f, 2142.7f, kHost1},
    {TaxKernel::kHashJoinProbe, 1, {true, 256, 256, 4096, 3}, 96.5f, 282.2f, kHost1},
    {TaxKernel::kHashJoinProbe, 2, {true, 256, 256, 65536, 3}, 197.9f, 240.6f, kHost1},
    {TaxKernel::kHashJoinProbe, 3, {true, 256, 256, 1048576, 3}, 129.4f, 148.5f, kHost1},
};

}  // namespace

const TunedParam* TunedParamsBegin() { return kTunedParams; }

std::size_t TunedParamsCount() {
  return sizeof(kTunedParams) / sizeof(kTunedParams[0]);
}

void ApplyTunedParams(PrefetchSiteRegistry* registry) {
  const TunedParam* params = TunedParamsBegin();
  const std::size_t count = TunedParamsCount();
  for (std::size_t i = 0; i < count;) {
    const TaxKernel kernel = params[i].kernel;
    const char* site = TaxKernelSiteName(kernel);
    SizeClassConfigs table;
    if (const SizeClassConfigs* existing = registry->LookupTable(site)) {
      table = *existing;
    } else {
      table.fill(SoftPrefetchConfig::Disabled());
    }
    for (; i < count && params[i].kernel == kernel; ++i) {
      const int sc = params[i].size_class;
      if (sc < kFirstTunedSizeClass || sc >= kNumSizeClasses) continue;
      table[static_cast<std::size_t>(sc)] = params[i].config;
    }
    registry->RegisterTable(site, table);
  }
}

bool InstallTunedParams() {
  SoftPrefetchRuntime& runtime = SoftPrefetchRuntime::Global();
  ApplyTunedParams(&runtime.registry());
  runtime.RebuildFastPath();
  return true;
}

}  // namespace limoncello
