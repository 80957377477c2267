// The committed per-kernel tuned prefetch parameter table.
//
// The autotuner (tax/tax_tuner.h, driven by bench_tax_tuner) sweeps
// distance/degree/locality per kernel x size class against the self-timer
// and emits this table; the Adaptive* entry points install it into the
// global SoftPrefetchRuntime on first use, so every adaptive call runs
// with host-tuned parameters rather than the paper's one-size deployment
// compromise. Regenerate with `bench_tax_tuner --emit-params`.
//
// The best config for a cell depends on the host that measured it, so
// every row names its tuning host. A row re-measured on another host may
// replace a single row of an older table; the gate (bench_tax_gate)
// reports each row's host beside its committed throughput.
#ifndef LIMONCELLO_TAX_TUNED_PARAMS_H_
#define LIMONCELLO_TAX_TUNED_PARAMS_H_

#include <cstddef>

#include "softpf/prefetch_site_registry.h"
#include "softpf/soft_prefetch_config.h"
#include "softpf/tax_kernel.h"

namespace limoncello {

struct TunedParam {
  TaxKernel kernel;
  int size_class;  // kFirstTunedSizeClass .. kNumSizeClasses - 1
  SoftPrefetchConfig config;
  // Throughput the tuner measured for this cell in the
  // hardware-prefetchers-off regime (MB/s); zero for hand-seeded entries.
  float untuned_mbps;
  float tuned_mbps;
  // Host whose sweep measured this row: CPU model, online CPUs, L3 size
  // (see DescribeTuningHost in tax/tax_tuner.h).
  const char* host;
};

// The committed table, in (kernel, size_class) order.
const TunedParam* TunedParamsBegin();
std::size_t TunedParamsCount();

// Overwrites the registry's per-size-class entries for every kernel the
// tuned table covers. Size classes the table does not mention keep their
// registry values; the tiny class stays disabled.
void ApplyTunedParams(PrefetchSiteRegistry* registry);

// Applies the tuned table to the global runtime's registry and rebuilds
// its fast path. Runs once per process (idempotent; thread-safe when
// reached through a magic static, as the Adaptive* wrappers do).
bool InstallTunedParams();

}  // namespace limoncello

#endif  // LIMONCELLO_TAX_TUNED_PARAMS_H_
