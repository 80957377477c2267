// High-level prefetcher enable/disable API over raw MSRs.
//
// "The controller in Limoncello enables and disables hardware prefetchers by
// writing to the model-specific registers (MSRs) for prefetchers. The
// register addresses and values vary for different vendors/platforms. For a
// given platform, we disable all prefetchers in the platform." (paper §3)
//
// Two platform register maps are provided:
//  * kIntelStyle — MSR 0x1A4 (MISC_FEATURE_CONTROL): one register, four
//    active-high *disable* bits (L2 stream, L2 adjacent line, DCU streamer,
//    DCU IP-stride).
//  * kAltStyle   — a second-vendor layout: one register, active-high
//    *enable* bits, exercising the polarity/addressing variance the paper
//    calls out.
#ifndef LIMONCELLO_MSR_PREFETCH_CONTROL_H_
#define LIMONCELLO_MSR_PREFETCH_CONTROL_H_

#include <cstdint>
#include <string>

#include "msr/msr_device.h"

namespace limoncello {

// The four per-core prefetch engines modeled throughout the library,
// matching Intel's MSR 0x1A4 bit assignment.
enum class PrefetchEngine : int {
  kL2Stream = 0,        // L2 hardware (stream) prefetcher
  kL2AdjacentLine = 1,  // L2 adjacent-cache-line prefetcher
  kDcuStreamer = 2,     // L1D next-line streamer
  kDcuIpStride = 3,     // L1D instruction-pointer-based stride prefetcher
};
inline constexpr int kNumPrefetchEngines = 4;

const char* PrefetchEngineName(PrefetchEngine engine);

enum class PlatformMsrLayout {
  kIntelStyle,  // MSR 0x1A4, set bit => engine disabled
  kAltStyle,    // MSR 0xC0010900, set bit => engine enabled
};

struct PrefetchMsrMap {
  MsrRegister reg;
  bool set_bit_disables;  // polarity of the per-engine bits
  std::uint64_t engine_mask;

  static PrefetchMsrMap For(PlatformMsrLayout layout);
};

// Per-socket prefetcher actuator. Writes are applied to every CPU in
// [first_cpu, first_cpu + num_cpus); partial failures are reported but do
// not stop the remaining writes (a core may be offline).
class PrefetchControl {
 public:
  PrefetchControl(MsrDevice* device, PlatformMsrLayout layout, int first_cpu,
                  int num_cpus);

  // Returns the number of CPUs successfully written. Callers must check
  // the count against the expected CPU total (limolint's
  // unchecked-msr-write rule flags silently dropped results).
  [[nodiscard]] int DisableAll();
  [[nodiscard]] int EnableAll();
  [[nodiscard]] int SetEngine(PrefetchEngine engine, bool enabled);

  // True iff every engine is enabled (disabled) on every readable CPU;
  // nullopt if no CPU could be read. Each CPU's register is read once.
  std::optional<bool> AllEnabled();
  std::optional<bool> AllDisabled();

  // Reads the engine state on one CPU.
  std::optional<bool> EngineEnabled(int cpu, PrefetchEngine engine);

  const PrefetchMsrMap& msr_map() const { return map_; }

 private:
  int ApplyToAllCpus(std::uint64_t clear_mask, std::uint64_t set_mask);
  // Whether the engine bits of every readable CPU equal `pattern`.
  std::optional<bool> AllEngineBitsEqual(std::uint64_t pattern);

  MsrDevice* device_;
  PrefetchMsrMap map_;
  int first_cpu_;
  int num_cpus_;
};

}  // namespace limoncello

#endif  // LIMONCELLO_MSR_PREFETCH_CONTROL_H_
