#include "msr/prefetch_control.h"

#include "util/check.h"

namespace limoncello {

namespace {

// Intel MISC_FEATURE_CONTROL: bits 0..3 disable the four engines.
constexpr MsrRegister kIntelMiscFeatureControl = 0x1a4;
// Fictional second-vendor prefetch configuration register with inverted
// polarity (set bit => engine enabled).
constexpr MsrRegister kAltPrefetchConfig = 0xc0010900;

constexpr std::uint64_t kFourEngineMask = 0xf;

std::uint64_t EngineBit(PrefetchEngine engine) {
  return 1ULL << static_cast<int>(engine);
}

}  // namespace

const char* PrefetchEngineName(PrefetchEngine engine) {
  switch (engine) {
    case PrefetchEngine::kL2Stream:
      return "l2_stream";
    case PrefetchEngine::kL2AdjacentLine:
      return "l2_adjacent_line";
    case PrefetchEngine::kDcuStreamer:
      return "dcu_streamer";
    case PrefetchEngine::kDcuIpStride:
      return "dcu_ip_stride";
  }
  return "unknown";
}

PrefetchMsrMap PrefetchMsrMap::For(PlatformMsrLayout layout) {
  switch (layout) {
    case PlatformMsrLayout::kIntelStyle:
      return {kIntelMiscFeatureControl, /*set_bit_disables=*/true,
              kFourEngineMask};
    case PlatformMsrLayout::kAltStyle:
      return {kAltPrefetchConfig, /*set_bit_disables=*/false,
              kFourEngineMask};
  }
  LIMONCELLO_CHECK(false);
  return {};
}

PrefetchControl::PrefetchControl(MsrDevice* device, PlatformMsrLayout layout,
                                 int first_cpu, int num_cpus)
    : device_(device),
      map_(PrefetchMsrMap::For(layout)),
      first_cpu_(first_cpu),
      num_cpus_(num_cpus) {
  LIMONCELLO_CHECK(device != nullptr);
  LIMONCELLO_CHECK_GE(first_cpu, 0);
  LIMONCELLO_CHECK_GT(num_cpus, 0);
  LIMONCELLO_CHECK_LE(first_cpu + num_cpus, device->num_cpus());
}

int PrefetchControl::ApplyToAllCpus(std::uint64_t clear_mask,
                                    std::uint64_t set_mask) {
  int ok = 0;
  for (int cpu = first_cpu_; cpu < first_cpu_ + num_cpus_; ++cpu) {
    const auto current = device_->Read(cpu, map_.reg);
    if (!current.has_value()) continue;
    const std::uint64_t next = (*current & ~clear_mask) | set_mask;
    if (next != *current && !device_->Write(cpu, map_.reg, next)) continue;
    if (next == *current || device_->Read(cpu, map_.reg) == next) ++ok;
  }
  return ok;
}

int PrefetchControl::DisableAll() {
  if (map_.set_bit_disables) {
    return ApplyToAllCpus(/*clear_mask=*/0, /*set_mask=*/map_.engine_mask);
  }
  return ApplyToAllCpus(/*clear_mask=*/map_.engine_mask, /*set_mask=*/0);
}

int PrefetchControl::EnableAll() {
  if (map_.set_bit_disables) {
    return ApplyToAllCpus(/*clear_mask=*/map_.engine_mask, /*set_mask=*/0);
  }
  return ApplyToAllCpus(/*clear_mask=*/0, /*set_mask=*/map_.engine_mask);
}

int PrefetchControl::SetEngine(PrefetchEngine engine, bool enabled) {
  const std::uint64_t bit = EngineBit(engine);
  const bool set = map_.set_bit_disables ? !enabled : enabled;
  if (set) return ApplyToAllCpus(/*clear_mask=*/0, /*set_mask=*/bit);
  return ApplyToAllCpus(/*clear_mask=*/bit, /*set_mask=*/0);
}

std::optional<bool> PrefetchControl::EngineEnabled(int cpu,
                                                   PrefetchEngine engine) {
  const auto value = device_->Read(cpu, map_.reg);
  if (!value.has_value()) return std::nullopt;
  const bool bit_set = (*value & EngineBit(engine)) != 0;
  return map_.set_bit_disables ? !bit_set : bit_set;
}

std::optional<bool> PrefetchControl::AllEnabled() {
  return AllEngineBitsEqual(map_.set_bit_disables ? 0 : map_.engine_mask);
}

std::optional<bool> PrefetchControl::AllDisabled() {
  return AllEngineBitsEqual(map_.set_bit_disables ? map_.engine_mask : 0);
}

std::optional<bool> PrefetchControl::AllEngineBitsEqual(
    std::uint64_t pattern) {
  bool any_read = false;
  for (int cpu = first_cpu_; cpu < first_cpu_ + num_cpus_; ++cpu) {
    const auto value = device_->Read(cpu, map_.reg);
    if (!value.has_value()) continue;
    any_read = true;
    if ((*value & map_.engine_mask) != pattern) return false;
  }
  if (!any_read) return std::nullopt;
  return true;
}

}  // namespace limoncello
