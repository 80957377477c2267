#include "msr/simulated_msr_device.h"

#include "util/check.h"

namespace limoncello {

SimulatedMsrDevice::SimulatedMsrDevice(int num_cpus)
    : num_cpus_(num_cpus),
      failed_(static_cast<std::size_t>(num_cpus), false) {
  LIMONCELLO_CHECK_GT(num_cpus, 0);
}

bool SimulatedMsrDevice::CpuOk(int cpu) const {
  return cpu >= 0 && cpu < num_cpus_ &&
         !failed_[static_cast<std::size_t>(cpu)];
}

const SimulatedMsrDevice::RegisterFile* SimulatedMsrDevice::FindFile(
    MsrRegister reg) const {
  for (const RegisterFile& file : files_) {
    if (file.reg == reg) return &file;
  }
  return nullptr;
}

SimulatedMsrDevice::RegisterFile* SimulatedMsrDevice::FindOrCreateFile(
    MsrRegister reg) {
  for (RegisterFile& file : files_) {
    if (file.reg == reg) return &file;
  }
  RegisterFile file;
  file.reg = reg;
  // First touch of a register allocates its flat per-CPU file once; every
  // later access hits the existing storage (bench_fleet_gate counts the
  // steady state).
  file.per_cpu.assign(  // limolint:allow(hot-path-alloc)
      static_cast<std::size_t>(num_cpus_), 0);
  files_.push_back(std::move(file));  // limolint:allow(hot-path-alloc)
  return &files_.back();
}

std::optional<std::uint64_t> SimulatedMsrDevice::Read(int cpu,
                                                      MsrRegister reg) {
  ++read_count_;
  if (!CpuOk(cpu)) return std::nullopt;
  const RegisterFile* file = FindFile(reg);
  // Unwritten registers read as zero, matching the "all prefetchers
  // enabled" power-on default of Intel's 0x1A4 (disable bits clear).
  return file == nullptr ? 0
                         : file->per_cpu[static_cast<std::size_t>(cpu)];
}

bool SimulatedMsrDevice::Write(int cpu, MsrRegister reg,
                               std::uint64_t value) {
  if (!CpuOk(cpu)) return false;
  FindOrCreateFile(reg)->per_cpu[static_cast<std::size_t>(cpu)] = value;
  ++write_count_;
  for (const auto& observer : observers_) observer(cpu, reg, value);
  return true;
}

void SimulatedMsrDevice::AddWriteObserver(WriteObserver observer) {
  observers_.push_back(std::move(observer));
}

void SimulatedMsrDevice::ResetToPowerOn() {
  // Zeroing the value arrays is indistinguishable from forgetting the
  // registers entirely: both read back as the power-on default.
  for (RegisterFile& file : files_) {
    file.per_cpu.assign(file.per_cpu.size(), 0);
  }
}

void SimulatedMsrDevice::FailCpu(int cpu) {
  LIMONCELLO_CHECK(cpu >= 0 && cpu < num_cpus_);
  failed_[static_cast<std::size_t>(cpu)] = true;
}

void SimulatedMsrDevice::UnfailCpu(int cpu) {
  LIMONCELLO_CHECK(cpu >= 0 && cpu < num_cpus_);
  failed_[static_cast<std::size_t>(cpu)] = false;
}

std::uint64_t SimulatedMsrDevice::PeekRaw(int cpu, MsrRegister reg) const {
  LIMONCELLO_CHECK(cpu >= 0 && cpu < num_cpus_);
  const RegisterFile* file = FindFile(reg);
  return file == nullptr ? 0
                         : file->per_cpu[static_cast<std::size_t>(cpu)];
}

}  // namespace limoncello
