// In-memory MSR register file with write observers and failure injection.
//
// The simulated machine registers an observer so that controller writes to
// the prefetch-control MSR take effect on the simulated prefetch engines —
// the same actuation path Limoncello uses on real hardware.
#ifndef LIMONCELLO_MSR_SIMULATED_MSR_DEVICE_H_
#define LIMONCELLO_MSR_SIMULATED_MSR_DEVICE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "msr/msr_device.h"

namespace limoncello {

class SimulatedMsrDevice : public MsrDevice {
 public:
  // Observer invoked after a successful write: (cpu, reg, new value).
  using WriteObserver =
      std::function<void(int cpu, MsrRegister reg, std::uint64_t value)>;

  explicit SimulatedMsrDevice(int num_cpus);

  int num_cpus() const override { return num_cpus_; }
  std::optional<std::uint64_t> Read(int cpu, MsrRegister reg) override;
  [[nodiscard]] bool Write(int cpu, MsrRegister reg,
                           std::uint64_t value) override;

  void AddWriteObserver(WriteObserver observer);

  // Failure injection: reads/writes to the given CPU fail until cleared.
  void FailCpu(int cpu);
  void UnfailCpu(int cpu);

  // Clears every register file back to the unwritten state, as a reboot
  // does (observers and failure flags are kept; no observers fire — the
  // reset is silent, which is exactly what makes reboots dangerous).
  void ResetToPowerOn();

  // Test introspection: value last written (0 if never), write and read
  // counts (failed calls included).
  std::uint64_t PeekRaw(int cpu, MsrRegister reg) const;
  std::uint64_t write_count() const { return write_count_; }
  std::uint64_t read_count() const { return read_count_; }

 private:
  // One written register across all CPUs. A daemon touches exactly one
  // register (prefetch control), so storage is flat: a short linearly
  // scanned list of registers, each with a dense per-CPU value array.
  // This replaces a std::map per CPU (dozens of node allocations per
  // machine, pointer-chased on every read) with two allocations total —
  // at 100k fleet machines that difference dominates construction time.
  // Unwritten registers still read as zero.
  struct RegisterFile {
    MsrRegister reg = 0;
    std::vector<std::uint64_t> per_cpu;
  };

  bool CpuOk(int cpu) const;
  const RegisterFile* FindFile(MsrRegister reg) const;
  RegisterFile* FindOrCreateFile(MsrRegister reg);

  int num_cpus_ = 0;
  std::vector<RegisterFile> files_;
  std::vector<bool> failed_;
  std::vector<WriteObserver> observers_;
  std::uint64_t write_count_ = 0;
  std::uint64_t read_count_ = 0;
};

}  // namespace limoncello

#endif  // LIMONCELLO_MSR_SIMULATED_MSR_DEVICE_H_
