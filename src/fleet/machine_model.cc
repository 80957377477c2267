#include "fleet/machine_model.h"

#include <algorithm>
#include <cmath>

#include "fleet/demand_model.h"
#include "util/check.h"

namespace limoncello {

const char* DeploymentModeName(DeploymentMode mode) {
  switch (mode) {
    case DeploymentMode::kBaseline:
      return "baseline";
    case DeploymentMode::kAblationOff:
      return "ablation_off";
    case DeploymentMode::kHardLimoncello:
      return "hard_limoncello";
    case DeploymentMode::kFullLimoncello:
      return "full_limoncello";
  }
  return "unknown";
}

std::optional<double> MachineModel::TelemetryAdapter::SampleUtilization() {
  double u = machine_->state_->last_bw_utilization[machine_->slot_];
  if (machine_->telemetry_noise_stddev_ > 0.0) {
    u += machine_->rng().NextGaussian(0.0,
                                      machine_->telemetry_noise_stddev_);
  }
  return std::max(0.0, u);
}

MachineModel::MachineModel(const PlatformConfig& platform,
                           DeploymentMode mode,
                           const ControllerConfig& controller_config,
                           Rng rng, const FaultPlan* fault_plan,
                           int daemon_snapshot_period_ticks,
                           FleetState* fleet_state, std::size_t slot,
                           const LatencyLut* latency_lut)
    : platform_(platform),
      mode_(mode),
      own_state_(fleet_state != nullptr ? nullptr : new FleetState(1)),
      state_(fleet_state != nullptr ? fleet_state : own_state_.get()),
      slot_(fleet_state != nullptr ? slot : 0),
      own_lut_(latency_lut != nullptr ? nullptr
                                      : new LatencyLut(platform.latency)),
      lut_(latency_lut != nullptr ? latency_lut : own_lut_.get()),
      msr_(platform.cores),
      injector_(fault_plan != nullptr
                    ? std::make_unique<FaultInjector>(fault_plan)
                    : nullptr),
      faulty_msr_(injector_ != nullptr
                      ? std::make_unique<FaultyMsrDevice>(&msr_,
                                                          injector_.get())
                      : nullptr),
      prefetch_control_(faulty_msr_ != nullptr
                            ? static_cast<MsrDevice*>(faulty_msr_.get())
                            : &msr_,
                        platform.msr_layout, 0, platform.cores) {
  LIMONCELLO_CHECK_LT(slot_, state_->size());
  // Claim the hot-state slot: the machine's RNG stream and zeroed
  // telemetry scalars (a fleet-shared FleetState may be reused across
  // machine generations in principle, so never trust the slot's bits).
  this->rng() = rng;
  state_->last_bw_utilization[slot_] = 0.0;
  state_->last_cpu_utilization[slot_] = 0.0;
  state_->utilization_ewma[slot_] = 0.0;
  state_->last_offered_qps[slot_] = 0.0;
  state_->last_served_qps[slot_] = 0.0;
  state_->controller_state[slot_] = 0;
  // Wire register bits to the machine's prefetcher state: the machine is
  // "on" only when every engine on every core is enabled. (One observer
  // per machine; reads back through PrefetchControl.)
  msr_.AddWriteObserver([this](int, MsrRegister, std::uint64_t) {
    const std::optional<bool> all_on = prefetch_control_.AllEnabled();
    SetPrefetchersOn(all_on.value_or(true));
  });
  if (injector_ != nullptr) {
    // Reboot: the register file silently reverts to the BIOS default
    // (all prefetchers enabled). The reset acts on the *inner* device —
    // firmware does not route through the fault decorator — and the
    // power-on writes cannot fail there.
    injector_->SetRebootCallback([this] {
      msr_.ResetToPowerOn();
      const PrefetchMsrMap& map = prefetch_control_.msr_map();
      const std::uint64_t power_on =
          map.set_bit_disables ? 0 : map.engine_mask;
      for (int cpu = 0; cpu < platform_.cores; ++cpu) {
        LIMONCELLO_CHECK(msr_.Write(cpu, map.reg, power_on));
      }
    });
  }
  // Power-on state: prefetchers enabled. On enable-bit layouts this
  // requires setting the bits (the register file zero-initializes). This
  // happens before any injector tick, so the writes cannot fail.
  LIMONCELLO_CHECK_EQ(prefetch_control_.EnableAll(), platform.cores);
  SetPrefetchersOn(true);

  switch (mode_) {
    case DeploymentMode::kBaseline:
      SetPrefetchersOn(true);
      break;
    case DeploymentMode::kAblationOff:
      LIMONCELLO_CHECK_EQ(prefetch_control_.DisableAll(), platform.cores);
      break;
    case DeploymentMode::kFullLimoncello:
      soft_prefetch_on_ = true;
      [[fallthrough]];
    case DeploymentMode::kHardLimoncello: {
      telemetry_ = std::make_unique<TelemetryAdapter>(this);
      actuator_ = std::make_unique<MsrPrefetchActuator>(&prefetch_control_,
                                                        platform_.cores);
      UtilizationSource* source = telemetry_.get();
      if (injector_ != nullptr) {
        faulty_telemetry_ = std::make_unique<FaultyUtilizationSource>(
            telemetry_.get(), injector_.get());
        source = faulty_telemetry_.get();
      }
      daemon_ = std::make_unique<LimoncelloDaemon>(controller_config,
                                                   source, actuator_.get());
      // Fleet machines never read the daemon's per-tick traces, and at
      // 100k machines x 600 ticks the TimeSeries appends would dominate
      // both allocation and memory. Tools that want traces own their
      // daemons directly.
      daemon_->set_trace_recording(false);
      controller_config_ = controller_config;
      snapshot_period_ticks_ = daemon_snapshot_period_ticks;
      daemon_source_ = source;
      if (injector_ != nullptr) {
        // The restart itself runs from Tick (not from inside BeginTick):
        // the window may close while the machine is crashed, in which
        // case the supervisor's restart waits for the reboot.
        injector_->SetDaemonRestartCallback(
            [this] { daemon_restart_pending_ = true; });
      }
      break;
    }
  }
  MirrorControllerState();
}

void MachineModel::MirrorControllerState() {
  state_->controller_state[slot_] =
      daemon_ != nullptr
          ? static_cast<std::uint64_t>(daemon_->controller().state())
          : 0;
}

// limolint:cold-path — crash recovery: runs only when a fault window
// killed the daemon, a designed rarity that may allocate freely.
void MachineModel::RestartDaemon() {
  ++recovery_.daemon_restarts;
  // A new process: every bit of in-memory daemon state is gone. Only
  // the journal snapshot (if any) and the hardware registers survive.
  daemon_ = std::make_unique<LimoncelloDaemon>(controller_config_,
                                               daemon_source_,
                                               actuator_.get());
  daemon_->set_trace_recording(false);
  if (journal_snapshot_.has_value()) {
    // Rejected snapshots degrade to a cold start, same as limoncellod.
    (void)daemon_->RestoreState(*journal_snapshot_);
  }
  // Cold or warm, the fresh daemon asserts its intent against whatever
  // state the hardware froze at while it was dead.
  (void)daemon_->ReconcileHardwareState();
}

void MachineModel::AddTask(const Task& task) {
  LIMONCELLO_CHECK(task.spec != nullptr);
  LIMONCELLO_CHECK_GT(task.share, 0.0);
  state_->demand.AddService(*task.spec, task.service_index,
                            platform_.prefetch);
  tasks_.push_back(task);
}

void MachineModel::ClearTasks() { tasks_.clear(); }

double MachineModel::EstimateCpuCost(const ServiceSpec& spec,
                                     double share) const {
  // Optimistic estimate at unloaded latency with prefetchers on.
  const double latency_ns = platform_.latency.unloaded_ns;
  const double mpki = spec.base_mpki * 0.7;  // rough coverage discount
  const double cpi = platform_.base_cpi +
                     mpki / 1000.0 * latency_ns * platform_.freq_ghz /
                         platform_.mlp;
  const double instr_per_sec =
      spec.nominal_qps * share * spec.instructions_per_request;
  const double cores_needed =
      instr_per_sec * cpi / (platform_.freq_ghz * 1e9);
  return cores_needed / static_cast<double>(platform_.cores);
}

// limolint:hot-path — per-machine per-tick entry point; the fleet engine
// calls this 100k times per simulated tick, and bench_fleet_gate pins its
// steady-state allocation rate below 0.05/machine-tick.
MachineModel::TickResult MachineModel::Tick(
    SimTimeNs now_ns, const std::vector<double>& load_factors) {
  // 0. Fault windows open/close before anything observes them; a crash
  // window (or its ending reboot) short-circuits the whole tick.
  if (injector_ != nullptr) {
    injector_->BeginTick();
    if (injector_->MachineDown()) {
      TickResult down_result;
      down_result.down = true;
      down_result.prefetchers_on = prefetchers_on();
      // Load is still routed here and all of it fails.
      for (const Task& task : tasks_) {
        const double factor =
            task.service_index < static_cast<int>(load_factors.size())
                ? load_factors[static_cast<std::size_t>(task.service_index)]
                : 1.0;
        down_result.offered_qps +=
            task.spec->nominal_qps * task.share * factor;
      }
      ++recovery_.down_ticks;
      state_->last_bw_utilization[slot_] = 0.0;
      state_->last_cpu_utilization[slot_] = 0.0;
      state_->last_offered_qps[slot_] = down_result.offered_qps;
      state_->last_served_qps[slot_] = 0.0;
      return down_result;
    }
  }

  // 1. Control plane: the daemon observes last tick's telemetry and may
  // toggle the prefetchers via MSR writes before this tick's work runs.
  if (daemon_ != nullptr && daemon_restart_pending_ &&
      (injector_ == nullptr || !injector_->DaemonDown())) {
    RestartDaemon();
    daemon_restart_pending_ = false;
  }
  if (daemon_ != nullptr && injector_ != nullptr &&
      injector_->DaemonDown()) {
    // The controller process is dead but the machine keeps serving on
    // the frozen prefetcher state. The telemetry exporter outlives the
    // daemon, so burn this tick's sample: the machine rng advances
    // exactly as it would with a live daemon, keeping the run
    // comparable sample-for-sample with a restart-free control arm.
    (void)daemon_source_->SampleUtilization();
    ++recovery_.daemon_down_ticks;
  } else if (daemon_ != nullptr) {
    const LimoncelloDaemon::TickRecord tick_record =
        daemon_->RunTick(now_ns);
    // Divergence accounting: ticks where the hardware state disagrees
    // with the FSM's intent (injected MSR failures, post-reboot BIOS
    // state) — the reconvergence metric the chaos tests assert on.
    const bool intent = daemon_->controller().PrefetchersShouldBeEnabled();
    if (prefetchers_on() != intent) {
      ++recovery_.diverged_ticks;
      ++divergence_run_;
    } else if (divergence_run_ > 0) {
      ++recovery_.reconverge_events;
      recovery_.reconverge_ticks_sum += divergence_run_;
      recovery_.max_reconverge_ticks = std::max<std::uint64_t>(
          recovery_.max_reconverge_ticks, divergence_run_);
      divergence_run_ = 0;
    }
    // In-memory journal: same cadence as RecoveryManager (every
    // actuation, plus every period ticks).
    if (snapshot_period_ticks_ > 0 &&
        (tick_record.action != ControllerAction::kNone ||
         daemon_->stats().ticks %
                 static_cast<std::uint64_t>(snapshot_period_ticks_) ==
             0)) {
      journal_snapshot_ = daemon_->ExportState();
    }
  }
  MirrorControllerState();

  TickResult result;
  result.prefetchers_on = prefetchers_on();

  // 2. Demand model: one pass over the tasks reduces the whole machine
  // to three scalar coefficients (DemandScalars, demand_model.h), so the
  // operating-point solve below runs on pure scalars. Only a task's
  // instruction rate depends on load; its service's per-kilo-instruction
  // misses and traffic under this tick's prefetch regime come from the
  // demand table this machine's FleetState shares (computed once per
  // service, with the same arithmetic this loop used to repeat).
  const ServiceDemandTable& demand_table = state_->demand;
  const PrefetchRegime regime =
      prefetchers_on()    ? PrefetchRegime::kHardware
      : soft_prefetch_on_ ? PrefetchRegime::kSoftware
                          : PrefetchRegime::kNone;
  double offered_total = 0.0;
  DemandScalars demand;
  // Per-category instruction and miss rates (for the cycle accounting).
  std::array<double, kNumCategories> cat_instr{};
  std::array<double, kNumCategories> cat_miss{};
  for (const Task& task : tasks_) {
    const double factor =
        task.service_index < static_cast<int>(load_factors.size())
            ? load_factors[static_cast<std::size_t>(task.service_index)]
            : 1.0;
    const ServiceSpec& spec = *task.spec;
    const DemandCoefficients& k =
        demand_table.Find(task.spec, task.service_index)
            .by_regime[static_cast<std::size_t>(regime)];
    const double offered = spec.nominal_qps * task.share * factor;
    const double instr_rate = offered * spec.instructions_per_request;
    offered_total += offered;
    for (std::size_t ci = 0; ci < kNumCategories; ++ci) {
      cat_instr[ci] += instr_rate * spec.category_mix[ci];
      // "/ 1000.0", not "* 0.001": the two round differently.
      cat_miss[ci] += instr_rate * k.misses[ci] / 1000.0;
    }
    const double core_rate = instr_rate / (platform_.freq_ghz * 1e9);
    demand.cores_base += core_rate * platform_.base_cpi;
    demand.cores_miss += core_rate * k.mpki_eff / 1000.0;
    demand.bytes_at_full += instr_rate * k.traffic_per_kinstr / 1000.0 *
                            static_cast<double>(kCacheLineBytes);
  }

  // 3. Fixed point: latency depends on utilization, utilization depends
  // on served work, served work depends on latency (via CPI). The map
  // u -> utilization(latency(u)) is monotone decreasing, so the
  // self-consistent operating point is the answer of a 20-step bisection
  // (damped iteration oscillates on the steep part of the curve).
  // SolveOperatingPoint returns that answer bit for bit while evaluating
  // the map at a handful of points instead of 22.
  const OperatingPoint op = SolveOperatingPoint(demand, platform_, *lut_);
  const double cores = static_cast<double>(platform_.cores);
  const double saturation_bytes = platform_.saturation_gbps * 1e9;
  const double scale = op.scale;
  const double total_bytes = op.total_bytes;
  const double latency_ns = lut_->At(op.utilization);
  result.latency_ns = latency_ns;
  const double miss_penalty_cycles =
      latency_ns * platform_.freq_ghz / platform_.mlp;

  // 4. Outputs.
  result.offered_qps = offered_total;
  result.served_qps = offered_total * scale;
  for (int c = 0; c < kNumCategories; ++c) {
    const std::size_t ci = static_cast<std::size_t>(c);
    // cycles = instructions * base_cpi + misses * penalty, at the served
    // (scaled) instruction rate.
    result.category_cycles[ci] =
        scale * (cat_instr[ci] * platform_.base_cpi +
                 cat_miss[ci] * miss_penalty_cycles);
  }
  const double busy_cores = std::min(op.required_cores * scale, cores);
  result.cpu_utilization = busy_cores / cores;
  result.bandwidth_gbps = total_bytes / 1e9;
  result.bandwidth_utilization = total_bytes / saturation_bytes;

  // 5. Close the loop for the next tick.
  state_->last_bw_utilization[slot_] = result.bandwidth_utilization;
  state_->last_cpu_utilization[slot_] = result.cpu_utilization;
  state_->last_offered_qps[slot_] = result.offered_qps;
  state_->last_served_qps[slot_] = result.served_qps;
  state_->utilization_ewma[slot_] +=
      0.35 * (result.bandwidth_utilization -
              state_->utilization_ewma[slot_]);
  return result;
}

}  // namespace limoncello
