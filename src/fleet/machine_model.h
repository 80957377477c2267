// Analytic per-machine performance model for fleet-scale simulation.
//
// The detailed socket simulator (sim/) is too slow for thousands of
// machines over hours of simulated time, so the fleet uses this analytic
// twin. It shares the bandwidth→latency curve with the detailed model and
// summarizes prefetcher behaviour with the per-platform PrefetchResponse
// scalars (coverage/accuracy/pollution — the quantities the detailed
// model measures).
//
// Crucially the *control path is real*: each machine owns a simulated MSR
// device; Hard Limoncello's daemon writes the platform's prefetch-control
// register through PrefetchControl, and the machine derives its
// prefetchers-on/off state from those register bits — the same
// actuation chain as the detailed simulator and real hardware.
//
// Hot-state layout: the scalars the tick loop touches every tick live in
// a FleetState structure-of-arrays (fleet_state.h), indexed by this
// machine's slot. A machine constructed without a FleetState owns a
// private single-slot instance, so standalone use (tests, figure tools)
// is unchanged; fleets pass one shared FleetState so 100k machines' hot
// state packs into contiguous cache-line-aligned arrays. The FleetState
// also carries the per-service demand table (demand_model.h), so a fleet
// derives each service's load-independent coefficients once.
#ifndef LIMONCELLO_FLEET_MACHINE_MODEL_H_
#define LIMONCELLO_FLEET_MACHINE_MODEL_H_

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "core/actuator.h"
#include "core/controller_config.h"
#include "core/daemon.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "fleet/fleet_state.h"
#include "fleet/platform.h"
#include "fleet/service.h"
#include "msr/simulated_msr_device.h"
#include "sim/memory/latency_curve.h"
#include "stats/saturating.h"
#include "telemetry/telemetry.h"
#include "util/rng.h"
#include "util/units.h"

namespace limoncello {

enum class DeploymentMode {
  kBaseline,        // hardware prefetchers always on (pre-rollout fleet)
  kAblationOff,     // hardware prefetchers always off (ablation arm)
  kHardLimoncello,  // dynamic modulation only
  kFullLimoncello,  // dynamic modulation + software prefetching
};

const char* DeploymentModeName(DeploymentMode mode);

// limolint:hot-struct — MachineModel is ticked 60M times per default
// bench run; new per-tick state belongs in FleetState's SoA arrays, not
// in std::vector members here (see fleet_state.h).
class MachineModel {
 public:
  struct Task {
    int service_index = 0;
    const ServiceSpec* spec = nullptr;
    // Fraction of the service's nominal QPS placed on this machine.
    double share = 0.0;
  };

  struct TickResult {
    double cpu_utilization = 0.0;        // busy cores / cores
    double bandwidth_gbps = 0.0;         // total traffic
    double bandwidth_utilization = 0.0;  // vs saturation threshold
    double latency_ns = 0.0;             // load-to-use latency this tick
    double offered_qps = 0.0;
    double served_qps = 0.0;
    bool prefetchers_on = true;
    // True while a crash window keeps the machine off: offered load is
    // dropped on the floor and no daemon/demand modelling runs.
    bool down = false;
    // Cycles spent per function category this tick (for Fig. 20).
    std::array<double, kNumCategories> category_cycles{};
  };

  // Availability/reconvergence accounting under injected faults.
  // SatCounter throughout: these feed the chaos-soak summary banners,
  // where a wrapped count is a lie and a pinned one is visibly absurd.
  struct FaultRecovery {
    // Ticks (machine up, daemon present) where the hardware prefetcher
    // state disagreed with the FSM's intent.
    SatCounter diverged_ticks;
    // Completed divergence episodes (state came back in line).
    SatCounter reconverge_events;
    SatCounter reconverge_ticks_sum;
    SatCounter max_reconverge_ticks;
    SatCounter down_ticks;
    // Ticks the machine served with its controller daemon dead (daemon-
    // restart fault windows; distinct from machine down_ticks).
    SatCounter daemon_down_ticks;
    // Daemon restarts actually performed (a window whose end falls
    // inside machine downtime restarts once the machine is back).
    SatCounter daemon_restarts;
  };

  // `fault_plan`, when non-null, must outlive the machine; it inserts the
  // fault-injection decorators into the telemetry and MSR paths and
  // enables crash/reboot modelling. daemon_snapshot_period_ticks > 0
  // models the state journal in-memory: the daemon's state is
  // snapshotted after actuations and every period ticks, and a daemon
  // restarted by a fault window warm-restores from the snapshot and
  // reconciles against the hardware — the same lifecycle limoncellod
  // runs with a real journal file (src/recovery/), kept in-memory here
  // so fleet ticks stay deterministic and IO-free.
  //
  // `fleet_state` + `slot`, when given, place this machine's hot scalars
  // in the shared SoA arrays (fleet_state must outlive the machine);
  // null means the machine owns a single-slot FleetState. `latency_lut`,
  // when given, must be built from `platform.latency` and outlive the
  // machine; null means the machine builds its own table.
  MachineModel(const PlatformConfig& platform, DeploymentMode mode,
               const ControllerConfig& controller_config, Rng rng,
               const FaultPlan* fault_plan = nullptr,
               int daemon_snapshot_period_ticks = 0,
               FleetState* fleet_state = nullptr, std::size_t slot = 0,
               const LatencyLut* latency_lut = nullptr);

  // Non-copyable, non-movable: the MSR observer and telemetry adapter
  // hold back-pointers to this object.
  MachineModel(const MachineModel&) = delete;
  MachineModel& operator=(const MachineModel&) = delete;

  // Adds a task. The first task of a service on this machine's
  // FleetState also adds the service's row to the FleetState's demand
  // table (demand_model.h), which every machine on it reads while it
  // ticks. So AddTask must not run while another machine on the same
  // FleetState ticks: FleetSimulator calls it (and ClearTasks) only in
  // its serial phases, placement and Rebalance between epochs.
  void AddTask(const Task& task);
  void ClearTasks();
  const std::vector<Task>& tasks() const { return tasks_; }

  // Advances one telemetry tick. load_factors is indexed by service_index.
  TickResult Tick(SimTimeNs now_ns,
                  const std::vector<double>& load_factors);

  bool prefetchers_on() const {
    return state_->prefetchers_on[slot_] != 0;
  }
  DeploymentMode mode() const { return mode_; }
  const PlatformConfig& platform() const { return platform_; }
  const LimoncelloDaemon* daemon() const { return daemon_.get(); }
  // Null unless a FaultPlan was supplied.
  const FaultInjector* injector() const { return injector_.get(); }
  const FaultRecovery& fault_recovery() const { return recovery_; }

  // Estimated additional CPU-utilization cost of adding `share` of the
  // given service (used by the scheduler for placement).
  double EstimateCpuCost(const ServiceSpec& spec, double share) const;
  double last_bandwidth_utilization() const {
    return state_->last_bw_utilization[slot_];
  }
  double last_cpu_utilization() const {
    return state_->last_cpu_utilization[slot_];
  }

 private:
  // Telemetry adapter: reports the last completed tick's utilization.
  class TelemetryAdapter : public UtilizationSource {
   public:
    explicit TelemetryAdapter(MachineModel* machine) : machine_(machine) {}
    std::optional<double> SampleUtilization() override;

   private:
    MachineModel* machine_;
  };

  // Rebuilds the daemon after a restart window closes: fresh process
  // state, warm restore from the in-memory snapshot when one exists,
  // then hardware reconciliation (cold or warm).
  void RestartDaemon();

  // SoA slot accessors (hot scalars live in *state_, not in members).
  Rng& rng() { return state_->rng[slot_]; }
  void SetPrefetchersOn(bool on) {
    state_->prefetchers_on[slot_] = on ? 1 : 0;
  }
  // Mirrors the daemon FSM state into the SoA array (no-op reader side
  // for machines without a daemon, which stay at kEnabledSteady = 0).
  void MirrorControllerState();

  PlatformConfig platform_;
  DeploymentMode mode_;
  // Owned single-slot state for standalone machines; null when the
  // machine lives in a fleet-shared FleetState.
  std::unique_ptr<FleetState> own_state_;
  FleetState* state_;
  std::size_t slot_;
  std::unique_ptr<LatencyLut> own_lut_;
  const LatencyLut* lut_;
  // Cold: mutated only at placement/rebalance, read-only inside Tick.
  std::vector<Task> tasks_;  // limolint:allow(hot-struct-vector)

  // Control plane (real Limoncello components). The fault decorators sit
  // between the daemon and the real device/telemetry when a plan is
  // given; declaration order matters (prefetch_control_ may point at the
  // decorator, which wraps msr_).
  SimulatedMsrDevice msr_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<FaultyMsrDevice> faulty_msr_;
  PrefetchControl prefetch_control_;
  std::unique_ptr<TelemetryAdapter> telemetry_;
  std::unique_ptr<FaultyUtilizationSource> faulty_telemetry_;
  std::unique_ptr<MsrPrefetchActuator> actuator_;
  std::unique_ptr<LimoncelloDaemon> daemon_;
  FaultRecovery recovery_;
  // Length of the currently open divergence episode, in ticks.
  std::uint64_t divergence_run_ = 0;

  // Daemon-restart modelling (active when a plan schedules restarts).
  ControllerConfig controller_config_;
  int snapshot_period_ticks_ = 0;
  // The telemetry source the daemon reads (post-decorator); kept so a
  // rebuilt daemon wires to the same chain and down ticks can burn one
  // sample to keep the rng stream aligned with a restart-free arm.
  UtilizationSource* daemon_source_ = nullptr;
  std::optional<LimoncelloDaemon::PersistentState> journal_snapshot_;
  bool daemon_restart_pending_ = false;

  bool soft_prefetch_on_ = false;
  double telemetry_noise_stddev_ = 0.01;
};

}  // namespace limoncello

#endif  // LIMONCELLO_FLEET_MACHINE_MODEL_H_
