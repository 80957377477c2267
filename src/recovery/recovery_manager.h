// Warm-restart orchestration for the controller daemon.
//
// The RecoveryManager owns a StateJournal and a (non-owned) daemon and
// implements the daemon lifecycle around it:
//
//   startup   RecoverAndReconcile(): replay the journal, adopt the
//             newest valid snapshot (any corruption degrades to a cold
//             start, never a crash), then reconcile the recovered
//             *intent* against the actual hardware through the
//             actuator's readback — the journal records what the FSM
//             decided from telemetry history, so on mismatch the
//             hardware is moved to match the journal (DESIGN.md §11).
//   per tick  OnTickComplete(): journal the state after every actuation
//             and on every snapshot_period_ticks-th tick; every other
//             tick returns without touching the journal or the heap,
//             keeping persistence off the steady-state hot path
//             (bench_socket's recovery arm gates this). After
//             compact_every_appends appends the next journaled state is
//             written as a snapshot instead, folding the journal down to
//             one record (bounds file size and replay time).
//   shutdown  FlushSnapshot(): compact the journal to a single atomic
//             snapshot of the current state (the SIGTERM path).
#ifndef LIMONCELLO_RECOVERY_RECOVERY_MANAGER_H_
#define LIMONCELLO_RECOVERY_RECOVERY_MANAGER_H_

#include "control/control_plane.h"
#include "core/daemon.h"
#include "recovery/state_journal.h"

namespace limoncello {

struct RecoveryOptions {
  std::string state_file;
  // Quiet-tick journal cadence: bounds how stale a recovered snapshot
  // can be. Actuation ticks always journal regardless.
  int snapshot_period_ticks = 8;
  // Rewrite the journal down to one record every this many appends.
  // Must be >= 1.
  int compact_every_appends = 64;
  bool fsync_each_append = false;
};

struct RecoveryResult {
  // True when a journal snapshot was adopted (daemon warm-restarted).
  bool warm = false;
  // A record decoded but failed the daemon's field validation — corrupt
  // in a way the CRC cannot see. Cold start.
  bool rejected_state = false;
  ReconcileStatus reconcile = ReconcileStatus::kUnknown;
  JournalReplay replay;
};

class RecoveryManager {
 public:
  // `daemon` must outlive the manager.
  RecoveryManager(const RecoveryOptions& options, LimoncelloDaemon* daemon);

  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  // Startup recovery; call once, before the first RunTick.
  RecoveryResult RecoverAndReconcile();

  // Call after every LimoncelloDaemon::RunTick with its TickRecord.
  void OnTickComplete(const LimoncelloDaemon::TickRecord& record);

  // Graceful-shutdown flush. Returns false on IO failure.
  bool FlushSnapshot();

  const RecoveryResult& last_recovery() const { return last_recovery_; }
  const StateJournal& journal() const { return journal_; }

 private:
  RecoveryOptions options_;
  LimoncelloDaemon* daemon_;
  StateJournal journal_;
  int appends_since_snapshot_ = 0;
  RecoveryResult last_recovery_;
};

// Warm restart for the sharded control plane: replay the per-endpoint
// journal at `path` and hand every recovered record to
// ControlPlane::RestoreEndpoints, which validates each one against the
// FSM's invariants (invalid records cold-start that endpoint) and
// re-asserts the restored intent through the actuator — the same
// journal-wins-over-hardware rule as the single-socket daemon.
struct EndpointRecoveryResult {
  int adopted = 0;   // endpoints warm-restored
  int rejected = 0;  // decoded records that failed plane validation
  EndpointJournalReplay replay;

  bool Warm() const { return adopted > 0; }
};

EndpointRecoveryResult RecoverEndpointStates(const std::string& path,
                                             ControlPlane* plane);

}  // namespace limoncello

#endif  // LIMONCELLO_RECOVERY_RECOVERY_MANAGER_H_
