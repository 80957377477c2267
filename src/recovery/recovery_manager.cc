#include "recovery/recovery_manager.h"

#include "util/check.h"

namespace limoncello {

RecoveryManager::RecoveryManager(const RecoveryOptions& options,
                                 LimoncelloDaemon* daemon)
    : options_(options),
      daemon_(daemon),
      journal_({.path = options.state_file,
                .fsync_each_append = options.fsync_each_append}) {
  LIMONCELLO_CHECK(daemon != nullptr);
  LIMONCELLO_CHECK_GE(options.snapshot_period_ticks, 1);
  LIMONCELLO_CHECK_GE(options.compact_every_appends, 1);
}

RecoveryResult RecoveryManager::RecoverAndReconcile() {
  RecoveryResult result;
  result.replay = StateJournal::Replay(options_.state_file);
  if (result.replay.state.has_value()) {
    result.warm = daemon_->RestoreState(*result.replay.state);
    result.rejected_state = !result.warm;
  }
  // Reconcile on cold starts too: a fresh daemon asserting its power-on
  // intent fixes hardware left disabled by a predecessor whose journal
  // was lost — exactly the silent divergence recovery exists to close.
  result.reconcile = daemon_->ReconcileHardwareState();
  last_recovery_ = result;
  return result;
}

void RecoveryManager::OnTickComplete(
    const LimoncelloDaemon::TickRecord& record) {
  const bool actuated = record.action != ControllerAction::kNone;
  const std::uint64_t period =
      static_cast<std::uint64_t>(options_.snapshot_period_ticks);
  if (!actuated && daemon_->stats().ticks % period != 0) return;
  if (appends_since_snapshot_ >= options_.compact_every_appends) {
    // Compaction folds the newest state in: the snapshot IS the record.
    (void)FlushSnapshot();
    return;
  }
  if (journal_.Append(daemon_->ExportState())) ++appends_since_snapshot_;
}

bool RecoveryManager::FlushSnapshot() {
  if (!journal_.WriteSnapshot(daemon_->ExportState())) return false;
  appends_since_snapshot_ = 0;
  return true;
}

EndpointRecoveryResult RecoverEndpointStates(const std::string& path,
                                             ControlPlane* plane) {
  LIMONCELLO_CHECK(plane != nullptr);
  EndpointRecoveryResult result;
  result.replay = EndpointStateJournal::Replay(path);
  if (!result.replay.states.empty()) {
    result.adopted = plane->RestoreEndpoints(result.replay.states);
    result.rejected =
        static_cast<int>(result.replay.states.size()) - result.adopted;
  }
  return result;
}

}  // namespace limoncello
