// Membership changes of the memory cloud (paper §6.2): failure, restart,
// leader election, recovery, the heartbeat sweep, re-replication, trunk
// migration and snapshots. See "Who recovers what" in
// docs/fault_tolerance.md.

#include <algorithm>
#include <map>

#include "cloud/memory_cloud.h"
#include "cloud/replica_placement.h"
#include "common/serializer.h"

namespace trinity::cloud {

void MemoryCloud::MarkDownLocked(MachineId m) {
  // A crash or kill takes the RAM; a deposed machine's endpoint is still up
  // and keeps its image. Readers that pinned the storage keep theirs.
  if (!fabric_->IsMachineUp(m)) machines_[m].storage.store(nullptr);
  // Already down: its logs went with the first transition.
  if (!alive_[m].exchange(false, std::memory_order_acq_rel)) return;
  if (m >= options_.num_slaves) return;  // Proxies/client carry no state.
  // The logs it held as backup are gone too. They may have been the only
  // copies protecting other primaries' recent writes; the next recovery
  // snapshot re-protects them. (In replicated mode no logs exist, and the
  // sweep would otherwise never converge to "handled".)
  machines_[m].backup_logs.clear();
  if (options_.buffered_logging) reprotect_pending_ = true;
}

void MemoryCloud::OnInjectedCrash(MachineId m) {
  if (m < 0 || m >= num_endpoints()) return;
  std::lock_guard<std::mutex> lock(mu_);
  MarkDownLocked(m);
}

Status MemoryCloud::FailMachine(MachineId m) {
  if (m < 0 || m >= options_.num_slaves) {
    return Status::InvalidArgument("can only fail slaves");
  }
  fabric_->SetMachineDown(m);
  std::lock_guard<std::mutex> lock(mu_);
  MarkDownLocked(m);
  return Status::OK();
}

Status MemoryCloud::RestartMachine(MachineId m) {
  if (m < 0 || m >= options_.num_slaves) {
    return Status::InvalidArgument("can only restart slaves");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (alive_[m].load(std::memory_order_acquire)) {
    return Status::AlreadyExists("machine is up");
  }
  machines_[m].storage.store(
      std::make_shared<storage::MemoryStorage>(options_.storage),
      std::memory_order_release);
  machines_[m].table.store(PrimarySnapshotLocked(), std::memory_order_release);
  machines_[m].next_log_seq = 1;
  alive_[m].store(true, std::memory_order_release);
  fabric_->SetMachineUp(m);
  RegisterHandlers(m);
  return Status::OK();
}

std::vector<MachineId> MemoryCloud::AliveSlavesLocked() const {
  std::vector<MachineId> result;
  for (int m = 0; m < options_.num_slaves; ++m) {
    if (alive_[m].load(std::memory_order_acquire)) result.push_back(m);
  }
  return result;
}

Status MemoryCloud::ElectLeader() {
  std::lock_guard<std::mutex> lock(mu_);
  return ElectLeaderLocked();
}

Status MemoryCloud::ElectLeaderLocked() {
  const std::vector<MachineId> alive = AliveSlavesLocked();
  if (alive.empty()) return Status::Unavailable("no alive slaves");
  const MachineId candidate = alive.front();
  if (options_.tfs != nullptr) {
    // Fence through TFS so two partitions cannot both elect a leader
    // (§6.2: "the new leader marks a flag on the shared distributed
    // fault-tolerant file system").
    for (int tries = 0; tries < 1000; ++tries) {
      ++leader_epoch_;
      const std::string flag = options_.tfs_prefix + "/leader_epoch_" +
                               std::to_string(leader_epoch_);
      Status s = options_.tfs->CreateExclusive(
          flag, Slice(std::to_string(candidate)));
      if (s.ok()) break;
      if (!s.IsAlreadyExists()) return s;
    }
  }
  leader_ = candidate;
  return Status::OK();
}

MachineId MemoryCloud::LiveReplicaLocked(TrunkId t) const {
  for (MachineId r : primary_table_.replicas_of_trunk(t)) {
    auto store = storage(r);
    if (store != nullptr && store->Pin()->replica_at(t) != nullptr) return r;
  }
  return kInvalidMachine;
}

Status MemoryCloud::RecoverMachine(MachineId failed) {
  return Recover(failed, /*depose=*/false);
}

Status MemoryCloud::Recover(MachineId failed, bool depose) {
  if (options_.tfs == nullptr && !replicated()) {
    return Status::InvalidArgument("recovery requires TFS or replication");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (fabric_->IsMachineUp(failed)) {
    // The caller saw the machine down some time ago and it has restarted
    // since (or it was never down): there is nothing to recover.
    if (!depose) return Status::AlreadyExists("machine is up");
    // A failed heartbeat against a live endpoint. Without replicas, kill the
    // machine: the snapshot plus buffered logs cover its trunks. With
    // replicas, depose it (partition, not crash): its trunks are promoted
    // away and every epoch bump fences its stale write path, but its
    // endpoint and memory image stay so split-brain behavior is observable.
    // A trunk with no other live copy would come back empty, so a machine
    // holding one stays untouched until the next sweep.
    if (!replicated()) {
      fabric_->SetMachineDown(failed);
    } else {
      for (TrunkId t : primary_table_.trunks_of(failed)) {
        if (LiveReplicaLocked(t) == kInvalidMachine) {
          return Status::Unavailable(
              "machine " + std::to_string(failed) +
              " is unreachable but holds the only copy of trunk " +
              std::to_string(t) + "; not deposed");
        }
      }
    }
  }
  MarkDownLocked(failed);
  if (!alive_[leader_].load(std::memory_order_acquire)) {
    Status s = ElectLeaderLocked();
    if (!s.ok()) return s;
  }
  // The failed machine's replica trunks are ghosts (crash) or unreachable
  // behind a partition; drop it from every in-sync set.
  primary_table_.RemoveReplicaEverywhere(failed);
  const std::vector<TrunkId> owned = primary_table_.trunks_of(failed);
  if (owned.empty() && !replicated()) {
    // Nothing to reload — but the dead machine still took its backup-log
    // buffers with it, so the survivors' recent writes may have lost their
    // only log copies. Cut the re-protection snapshot before declaring the
    // crash handled (a trunkless machine can die holding logs: it was
    // restarted empty after an earlier failure, yet served as backup).
    if (reprotect_pending_) {
      Status s = SnapshotAllLocked();
      if (!s.ok() && !s.IsUnavailable()) return s;
    }
    return Status::OK();
  }

  // "During recovery, the leader reloads data owned by the failed machine
  // to other alive machines, updates the primary addressing table and
  // broadcasts it" (§6.2). The hot path is an O(1) ownership flip onto an
  // in-sync replica: no trunk bytes move and no TFS file is read. Without
  // one (always, in non-replicated mode) the trunk loads from the last
  // *committed* snapshot epoch — a half-written staging epoch is invisible
  // here — round-robin over the survivors.
  const std::vector<MachineId> survivors = AliveSlavesLocked();
  if (survivors.empty()) return Status::Unavailable("no alive slaves");
  const std::string snap_prefix = SnapshotPrefixLocked();
  int promoted = 0;
  int reloaded = 0;
  std::size_t rr = 0;
  for (TrunkId t : owned) {
    MachineId target = LiveReplicaLocked(t);
    if (target != kInvalidMachine) {
      Status s = StorageOf(target)->PromoteReplicaTrunk(t);
      if (!s.ok()) return s;
      primary_table_.MoveTrunk(t, target);  // Bumps the fencing epoch.
      primary_table_.RemoveReplica(t, target);  // Promoted: now primary.
      ++promoted;
      continue;
    }
    if (options_.tfs == nullptr) {
      return Status::Unavailable("trunk " + std::to_string(t) +
                                 " lost: all replicas dead and no TFS "
                                 "cold tier configured");
    }
    target = survivors[rr++ % survivors.size()];
    auto target_store = StorageOf(target);  // A member holds storage.
    std::unique_ptr<storage::MemoryTrunk> trunk;
    Status s = snap_prefix.empty()
                   ? Status::NotFound("no committed snapshot")
                   : storage::MemoryStorage::LoadTrunkFromTfs(
                         options_.tfs, snap_prefix, t,
                         options_.storage.trunk, &trunk);
    if (s.IsNotFound()) {
      // Never snapshotted: restart the trunk empty so the cluster keeps
      // serving. Buffered-log replay below refills it; with replicas, the
      // writes since creation died with the last copy — count the loss.
      s = storage::MemoryTrunk::Create(options_.storage.trunk, &trunk);
      if (replicated()) {
        recovery_stats_.trunks_lost.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (!s.ok()) return s;
    if (target_store->Pin()->replica_at(t) != nullptr) {
      // A stale (not in-sync) replica image is superseded by the reload.
      target_store->DetachReplicaTrunk(t);
    }
    s = target_store->AttachTrunk(t, std::move(trunk));
    if (!s.ok()) return s;
    primary_table_.MoveTrunk(t, target);
    primary_table_.RemoveReplica(t, target);
    ++reloaded;
  }

  // Replay buffered log records held for the failed primary (none exist in
  // replicated mode). Records may be spread over several backups (the
  // backup choice follows liveness) and a retried log call can deposit the
  // same record twice, so gather them all, order by sequence number and
  // replay each seq exactly once.
  std::vector<LogRecord> replay;
  for (int m = 0; m < options_.num_slaves; ++m) {
    if (!alive_[m]) continue;
    auto it = machines_[m].backup_logs.find(failed);
    if (it == machines_[m].backup_logs.end()) continue;
    for (LogRecord& record : it->second) replay.push_back(std::move(record));
    machines_[m].backup_logs.erase(it);
  }
  std::sort(replay.begin(), replay.end(),
            [](const LogRecord& a, const LogRecord& b) {
              return a.seq < b.seq;
            });
  std::uint64_t last_seq = 0;
  for (const LogRecord& record : replay) {
    if (record.seq == last_seq) continue;  // Duplicate from a retried call.
    last_seq = record.seq;
    const TrunkId t = TrunkOf(record.id);
    const MachineId owner = primary_table_.machine_of_trunk(t);
    auto owner_store = StorageOf(owner);
    if (owner_store == nullptr) continue;
    auto trunk = owner_store->Pin()->primary_at(t);
    if (trunk == nullptr) continue;
    ApplyMirrored(*trunk, record.op, record.id, Slice(record.payload));
  }

  if (!replicated()) {
    // Re-protect the survivors: the failed machine may have held the only
    // backup log copies for other primaries, and those records died with
    // it. Cutting a fresh snapshot (which also persists the updated table)
    // restores full durability — the equivalent of RAMCloud re-replicating
    // a dead backup's log segments. Unavailable means another machine is
    // down with trunks still unassigned; its recovery will cut the snapshot,
    // and the table below is persisted on its own.
    Status s = SnapshotAllLocked();
    if (s.ok()) {
      BroadcastTableLocked();
      return Status::OK();
    }
    if (!s.IsUnavailable()) return s;
  } else if (!owned.empty()) {
    // Simulated time-to-promote: per-trunk metadata flips plus the broadcast
    // fan-out, charged to the leader so the cost model sees the stall. Cold
    // reloads are orders of magnitude slower (disk + deserialize).
    const double promote_micros = 10.0 * static_cast<double>(owned.size()) +
                                  5.0 * static_cast<double>(survivors.size()) +
                                  500.0 * static_cast<double>(reloaded);
    fabric_->AddCpuMicros(leader_, promote_micros);
    recovery_stats_.promotions.fetch_add(promoted, std::memory_order_relaxed);
    recovery_stats_.tfs_fallback_reloads.fetch_add(reloaded,
                                                   std::memory_order_relaxed);
    recovery_stats_.last_promote_micros.store(
        static_cast<std::uint64_t>(promote_micros), std::memory_order_relaxed);
    // Until re-replication runs, promotion is all the recovery there is.
    recovery_stats_.last_full_replication_micros.store(
        static_cast<std::uint64_t>(promote_micros), std::memory_order_relaxed);
  }
  Status ps = PersistTableLocked();
  if (!ps.ok()) return ps;
  BroadcastTableLocked();
  return Status::OK();
}

int MemoryCloud::DetectAndRecover(SweepReport* report) {
  int recovered = 0;
  const auto record = [&](MachineId m, const Status& rs) {
    if (rs.ok()) {
      ++recovered;
      if (report != nullptr) report->recovered.push_back(m);
    } else if (report != nullptr) {
      // Surface the error instead of discarding it; the next sweep retries
      // the machine (still down, or still up and refusing deposition).
      report->failed.emplace_back(m, rs);
    }
  };
  // A dead leader cannot probe anyone (the fabric rejects traffic from down
  // machines), so first recover the leader itself — which elects a live
  // successor — before sweeping the cluster with heartbeats.
  const MachineId first = leader();
  if (!fabric_->IsMachineUp(first)) {
    Status rs = RecoverMachine(first);
    if (!rs.IsAlreadyExists()) record(first, rs);  // Else restarted since.
  }
  for (int m = 0; m < options_.num_slaves; ++m) {
    // Only a machine that was up when probed may be deposed or killed: one
    // that was already down and restarts during the probe is left alone.
    const bool was_up = fabric_->IsMachineUp(m);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!alive_[m].load(std::memory_order_acquire)) {
        // Known dead. Recover if it still owns trunks, or if its death took
        // backup-log copies that have not been re-protected yet; otherwise
        // the crash is fully handled.
        if (primary_table_.trunks_of(m).empty() && !reprotect_pending_) {
          continue;
        }
      }
    }
    // Heartbeat from the leader (§6.2: "Trinity uses heartbeat messages to
    // proactively detect machine failures"). Retried under the same policy
    // as routing: a single injected call failure or lost response must not
    // condemn a healthy machine to a (costly) false recovery. Each probe
    // reads the leader afresh: a recovery running beside the sweep may have
    // elected another one.
    RetryPolicy::RunHooks hooks;
    hooks.salt = Mix64(static_cast<std::uint64_t>(m) + 3);
    hooks.charge = [&](double micros) {
      fabric_->AddCpuMicros(leader(), micros);
    };
    Status s = options_.retry.Run(hooks, [&](int) -> Status {
      std::string pong;
      return fabric_->Call(leader(), m, kHeartbeatHandler, Slice(), &pong);
    });
    if (s.IsRetryable()) record(m, Recover(m, /*depose=*/was_up));
  }
  // Background repair: restore the replication factor across the survivors
  // once promotions have drained.
  if (replicated()) {
    const int repaired = ReReplicate();
    if (report != nullptr) report->rereplicated_trunks = repaired;
  }
  return recovered;
}

int MemoryCloud::ReReplicate() {
  if (!replicated()) return 0;
  struct Job {
    TrunkId trunk;
    MachineId primary;
    MachineId target;
  };
  std::vector<Job> jobs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::vector<MachineId> alive = AliveSlavesLocked();
    if (alive.size() < 2) return 0;
    for (TrunkId t = 0; t < primary_table_.num_slots(); ++t) {
      const MachineId primary = primary_table_.machine_of_trunk(t);
      if (storage(primary) == nullptr) {
        continue;  // Awaiting promotion; not repairable yet.
      }
      // Desired placement under the current membership. Rendezvous scores
      // of the survivors are unchanged by the departure, so only the lost
      // replicas re-place (consistent-hashing stability); extra holders are
      // trimmed below, but only after the desired set is fully present.
      const std::vector<MachineId> want = ReplicaTargets(
          t, primary, options_.replication_factor, alive);
      const std::vector<MachineId>& have = primary_table_.replicas_of_trunk(t);
      for (MachineId w : want) {
        if (std::find(have.begin(), have.end(), w) == have.end()) {
          jobs.push_back(Job{t, primary, w});
        }
      }
    }
  }
  if (jobs.empty()) return 0;
  // Canonical order: injected faults must hit the same calls run after run.
  std::sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    if (a.trunk != b.trunk) return a.trunk < b.trunk;
    return a.target < b.target;
  });
  // Ships run sequentially in canonical order so the fault injector's
  // PRNG — and therefore every chaos seed's behavior — is consumed
  // identically run to run. Each image is built just before its ship.
  int installed = 0;
  std::uint64_t shipped_bytes = 0;
  std::map<MachineId, double> per_target_micros;
  for (const Job& job : jobs) {
    if (!fabric_->IsMachineUp(job.primary) ||
        !fabric_->IsMachineUp(job.target)) {
      continue;  // A crash got here first; the next sweep retries.
    }
    auto store = StorageOf(job.primary);
    auto source = store ? store->Pin()->primary_at(job.trunk) : nullptr;
    std::string image;
    if (source == nullptr || !source->Serialize(&image).ok()) continue;
    // Charge the serialization to the source machine's CPU meter.
    fabric_->AddCpuMicros(job.primary,
                          static_cast<double>(image.size()) * 0.0005);
    BinaryWriter writer;
    writer.PutI32(job.trunk);
    writer.PutBytes(Slice(image));
    std::string unused;
    Status s = fabric_->Call(job.primary, job.target, kReplicaInstallHandler,
                             Slice(writer.buffer()), &unused);
    if (!s.ok() || !fabric_->IsMachineUp(job.target)) continue;
    std::lock_guard<std::mutex> lock(mu_);
    // Commit only if the world did not shift underneath the transfer (an
    // injected crash during the Call can trigger promotions).
    if (primary_table_.machine_of_trunk(job.trunk) == job.primary &&
        alive_[job.target].load(std::memory_order_acquire)) {
      primary_table_.AddReplica(job.trunk, job.target);
      ++installed;
      shipped_bytes += image.size();
      per_target_micros[job.target] +=
          50.0 + static_cast<double>(image.size()) * 0.001;
    }
  }
  if (installed > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    recovery_stats_.trunks_rereplicated.fetch_add(installed,
                                                  std::memory_order_relaxed);
    recovery_stats_.bytes_rereplicated.fetch_add(shipped_bytes,
                                                 std::memory_order_relaxed);
    // Modeled wall time of the parallel transfer: each destination installs
    // its images serially, destinations proceed in parallel — the slowest
    // destination bounds time-to-full-replication.
    double slowest = 0;
    for (const auto& [target, micros] : per_target_micros) {
      (void)target;
      slowest = std::max(slowest, micros);
    }
    recovery_stats_.last_full_replication_micros.store(
        recovery_stats_.last_promote_micros.load(std::memory_order_relaxed) +
            static_cast<std::uint64_t>(slowest),
        std::memory_order_relaxed);
    Status ps = PersistTableLocked();
    (void)ps;  // Best effort: the next sweep re-persists.
    BroadcastTableLocked();
  }
  // Convergence: once a trunk's desired placement is fully in sync, holders
  // outside it (membership-churn leftovers, e.g. after failback or a trunk
  // migration) are detached so the factor is exactly k — bounding replica
  // memory and write fan-out. A trunk with a missing install keeps its
  // surplus stand-ins; trimming never drops the copy count below target.
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::vector<MachineId> alive = AliveSlavesLocked();
    int trimmed = 0;
    for (TrunkId t = 0;
         alive.size() >= 2 && t < primary_table_.num_slots(); ++t) {
      const MachineId primary = primary_table_.machine_of_trunk(t);
      if (!alive_[primary].load(std::memory_order_acquire)) continue;
      const std::vector<MachineId> want = ReplicaTargets(
          t, primary, options_.replication_factor, alive);
      // Copied: RemoveReplica below mutates the table's vector.
      const std::vector<MachineId> have = primary_table_.replicas_of_trunk(t);
      bool complete = true;
      for (MachineId w : want) {
        if (std::find(have.begin(), have.end(), w) == have.end()) {
          complete = false;
          break;
        }
      }
      if (!complete) continue;
      for (MachineId h : have) {
        if (std::find(want.begin(), want.end(), h) != want.end()) continue;
        primary_table_.RemoveReplica(t, h);
        if (auto holder = storage(h)) holder->DetachReplicaTrunk(t);
        ++trimmed;
      }
    }
    if (trimmed > 0) {
      Status ps = PersistTableLocked();
      (void)ps;
      BroadcastTableLocked();
    }
  }
  return installed;
}

Status MemoryCloud::MigrateTrunk(TrunkId trunk, MachineId to) {
  MachineId from;
  std::shared_ptr<storage::MemoryStorage> from_store;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (trunk < 0 || trunk >= primary_table_.num_slots()) {
      return Status::InvalidArgument("trunk out of range");
    }
    if (to < 0 || to >= options_.num_slaves ||
        !alive_[to].load(std::memory_order_acquire)) {
      return Status::InvalidArgument("destination is not an alive slave");
    }
    from = primary_table_.machine_of_trunk(trunk);
    if (from == to) return Status::OK();
    from_store = storage(from);
    if (from_store == nullptr) {
      return Status::Unavailable("source machine is down");
    }
  }
  // 1. Serialize the trunk at the source (metered as its CPU work).
  auto source = from_store->Pin()->primary_at(trunk);
  if (source == nullptr) return Status::NotFound("trunk not hosted at source");
  std::string image;
  {
    net::Fabric::MeterScope meter(*fabric_, from);
    Status s = source->Serialize(&image);
    if (!s.ok()) return s;
  }
  // 2. Ship the image to the destination over the fabric.
  BinaryWriter writer;
  writer.PutI32(trunk);
  writer.PutBytes(Slice(image));
  std::string unused;
  Status s = fabric_->Call(from, to, kTrunkMigrateHandler,
                           Slice(writer.buffer()), &unused);
  if (!s.ok() || !fabric_->IsMachineUp(to)) {
    // Roll back: nothing was committed — the source still owns the trunk
    // and the addressing table is untouched. If the destination managed to
    // attach the image before the failure surfaced, detach it so exactly
    // one replica stays authoritative.
    std::lock_guard<std::mutex> lock(mu_);
    if (auto to_store = storage(to)) {
      to_store->DetachTrunk(trunk);  // NotFound is fine.
    }
    return s.ok() ? Status::Unavailable(
                        "destination crashed during trunk migration")
                  : s;
  }
  // 3. Drop the source copy and commit the new ownership. The source may
  // have crashed after the hand-off (its copy died with it); the commit
  // still proceeds — the destination now holds the only live replica, which
  // is exactly the re-drive a leader performs for a half-finished migration.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto source_store = storage(from)) {
      Status ds = source_store->DetachTrunk(trunk);
      if (!ds.ok()) return ds;
    }
    if (replicated()) {
      // The destination may have held a replica of this trunk; the primary
      // image it just received supersedes it, and a machine never appears
      // in its own trunk's in-sync set.
      auto to_store = StorageOf(to);
      if (to_store != nullptr &&
          to_store->Pin()->replica_at(trunk) != nullptr) {
        to_store->DetachReplicaTrunk(trunk);
      }
      primary_table_.RemoveReplica(trunk, to);
    }
    primary_table_.MoveTrunk(trunk, to);
    Status ps = PersistTableLocked();
    if (!ps.ok()) return ps;
    BroadcastTableLocked();
  }
  return Status::OK();
}

int MemoryCloud::RebalanceTrunks() {
  int moved = 0;
  for (;;) {
    TrunkId candidate = -1;
    MachineId from = kInvalidMachine, to = kInvalidMachine;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Find the most- and least-loaded alive slaves.
      std::size_t max_count = 0, min_count = ~std::size_t{0};
      for (MachineId m = 0; m < options_.num_slaves; ++m) {
        if (storage(m) == nullptr) continue;
        const std::size_t count = primary_table_.trunks_of(m).size();
        if (count > max_count) {
          max_count = count;
          from = m;
        }
        if (count < min_count) {
          min_count = count;
          to = m;
        }
      }
      if (from == kInvalidMachine || to == kInvalidMachine ||
          max_count <= min_count + 1) {
        break;  // Balanced within one trunk.
      }
      candidate = primary_table_.trunks_of(from).front();
    }
    if (!MigrateTrunk(candidate, to).ok()) break;
    ++moved;
  }
  return moved;
}

std::string MemoryCloud::SnapshotPrefixLocked() const {
  if (snapshot_epoch_ == 0) return "";  // Nothing committed yet.
  return options_.tfs_prefix + "/snap_" + std::to_string(snapshot_epoch_);
}

Status MemoryCloud::SnapshotAllLocked() {
  // A dead machine whose trunks have not been reassigned yet is represented
  // only by the *old* epoch plus buffered logs; committing a new epoch now
  // would truncate both and lose its data. Recovery moves the trunks to
  // survivors first and then calls back in here.
  for (int m = 0; m < options_.num_slaves; ++m) {
    if (!alive_[m].load(std::memory_order_acquire) &&
        !primary_table_.trunks_of(m).empty()) {
      return Status::Unavailable("machine " + std::to_string(m) +
                                 " awaits recovery; snapshot deferred");
    }
  }
  // Stage the new epoch next to the committed one; nothing below touches
  // the previous epoch's files until the pointer flip succeeds.
  const std::uint64_t epoch = snapshot_epoch_ + 1;
  const std::string snap_prefix =
      options_.tfs_prefix + "/snap_" + std::to_string(epoch);
  for (int m = 0; m < options_.num_slaves; ++m) {
    auto store = storage(m);
    if (store == nullptr) continue;
    Status s = store->SaveToTfs(options_.tfs, snap_prefix);
    // A failure here abandons the staging files: the previous snapshot and
    // every buffered log record stay intact, so no recovery path ever sees
    // a truncated snapshot.
    if (!s.ok()) return s;
  }
  Status s = PersistTableLocked();
  if (!s.ok()) return s;
  // Commit point: an atomic pointer flip, the TFS analog of rename(2).
  s = options_.tfs->WriteFile(options_.tfs_prefix + "/snapshot_current",
                              Slice(std::to_string(epoch)));
  if (!s.ok()) return s;
  snapshot_epoch_ = epoch;
  // Only a *committed* snapshot makes the buffered log records redundant.
  for (MachineId m = 0; m < num_endpoints(); ++m) {
    machines_[m].backup_logs.clear();
  }
  reprotect_pending_ = false;  // Every acked write is in this epoch.
  // Garbage-collect superseded epochs (and abandoned staging attempts).
  const std::string keep = snap_prefix + "/";
  for (const std::string& path :
       options_.tfs->List(options_.tfs_prefix + "/snap_")) {
    if (path.compare(0, keep.size(), keep) != 0) {
      options_.tfs->DeleteFile(path);
    }
  }
  return Status::OK();
}

Status MemoryCloud::SaveSnapshot() {
  if (options_.tfs == nullptr) {
    return Status::InvalidArgument("no TFS configured");
  }
  std::lock_guard<std::mutex> lock(mu_);
  return SnapshotAllLocked();
}

}  // namespace trinity::cloud
