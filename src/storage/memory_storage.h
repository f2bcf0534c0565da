#ifndef TRINITY_STORAGE_MEMORY_STORAGE_H_
#define TRINITY_STORAGE_MEMORY_STORAGE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/memory_trunk.h"
#include "tfs/tfs.h"

namespace trinity::storage {

/// The memory storage module of one Trinity slave: the set of memory trunks
/// the addressing table currently assigns to this machine (§3: "each machine
/// hosts multiple memory trunks" for trunk-level parallelism and smaller
/// per-trunk hash tables).
///
/// Also owns the machine's defragmentation daemon — a background thread that
/// periodically sweeps trunks whose dead-byte ratio exceeds a threshold
/// (§6.1) — and the trunk persistence path to TFS used for fault tolerance.
class MemoryStorage {
 public:
  struct Options {
    MemoryTrunk::Options trunk;
    /// Defrag a trunk when dead+slack bytes exceed this fraction of used.
    double defrag_threshold = 0.3;
  };

  explicit MemoryStorage(Options options) : options_(std::move(options)) {}
  ~MemoryStorage() { StopDefragDaemon(); }

  MemoryStorage(const MemoryStorage&) = delete;
  MemoryStorage& operator=(const MemoryStorage&) = delete;

  /// Creates an (empty) trunk owned by this machine. Fails with
  /// AlreadyExists when the trunk is already hosted here.
  Status AttachTrunk(TrunkId trunk_id);

  /// Installs an already-built trunk (used during failure recovery when
  /// trunks are reloaded from TFS onto surviving machines).
  Status AttachTrunk(TrunkId trunk_id, std::unique_ptr<MemoryTrunk> trunk);

  /// Drops a trunk (after it migrated to another machine).
  Status DetachTrunk(TrunkId trunk_id);

  /// Trunk lookup; returns nullptr if the trunk is not hosted here. The
  /// returned pointer pins the trunk: hold it for the whole operation, so
  /// a concurrent DetachTrunk (migration) cannot free it underneath.
  std::shared_ptr<MemoryTrunk> trunk(TrunkId trunk_id) const;

  /// The hosted primary trunks in ascending id order, each pinned so a
  /// concurrent DetachTrunk cannot free it during a pass that runs without
  /// this storage's lock. The one way to list a machine's trunks.
  std::vector<std::pair<TrunkId, std::shared_ptr<MemoryTrunk>>> PinTrunks()
      const;

  /// --- Hot-standby replica trunks -------------------------------------
  /// Replica trunks are full in-memory copies of trunks whose primary lives
  /// on another machine. They sit in a separate map so the primary lookup
  /// path (`trunk()`) never sees them; routing only reaches them through
  /// the replication handlers and, after promotion, through
  /// PromoteReplicaTrunk.

  /// Creates an empty replica trunk. Unlike AttachTrunk this *replaces* any
  /// existing replica image — re-replication may refresh an out-of-sync
  /// copy.
  Status AttachReplicaTrunk(TrunkId trunk_id);

  /// Installs a fully-built replica image (re-replication transfer).
  Status AttachReplicaTrunk(TrunkId trunk_id,
                            std::unique_ptr<MemoryTrunk> trunk);

  /// Replica lookup; nullptr when this machine holds no replica of it.
  /// Pins the replica like trunk() does.
  std::shared_ptr<MemoryTrunk> replica_trunk(TrunkId trunk_id) const;

  /// Drops a replica (replication factor restored elsewhere, or the trunk
  /// migrated onto this machine).
  Status DetachReplicaTrunk(TrunkId trunk_id);

  /// Failover: moves a replica trunk into the primary map. The metadata
  /// flip that makes promotion O(1) — no data copy, no TFS read.
  Status PromoteReplicaTrunk(TrunkId trunk_id);

  std::vector<TrunkId> replica_trunk_ids() const;

  /// Committed bytes across replica trunks (replication memory overhead).
  std::uint64_t ReplicaFootprintBytes() const;

  /// Sum of committed bytes across trunks plus index overhead — the memory
  /// footprint number reported in the Fig 13 comparison.
  std::uint64_t MemoryFootprintBytes() const;

  std::uint64_t TotalCellCount() const;

  /// Sums MemoryTrunk::Stats across the hosted (primary) trunks — the
  /// machine-level memory-hierarchy meters (resident/compressed/spilled
  /// bytes, faults, evictions).
  MemoryTrunk::Stats AggregateTrunkStats() const;

  /// Persists every hosted trunk to TFS under `prefix`/trunk_<id>.
  Status SaveToTfs(tfs::Tfs* tfs, const std::string& prefix) const;

  /// Loads one trunk image from TFS and returns it (does not attach).
  static Status LoadTrunkFromTfs(tfs::Tfs* tfs, const std::string& prefix,
                                 TrunkId trunk_id,
                                 const MemoryTrunk::Options& options,
                                 std::unique_ptr<MemoryTrunk>* out);

  /// Starts the background defragmentation daemon.
  void StartDefragDaemon(std::chrono::milliseconds interval);
  void StopDefragDaemon();

  /// One synchronous sweep over all trunks; returns bytes reclaimed.
  std::uint64_t DefragSweep();

 private:
  const Options options_;
  mutable std::mutex mu_;
  std::map<TrunkId, std::shared_ptr<MemoryTrunk>> trunks_;
  std::map<TrunkId, std::shared_ptr<MemoryTrunk>> replica_trunks_;

  std::thread defrag_thread_;
  std::mutex daemon_mu_;
  std::condition_variable daemon_cv_;
  bool daemon_stop_ = false;
  bool daemon_running_ = false;
};

}  // namespace trinity::storage

#endif  // TRINITY_STORAGE_MEMORY_STORAGE_H_
