#ifndef TRINITY_STORAGE_MEMORY_STORAGE_H_
#define TRINITY_STORAGE_MEMORY_STORAGE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
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

  /// The trunks this machine hosts, by trunk id: an immutable snapshot that
  /// every attach, detach and promotion replaces whole. Holding one pins
  /// each trunk in it, so a concurrent DetachTrunk (migration) cannot free
  /// a trunk under a reader, and readers never take this storage's lock.
  /// Replica trunks (hot-standby copies of trunks whose primary lives on
  /// another machine) sit in their own vector, so the primary path never
  /// sees them; only the replication handlers and promotion reach them.
  struct Trunks {
    /// Indexed by trunk id, null where the trunk is not hosted.
    std::vector<std::shared_ptr<MemoryTrunk>> primary;
    std::vector<std::shared_ptr<MemoryTrunk>> replica;

    /// The hosted trunk `t`, or a null pointer for any other id (negative
    /// or past the end included). Hot paths take `.get()` under a named
    /// pin; `auto t = pin->primary_at(x)` copies a pin of its own.
    const std::shared_ptr<MemoryTrunk>& primary_at(TrunkId t) const {
      return At(primary, t);
    }
    const std::shared_ptr<MemoryTrunk>& replica_at(TrunkId t) const {
      return At(replica, t);
    }

    /// Calls fn(id, trunk) for every hosted primary in ascending id order.
    template <typename Fn>
    void ForEachPrimary(Fn&& fn) const {
      for (std::size_t t = 0; t < primary.size(); ++t) {
        if (primary[t] != nullptr) fn(static_cast<TrunkId>(t), *primary[t]);
      }
    }

   private:
    static const std::shared_ptr<MemoryTrunk>& At(
        const std::vector<std::shared_ptr<MemoryTrunk>>& v, TrunkId t) {
      static const std::shared_ptr<MemoryTrunk> kNone;
      return t >= 0 && static_cast<std::size_t>(t) < v.size() ? v[t] : kNone;
    }
  };

  /// The current snapshot (one atomic load). Hold it for the whole
  /// operation, sweep or scan; it never changes under the holder.
  std::shared_ptr<const Trunks> Pin() const {
    return trunks_.load(std::memory_order_acquire);
  }

  /// Creates an (empty) trunk owned by this machine. Fails with
  /// AlreadyExists when the trunk is already hosted here.
  Status AttachTrunk(TrunkId trunk_id);

  /// Installs an already-built trunk (used during failure recovery when
  /// trunks are reloaded from TFS onto surviving machines).
  Status AttachTrunk(TrunkId trunk_id, std::unique_ptr<MemoryTrunk> trunk);

  /// Drops a trunk (after it migrated to another machine).
  Status DetachTrunk(TrunkId trunk_id);

  /// Creates an empty replica trunk. Unlike AttachTrunk this *replaces* any
  /// existing replica image — re-replication may refresh an out-of-sync
  /// copy.
  Status AttachReplicaTrunk(TrunkId trunk_id);

  /// Installs a fully-built replica image (re-replication transfer).
  Status AttachReplicaTrunk(TrunkId trunk_id,
                            std::unique_ptr<MemoryTrunk> trunk);

  /// Drops a replica (replication factor restored elsewhere, or the trunk
  /// migrated onto this machine).
  Status DetachReplicaTrunk(TrunkId trunk_id);

  /// Failover: moves a replica trunk into the primary vector. The metadata
  /// flip that makes promotion O(1) — no data copy, no TFS read.
  Status PromoteReplicaTrunk(TrunkId trunk_id);

  /// Committed bytes across replica trunks (replication memory overhead).
  std::uint64_t ReplicaFootprintBytes() const;

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
  /// Under mu_: copies the snapshot, lets edit change the copy and, when
  /// it returns OK, publishes the copy. Writers serialize on mu_.
  template <typename Edit>
  Status Update(Edit&& edit);

  const Options options_;
  std::mutex mu_;
  std::atomic<std::shared_ptr<const Trunks>> trunks_{
      std::make_shared<const Trunks>()};

  std::thread defrag_thread_;
  std::mutex daemon_mu_;
  std::condition_variable daemon_cv_;
  bool daemon_stop_ = false;
  bool daemon_running_ = false;
};

}  // namespace trinity::storage

#endif  // TRINITY_STORAGE_MEMORY_STORAGE_H_
