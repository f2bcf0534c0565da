#ifndef TRINITY_CLOUD_MEMORY_CLOUD_H_
#define TRINITY_CLOUD_MEMORY_CLOUD_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "cloud/addressing_table.h"
#include "cloud/cell_stripes.h"
#include "common/call_context.h"
#include "common/hash.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/types.h"
#include "net/fabric.h"
#include "net/network_stats.h"
#include "storage/memory_storage.h"
#include "tfs/tfs.h"

namespace trinity::cloud {

/// Fixed handler ids on the fabric. TSL protocols register at
/// kUserHandlerBase or above; compute engines and analytics protocols take
/// fresh per-run ids from net::Fabric::RunScope instead.
enum CloudHandlerIds : net::HandlerId {
  kCellOpHandler = 1,        ///< Sync KV operation dispatch.
  kMultiGetHandler = 2,      ///< Batched read dispatch (MultiGet/Contains).
  kHeartbeatHandler = 50,    ///< Leader ping.
  kLogRecordHandler = 52,    ///< Buffered-logging append to a backup.
  kTrunkMigrateHandler = 54,  ///< Live trunk migration (image transfer).
  // Hot-standby replication handlers (55..58). Chaos tests target exactly
  // this range with FaultInjector::SetHandlerRangePolicy to fault the
  // replication traffic without touching the client-facing protocol.
  kReplicaApplyHandler = 55,    ///< Primary → replica synchronous mutation.
  kReplicaInstallHandler = 56,  ///< Full trunk-image install (re-replication).
  kReplicaReadHandler = 57,     ///< Degraded read served by a replica trunk.
  kIsrShrinkHandler = 58,       ///< Leader-confirmed in-sync-set shrink.
  kUserHandlerBase = 100,       ///< TSL protocols start here.
};

/// Trinity's memory cloud (paper §3): a distributed in-memory key-value
/// store globally addressable through a two-level hash — key → trunk
/// (TrunkHash) and trunk → machine (the addressing table).
///
/// The cloud hosts a simulated cluster: `num_slaves` slave machines (each
/// owning a MemoryStorage with its share of the 2^p trunks), optional
/// proxies (message-only, no data), and one implicit client endpoint. All
/// remote operations travel through the net::Fabric so traffic and handler
/// CPU time are metered.
///
/// Fault tolerance follows §6.2: every machine keeps an addressing-table
/// replica; the primary replica lives on the leader and is persisted to TFS
/// before updates commit; failures are detected by heartbeat or on access;
/// recovery reloads the failed machine's trunks from TFS onto survivors,
/// replays RAMCloud-style buffered log records held by backups, and
/// rebroadcasts the table.
class MemoryCloud {
 public:
  /// Governs every retry loop that faces transient Unavailable/TimedOut
  /// failures (routing, replica ship, ISR shrink, heartbeats). Backoff is
  /// *simulated* time: each wait is charged to the retrying machine's CPU
  /// meter so the cost model sees the stall, without the test suite
  /// actually sleeping. All four loops run through the shared
  /// trinity::RetryPolicy::Run helper with deterministic seeded jitter.
  using RetryPolicy = trinity::RetryPolicy;

  struct Options {
    int num_slaves = 4;
    int num_proxies = 0;
    int p_bits = 6;  ///< 2^p memory trunks; must satisfy 2^p >= num_slaves.
    storage::MemoryStorage::Options storage;
    net::Fabric::Params fabric;
    /// Borrowed TFS instance; may be null, which disables persistence,
    /// recovery and leader fencing (pure in-memory mode).
    tfs::Tfs* tfs = nullptr;
    std::string tfs_prefix = "cloud";
    /// Log mutations to a remote backup's memory before applying (RAMCloud
    /// buffered logging, §6.2) so recovery loses nothing since the snapshot.
    bool buffered_logging = false;
    /// Hot-standby replication: number of synchronous in-memory replicas
    /// per trunk (0 = off). Every acknowledged mutation applies on the
    /// primary and ships to k replica trunks placed by rendezvous hashing
    /// on distinct machines; failover *promotes* a replica (an
    /// addressing-table metadata flip, no TFS read) and TFS becomes the
    /// cold tier consulted only when every replica of a trunk is lost.
    /// Subsumes buffered_logging — the two are mutually exclusive. Values
    /// larger than num_slaves-1 degrade gracefully to fewer replicas.
    int replication_factor = 0;
    /// Promote replicas inline when routing detects a dead owner. When
    /// false, reads still fail over to replicas but writes to affected
    /// trunks return retryable Unavailable until DetectAndRecover runs —
    /// tests use this to hold the cluster in the degraded window.
    bool auto_promote = true;
    RetryPolicy retry;
  };

  static Status Create(const Options& options,
                       std::unique_ptr<MemoryCloud>* out);

  ~MemoryCloud() = default;
  MemoryCloud(const MemoryCloud&) = delete;
  MemoryCloud& operator=(const MemoryCloud&) = delete;

  // --- Topology ---------------------------------------------------------
  int num_slaves() const { return options_.num_slaves; }
  int num_proxies() const { return options_.num_proxies; }
  /// Total fabric endpoints: slaves + proxies + 1 client.
  int num_endpoints() const { return options_.num_slaves +
                                     options_.num_proxies + 1; }
  /// The implicit client endpoint id (last endpoint).
  MachineId client_id() const { return num_endpoints() - 1; }
  bool IsProxy(MachineId m) const {
    return m >= options_.num_slaves && m < client_id();
  }

  TrunkId TrunkOf(CellId id) const {
    return static_cast<TrunkId>(TrunkHash(id, options_.p_bits));
  }
  /// Owner machine according to the table last installed on the leader.
  /// Lock-free.
  MachineId MachineOf(CellId id) const;

  // --- Key-value operations (from the client endpoint) -------------------
  Status AddCell(CellId id, Slice payload) {
    return AddCellFrom(client_id(), id, payload);
  }
  Status PutCell(CellId id, Slice payload) {
    return PutCellFrom(client_id(), id, payload);
  }
  Status GetCell(CellId id, std::string* out) {
    return GetCellFrom(client_id(), id, out);
  }
  Status RemoveCell(CellId id) { return RemoveCellFrom(client_id(), id); }
  Status AppendToCell(CellId id, Slice suffix) {
    return AppendToCellFrom(client_id(), id, suffix);
  }
  /// Existence check that distinguishes "cell absent" (OK, *exists=false)
  /// from "owner unavailable" (non-OK status): a down machine must not be
  /// mistaken for a missing cell.
  Status Contains(CellId id, bool* exists);

  /// Per-id outcome of a MultiGet/MultiContains batch. `status` is OK when
  /// the cell was read (value filled for MultiGet), NotFound when the owner
  /// definitively answered that the cell is absent, and any other status
  /// when the id could not be resolved (e.g. its owner is unrecoverable).
  struct MultiGetResult {
    Status status = Status::NotFound("no such cell");
    std::string value;
  };

  /// Batched read: groups `ids` per owner machine using `src`'s table
  /// replica (lock-free) and sends ONE packed request per owner (response
  /// records reuse the compute engines' [id][len][bytes] wire shape); the
  /// group `src` owns itself runs in place, off the wire. A whole-batch
  /// failure against one owner (crash, stale routing) falls
  /// back to per-id routed reads for that group, so replica failover and
  /// promotion semantics are exactly those of GetCellFrom. `out` is resized
  /// to ids.size(); ids may repeat. Returns non-OK only when the batch as a
  /// whole could not be attempted (e.g. `src` is down) — per-id outcomes
  /// are reported through `out`.
  Status MultiGet(MachineId src, std::span<const CellId> ids,
                  std::vector<MultiGetResult>* out,
                  CallContext* ctx = nullptr);
  Status MultiGet(std::span<const CellId> ids,
                  std::vector<MultiGetResult>* out) {
    return MultiGet(client_id(), ids, out);
  }
  /// Batched existence check with the same routing/fallback semantics;
  /// out[i].status is OK (present), NotFound (definitively absent), or an
  /// error (unknown — the owner could not be reached). Values stay empty.
  Status MultiContains(MachineId src, std::span<const CellId> ids,
                       std::vector<MultiGetResult>* out,
                       CallContext* ctx = nullptr);

  // --- Key-value operations from an arbitrary endpoint. Local accesses on
  // the owning slave bypass the network; remote ones are metered sync calls.
  // The optional CallContext carries a per-request deadline + retry budget
  // down through RouteOp and Fabric::Call: retries stop with
  // DeadlineExceeded (or ResourceExhausted when the cluster-wide retry
  // budget is drained) instead of hanging through a failover.
  Status AddCellFrom(MachineId src, CellId id, Slice payload,
                     CallContext* ctx = nullptr);
  Status PutCellFrom(MachineId src, CellId id, Slice payload,
                     CallContext* ctx = nullptr);
  Status GetCellFrom(MachineId src, CellId id, std::string* out,
                     CallContext* ctx = nullptr);
  Status RemoveCellFrom(MachineId src, CellId id,
                        CallContext* ctx = nullptr);
  Status AppendToCellFrom(MachineId src, CellId id, Slice suffix,
                          CallContext* ctx = nullptr);

  /// The local storage of a member slave, or null for a dead or deposed
  /// machine, a proxy or the client. This is the cloud's one membership
  /// test: under the cloud's lock a slave is a member exactly when this is
  /// non-null. The pointer pins the storage: a crash or restart that swaps
  /// it out cannot free it under the holder. Engines use this for
  /// partition-local scans; access is metered by the caller.
  std::shared_ptr<storage::MemoryStorage> storage(MachineId m) const;

  /// storage(m)'s trunk snapshot, or null when storage(m) is. Engines,
  /// scans and Graph pin one per operation, sweep or scan and resolve
  /// every trunk from it.
  std::shared_ptr<const storage::MemoryStorage::Trunks> trunks(
      MachineId m) const;

  net::Fabric& fabric() { return *fabric_; }
  /// An immutable snapshot of the primary addressing table as of this call.
  /// Later membership changes never alter it; compute engines pin one at
  /// construction and route by it for their lifetime.
  std::shared_ptr<const AddressingTable> table() const;

  /// Sum of committed trunk bytes over all slaves.
  std::uint64_t MemoryFootprintBytes() const;
  std::uint64_t TotalCellCount() const;

  /// Memory-hierarchy meters summed over every alive slave's primary
  /// trunks: resident/compressed/spilled bytes, faults, evictions (see
  /// MemoryTrunk::Stats). Benchmarks and capacity dashboards read this to
  /// watch the compressed + out-of-core footprint cloud-wide.
  storage::MemoryTrunk::Stats AggregateTrunkStats() const;

  // --- Fault tolerance ----------------------------------------------------
  /// Persists all trunks and the primary addressing table to TFS and
  /// truncates buffered logs. Requires options.tfs.
  ///
  /// Crash-safe in the atomic-rename style: trunks are written under a fresh
  /// epoch directory and the `snapshot_current` pointer file flips only
  /// after every write succeeded. A failure mid-snapshot leaves the previous
  /// epoch live and the buffered logs untouched, so recovery never sees a
  /// truncated snapshot.
  Status SaveSnapshot();

  /// Simulates a machine crash: storage dropped, endpoint marked down.
  Status FailMachine(MachineId m);

  /// Per-machine outcome of one DetectAndRecover sweep. The next sweep
  /// retries every machine listed in `failed`.
  struct SweepReport {
    std::vector<MachineId> recovered;
    std::vector<std::pair<MachineId, Status>> failed;
    int rereplicated_trunks = 0;  ///< Replication-factor repairs shipped.
  };

  /// Leader heartbeat sweep; recovers every failed slave found (promotion
  /// failover in replicated mode, TFS reload otherwise) and, in replicated
  /// mode, runs background re-replication afterwards. Only here may a failed
  /// heartbeat kill or depose a machine that is up; one holding the only
  /// copy of a trunk is reported failed (Unavailable) instead of deposed.
  /// Returns the number of machines recovered; `report` (may be null)
  /// receives the per-machine status summary.
  int DetectAndRecover(SweepReport* report);
  int DetectAndRecover() { return DetectAndRecover(nullptr); }

  /// Recovers a slave whose fabric endpoint is down: each trunk it owned is
  /// taken over by an in-sync replica, else reloaded from the last committed
  /// TFS snapshot, else recreated empty; buffered logs replay and the table
  /// is rebroadcast. Returns AlreadyExists("machine is up") when the
  /// endpoint is up (restarted since the caller saw it down, or never down):
  /// only a failed DetectAndRecover heartbeat may depose a live machine.
  Status RecoverMachine(MachineId failed);

  /// Restarts a previously failed machine as an empty slave that can take
  /// trunk assignments again.
  Status RestartMachine(MachineId m);

  /// Live trunk relocation (§3: "when new machines join the memory cloud,
  /// we relocate some memory trunks to those new machines and update the
  /// addressing table accordingly"). The trunk image travels over the
  /// fabric (metered); the primary table updates and rebroadcasts after the
  /// hand-off. Migration is leader-coordinated and assumes no concurrent
  /// writes to the trunk being moved.
  Status MigrateTrunk(TrunkId trunk, MachineId to);

  /// Evens out trunk ownership across alive slaves by migrating trunks from
  /// the most- to the least-loaded machines (run after a machine rejoins).
  /// Returns the number of trunks moved.
  int RebalanceTrunks();

  /// Test hook: rolls machine m's addressing-table replica back to the seed
  /// layout, simulating an endpoint that missed every broadcast. RouteOp must
  /// transparently re-sync it from the primary on the first failed access.
  void DesyncReplicaForTest(MachineId m);

  MachineId leader() const { return leader_.load(std::memory_order_acquire); }
  /// Elects the lowest-id alive slave, fencing through a TFS flag file when
  /// TFS is configured.
  Status ElectLeader();

  /// Cumulative failover/recovery counters (replicated mode). All times are
  /// simulated microseconds, deterministic per fault-injector seed.
  net::RecoveryStats recovery_stats() const;

  /// Committed bytes held in replica trunks across alive slaves — the
  /// memory overhead of the replication factor.
  std::uint64_t ReplicaMemoryBytes() const;

  /// Restores the replication factor after failures: computes the missing
  /// (trunk, replica) pairs under the current membership and, in canonical
  /// (trunk, target) order, serializes each source trunk just before
  /// shipping its image, so the fabric traffic is deterministic and at most
  /// one image is held at a time. Returns the number of replicas installed.
  /// Run automatically after every DetectAndRecover sweep in replicated
  /// mode.
  int ReReplicate();

 private:
  /// MultiOp holds its cells' stripes and applies its actions through
  /// RouteOp, below the entry points that take stripes.
  friend class MultiOp;

  enum class CellOp : std::uint8_t {
    kAdd = 1,
    kPut = 2,
    kGet = 3,
    kRemove = 4,
    kAppend = 5,
    kContains = 6,
  };

  struct LogRecord {
    std::uint64_t seq;
    CellOp op;
    CellId id;
    std::string payload;
  };

  struct MachineState {
    /// Atomic shared_ptr so lock-free readers (ExecuteLocal, the batched
    /// read handler, the RouteOp fast path) can pin the storage object
    /// across an operation while FailMachine/promotion swap it out.
    std::atomic<std::shared_ptr<storage::MemoryStorage>> storage;
    /// This machine's addressing-table replica (RCU-style): an immutable
    /// snapshot that readers load with one atomic operation and route by
    /// without taking mu_; writers replace it whole under mu_. A stale
    /// replica is safe — its owner answers Unavailable("trunk not hosted")
    /// and RouteOp re-syncs it from the primary.
    std::atomic<std::shared_ptr<const AddressingTable>> table;
    /// Buffered log records this machine holds as backup, keyed by primary.
    std::map<MachineId, std::vector<LogRecord>> backup_logs;
    std::uint64_t next_log_seq = 1;
  };

  /// Relaxed-atomic net::RecoveryStats: hot read paths (degraded reads,
  /// fencing rejections) bump counters without touching mu_ and
  /// recovery_stats() snapshots without blocking writers.
  TRINITY_ATOMIC_COUNTERS(RecoveryCounters, net::RecoveryStats,
                          TRINITY_RECOVERY_STATS_FIELDS);

  explicit MemoryCloud(const Options& options);
  Status Init();
  void RegisterHandlers(MachineId m);

  static bool IsMutation(CellOp op) {
    return op == CellOp::kAdd || op == CellOp::kPut ||
           op == CellOp::kRemove || op == CellOp::kAppend;
  }

  /// The one dispatch from a CellOp to a trunk call. Ops arrive off the
  /// wire, so an unknown one is InvalidArgument.
  static Status ApplyOp(storage::MemoryTrunk& trunk, CellOp op, CellId id,
                        Slice payload, std::string* response);

  /// Applies a mutation that already succeeded on a primary to a copy of
  /// its trunk (a replica, or the reloaded trunk during log replay). Add
  /// applies as Put and Remove tolerates NotFound, so a retried or
  /// duplicated record converges to the primary's state. Reads are
  /// InvalidArgument.
  static Status ApplyMirrored(storage::MemoryTrunk& trunk, CellOp op,
                              CellId id, Slice payload);

  /// Executes an op against machine m's local storage. Called both by the
  /// local fast path and by the remote sync handler.
  Status ExecuteLocal(MachineId m, CellOp op, CellId id, Slice payload,
                      std::string* response);

  /// Executes a packed MultiGet/MultiContains request against machine m's
  /// local storage, appending one [id][len][bytes] record per present id.
  /// Called both by MultiRead's local group and by the remote sync handler.
  /// A trunk m does not host fails the whole batch (Unavailable).
  Status ExecuteLocalMulti(MachineId m, Slice request, std::string* response);

  /// Encodes and routes an op from src to the owner of id, handling stale
  /// table replicas and machine failures by re-syncing from the primary
  /// table and retrying, bounded by options.retry (RetryPolicy).
  Status RouteOp(MachineId src, CellOp op, CellId id, Slice payload,
                 std::string* response, CallContext* ctx = nullptr);

  /// Shared body of MultiGet/MultiContains (op is kGet or kContains).
  Status MultiRead(MachineId src, CellOp op, std::span<const CellId> ids,
                   std::vector<MultiGetResult>* out,
                   CallContext* ctx = nullptr);

  /// Loads machine m's storage with acquire semantics; the returned
  /// shared_ptr keeps the storage alive for the duration of the caller's
  /// operation even if a concurrent failure path swaps it out.
  std::shared_ptr<storage::MemoryStorage> StorageOf(MachineId m) const {
    return machines_[m].storage.load(std::memory_order_acquire);
  }

  /// Loads machine m's table replica (lock-free).
  std::shared_ptr<const AddressingTable> TableOf(MachineId m) const {
    return machines_[m].table.load(std::memory_order_acquire);
  }

  /// An immutable copy of primary_table_: the leader's replica when it
  /// already equals the primary, else a fresh copy. Caller holds mu_.
  std::shared_ptr<const AddressingTable> PrimarySnapshotLocked() const;

  /// Calls fn(store) for the storage of every member slave.
  template <typename Fn>
  void ForEachAliveStorage(Fn fn) const {
    for (MachineId m = 0; m < options_.num_slaves; ++m) {
      if (auto store = storage(m)) fn(*store);
    }
  }

  /// Resolves the owner of `id` by `src`'s table replica (lock-free).
  MachineId RouteDst(MachineId src, CellId id) const {
    return TableOf(src)->machine_of_trunk(TrunkOf(id));
  }

  /// Sends the mutation to the primary's backup before it applies locally.
  /// Retries across surviving backups so a backup crash (or injected call
  /// failure) cannot leave an acknowledged mutation unlogged. Returns false
  /// when the record is NOT safely held and the primary itself is down —
  /// the one case where acking would lose the write (the primary's local
  /// apply went with its memory).
  bool LogToBackup(MachineId primary, CellOp op, CellId id, Slice payload);

  /// Reacts to a fabric-injected crash: the same transition as
  /// FailMachine, storage dropped included, driven by the fault injector's
  /// crash schedules. Readers that pinned the storage or a trunk keep it.
  void OnInjectedCrash(MachineId m);

  /// The one "machine is gone" transition (crash, kill or deposition). The
  /// storage image is dropped unless the endpoint is still up, which is
  /// deposition: a partitioned machine keeps its memory. Caller holds mu_.
  void MarkDownLocked(MachineId m);

  /// Body of RecoverMachine; `depose` (sweep only) lets it act on a machine
  /// whose endpoint is up.
  Status Recover(MachineId failed, bool depose);

  /// First alive slave holding an in-sync replica trunk of `t`, or
  /// kInvalidMachine. Caller holds mu_.
  MachineId LiveReplicaLocked(TrunkId t) const;

  bool replicated() const { return options_.replication_factor > 0; }

  /// Ships one applied mutation synchronously to every in-sync replica,
  /// stamped with the fencing epoch from the *primary's own* table replica.
  /// A deposed primary therefore advertises its stale epoch and is rejected
  /// (Aborted) by any replica that heard the promotion broadcast — the
  /// split-brain guard. Unreachable replicas are dropped from the in-sync
  /// set only after the current leader confirms the shrink; with no
  /// confirmation the write is NOT acknowledged.
  Status ReplicateMutation(MachineId primary, CellOp op, CellId id,
                           Slice payload);

  /// Degraded-read failover: serves a Get/Contains from any in-sync replica
  /// of the cell's trunk while the primary is unreachable. Sets *served
  /// when some replica produced a definitive answer (incl. NotFound).
  Status TryReplicaRead(MachineId src, CellOp op, CellId id,
                        std::string* response, bool* served,
                        CallContext* ctx = nullptr);

  /// Asks the current leader to drop `replica` from the trunk's in-sync
  /// set. The leader verifies the caller is still the trunk's primary at
  /// the claimed epoch — a deposed primary gets Aborted here instead of
  /// acking writes against a unilaterally shrunken set.
  Status ConfirmShrink(MachineId primary, TrunkId trunk, std::uint64_t epoch,
                       MachineId replica);

  /// TFS directory of the last *committed* snapshot epoch; empty when no
  /// snapshot has committed yet.
  std::string SnapshotPrefixLocked() const;

  /// Writes all alive slaves' trunks + the table under a fresh epoch, flips
  /// the commit pointer, truncates buffered logs and GCs old epochs. The
  /// body of SaveSnapshot; also run at the end of recovery to re-protect
  /// primaries whose backup log copies died with the failed machine.
  Status SnapshotAllLocked();

  Status PersistTableLocked();
  void BroadcastTableLocked();
  /// Elects the lowest-id alive slave (the body of ElectLeader).
  Status ElectLeaderLocked();
  MachineId BackupOf(MachineId m) const;
  std::vector<MachineId> AliveSlavesLocked() const;

  const Options options_;
  std::unique_ptr<net::Fabric> fabric_;
  /// One per endpoint (incl. client). A raw array (not std::vector) because
  /// MachineState holds atomics and is therefore not movable; the size is
  /// fixed at num_endpoints() after Init.
  std::unique_ptr<MachineState[]> machines_;
  /// Membership (proxies too); atomic so storage() can check it without
  /// mu_. Under mu_ a member slave always holds storage.
  std::unique_ptr<std::atomic<bool>[]> alive_;

  mutable std::mutex mu_;  ///< Guards table/membership/leader state.
  AddressingTable primary_table_{0, 1};
  /// Written under mu_; atomic so leader() and MachineOf read it lock-free.
  std::atomic<MachineId> leader_{0};
  std::uint64_t leader_epoch_ = 0;
  std::uint64_t snapshot_epoch_ = 0;  ///< Last committed snapshot epoch.
  /// True when a machine died holding backup-log buffers whose records have
  /// not been covered by a committed snapshot yet. Cleared by the next
  /// successful SnapshotAllLocked (the re-protection point).
  bool reprotect_pending_ = false;
  mutable RecoveryCounters recovery_stats_;
  /// Taken by single-cell mutations and by MultiOp (see CellStripes).
  CellStripes stripes_;
};

}  // namespace trinity::cloud

#endif  // TRINITY_CLOUD_MEMORY_CLOUD_H_
