#include "cloud/memory_cloud.h"

#include <algorithm>
#include <cstdlib>
#include <map>

#include "cloud/cell_stripes.h"
#include "cloud/replica_placement.h"
#include "common/logging.h"
#include "common/serializer.h"
#include "common/threadpool.h"
// Header-only [id][len][bytes] record helpers shared with the compute
// engines' outboxes; MultiGet responses reuse the same wire shape.
#include "compute/packed_messages.h"

namespace trinity::cloud {

namespace {

std::string EncodeCellOp(std::uint8_t op, CellId id, Slice payload) {
  BinaryWriter writer;
  writer.PutU8(op);
  writer.PutU64(id);
  writer.PutBytes(payload);
  return writer.Release();
}

bool DecodeCellOp(Slice data, std::uint8_t* op, CellId* id, Slice* payload) {
  BinaryReader reader(data);
  return reader.GetU8(op) && reader.GetU64(id) && reader.GetBytes(payload);
}

}  // namespace

MemoryCloud::MemoryCloud(const Options& options) : options_(options) {}

Status MemoryCloud::Create(const Options& options,
                           std::unique_ptr<MemoryCloud>* out) {
  if (options.num_slaves < 1) {
    return Status::InvalidArgument("need at least one slave");
  }
  if ((1 << options.p_bits) < options.num_slaves) {
    return Status::InvalidArgument("need 2^p_bits >= num_slaves");
  }
  if (options.buffered_logging && options.num_slaves < 2) {
    return Status::InvalidArgument("buffered logging needs a backup slave");
  }
  if (options.replication_factor < 0) {
    return Status::InvalidArgument("replication_factor must be >= 0");
  }
  if (options.replication_factor > 0 && options.buffered_logging) {
    return Status::InvalidArgument(
        "replication subsumes buffered logging; enable only one");
  }
  Options resolved = options;
  if (resolved.storage.trunk.memory_budget > 0 &&
      resolved.storage.trunk.cold_tfs == nullptr) {
    // Auto-wire the cold tier onto the cloud's TFS: every trunk spills
    // under <tfs_prefix>/cold (each gets a unique sub-prefix on its own).
    if (resolved.tfs == nullptr) {
      return Status::InvalidArgument("trunk memory budget requires a tfs");
    }
    resolved.storage.trunk.cold_tfs = resolved.tfs;
    resolved.storage.trunk.cold_prefix = resolved.tfs_prefix + "/cold";
  }
  std::unique_ptr<MemoryCloud> cloud(new MemoryCloud(resolved));
  Status s = cloud->Init();
  if (!s.ok()) return s;
  *out = std::move(cloud);
  return Status::OK();
}

Status MemoryCloud::Init() {
  fabric_ = std::make_unique<net::Fabric>(num_endpoints(), options_.fabric);
  // Injected crashes (FaultInjector::CrashAfter) must mirror FailMachine:
  // the fabric marks the endpoint down and we drop its volatile state.
  fabric_->SetCrashListener([this](MachineId m) { OnInjectedCrash(m); });
  if (options_.tfs != nullptr) {
    // Resume from the last committed snapshot epoch, if any.
    std::string epoch;
    if (options_.tfs->ReadFile(options_.tfs_prefix + "/snapshot_current",
                               &epoch).ok()) {
      snapshot_epoch_ = std::strtoull(epoch.c_str(), nullptr, 10);
    }
  }
  primary_table_ = AddressingTable(options_.p_bits, options_.num_slaves);
  if (replicated()) {
    // Seed the in-sync replica sets: rendezvous hashing over the slaves,
    // always on machines distinct from the primary (and from each other).
    std::vector<MachineId> slaves;
    for (MachineId m = 0; m < options_.num_slaves; ++m) slaves.push_back(m);
    for (TrunkId t = 0; t < primary_table_.num_slots(); ++t) {
      primary_table_.SetReplicas(
          t, ReplicaTargets(t, primary_table_.machine_of_trunk(t),
                            options_.replication_factor, slaves));
    }
  }
  machines_ = std::make_unique<MachineState[]>(num_endpoints());
  alive_ = std::make_unique<std::atomic<bool>[]>(num_endpoints());
  for (MachineId m = 0; m < num_endpoints(); ++m) {
    alive_[m].store(true, std::memory_order_relaxed);
  }
  for (MachineId m = 0; m < num_endpoints(); ++m) {
    machines_[m].table_replica = primary_table_;
    if (m < options_.num_slaves) {
      auto store = std::make_shared<storage::MemoryStorage>(options_.storage);
      for (TrunkId t : primary_table_.trunks_of(m)) {
        Status s = store->AttachTrunk(t);
        if (!s.ok()) return s;
      }
      machines_[m].storage.store(std::move(store),
                                 std::memory_order_release);
    }
    RegisterHandlers(m);
  }
  if (replicated()) {
    for (TrunkId t = 0; t < primary_table_.num_slots(); ++t) {
      for (MachineId r : primary_table_.replicas_of_trunk(t)) {
        Status s = StorageOf(r)->AttachReplicaTrunk(t);
        if (!s.ok()) return s;
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (MachineId m = 0; m < num_endpoints(); ++m) RefreshRoutingLocked(m);
    RefreshPrimaryRoutingLocked();
  }
  leader_ = 0;
  return Status::OK();
}

void MemoryCloud::RegisterHandlers(MachineId m) {
  // Addressing-table broadcast: every endpoint keeps a replica (§3).
  fabric_->RegisterAsyncHandler(
      m, kTableUpdateHandler, [this, m](MachineId, Slice payload) {
        AddressingTable table(0, 1);
        if (AddressingTable::Deserialize(payload, &table).ok()) {
          std::lock_guard<std::mutex> lock(mu_);
          if (table.version() > machines_[m].table_replica.version()) {
            machines_[m].table_replica = table;
            RefreshRoutingLocked(m);
          }
        }
      });
  if (m >= options_.num_slaves) return;  // Proxies/client carry no data.

  fabric_->RegisterSyncHandler(
      m, kCellOpHandler,
      [this, m](MachineId, Slice request, std::string* response) {
        std::uint8_t op = 0;
        CellId id = 0;
        Slice payload;
        if (!DecodeCellOp(request, &op, &id, &payload)) {
          return Status::Corruption("bad cell op request");
        }
        return ExecuteLocal(m, static_cast<CellOp>(op), id, payload,
                            response);
      });
  fabric_->RegisterSyncHandler(
      m, kMultiGetHandler,
      [this, m](MachineId, Slice request, std::string* response) {
        BinaryReader reader(request);
        std::uint8_t op = 0;
        std::uint32_t count = 0;
        if (!reader.GetU8(&op) || !reader.GetU32(&count)) {
          return Status::Corruption("bad multi-get request");
        }
        if (response == nullptr) return Status::InvalidArgument("no response");
        auto store = StorageOf(m);
        if (store == nullptr) return Status::Unavailable("not a slave");
        for (std::uint32_t i = 0; i < count; ++i) {
          CellId id = 0;
          if (!reader.GetU64(&id)) {
            return Status::Corruption("bad multi-get request");
          }
          storage::MemoryTrunk* trunk = store->trunk(TrunkOf(id));
          if (trunk == nullptr) {
            // The caller's routing snapshot is stale for this id. Fail the
            // whole batch so the caller re-routes each id individually —
            // partial answers must not masquerade as NotFound.
            return Status::Unavailable("trunk not hosted");
          }
          if (static_cast<CellOp>(op) == CellOp::kContains) {
            // Present ids answer with an empty record; absent ids are
            // simply omitted from the response.
            if (trunk->Contains(id)) {
              compute::AppendPackedRecord(response, id, Slice());
            }
            continue;
          }
          storage::MemoryTrunk::ConstAccessor accessor;
          if (trunk->Access(id, &accessor).ok()) {
            compute::AppendPackedRecord(response, id, accessor.data());
          }
        }
        return Status::OK();
      });
  fabric_->RegisterSyncHandler(
      m, kHeartbeatHandler,
      [](MachineId, Slice, std::string* response) {
        if (response != nullptr) *response = "pong";
        return Status::OK();
      });
  fabric_->RegisterSyncHandler(
      m, kLogRecordHandler,
      [this, m](MachineId src, Slice request, std::string*) {
        BinaryReader reader(request);
        LogRecord record;
        std::uint8_t op = 0;
        Slice payload;
        if (!reader.GetU64(&record.seq) || !reader.GetU8(&op) ||
            !reader.GetU64(&record.id) || !reader.GetBytes(&payload)) {
          return Status::Corruption("bad log record");
        }
        record.op = static_cast<CellOp>(op);
        record.payload = payload.ToString();
        std::lock_guard<std::mutex> lock(mu_);
        machines_[m].backup_logs[src].push_back(std::move(record));
        return Status::OK();
      });
  fabric_->RegisterAsyncHandler(
      m, kLogTruncateHandler, [this, m](MachineId src, Slice) {
        std::lock_guard<std::mutex> lock(mu_);
        machines_[m].backup_logs[src].clear();
      });
  fabric_->RegisterSyncHandler(
      m, kTrunkMigrateHandler,
      [this, m](MachineId, Slice request, std::string*) {
        BinaryReader reader(request);
        std::int32_t trunk_id = 0;
        Slice image;
        if (!reader.GetI32(&trunk_id) || !reader.GetBytes(&image)) {
          return Status::Corruption("bad trunk migration request");
        }
        std::unique_ptr<storage::MemoryTrunk> trunk;
        Status s = storage::MemoryTrunk::Deserialize(
            image, options_.storage.trunk, &trunk);
        if (!s.ok()) return s;
        auto store = StorageOf(m);
        if (store == nullptr) return Status::Unavailable("not a slave");
        return store->AttachTrunk(trunk_id, std::move(trunk));
      });
  fabric_->RegisterSyncHandler(
      m, kReplicaApplyHandler,
      [this, m](MachineId, Slice request, std::string*) {
        BinaryReader reader(request);
        std::int32_t trunk_id = 0;
        std::uint64_t epoch = 0;
        std::uint8_t op = 0;
        CellId id = 0;
        Slice payload;
        if (!reader.GetI32(&trunk_id) || !reader.GetU64(&epoch) ||
            !reader.GetU8(&op) || !reader.GetU64(&id) ||
            !reader.GetBytes(&payload)) {
          return Status::Corruption("bad replica apply request");
        }
        {
          // Fencing: a mutation stamped with an epoch older than this
          // machine's view of the trunk's fencing token comes from a
          // primary that was deposed by a promotion it never heard about.
          // Aborted is terminal for the sender — the write is never acked.
          std::lock_guard<std::mutex> lock(mu_);
          if (trunk_id < 0 ||
              trunk_id >= machines_[m].table_replica.num_slots()) {
            return Status::Corruption("replica apply trunk out of range");
          }
          if (epoch < machines_[m].table_replica.epoch_of_trunk(trunk_id)) {
            recovery_stats_.fenced_writes.fetch_add(
                1, std::memory_order_relaxed);
            return Status::Aborted(
                "fenced: replication epoch " + std::to_string(epoch) +
                    " is stale for trunk " + std::to_string(trunk_id),
                Status::Subcode::kFenced);
          }
        }
        auto store = StorageOf(m);
        if (store == nullptr) return Status::Unavailable("not a slave");
        storage::MemoryTrunk* replica = store->replica_trunk(trunk_id);
        if (replica == nullptr) {
          return Status::Unavailable("no replica trunk hosted");
        }
        // Mirror the primary's *successful* apply. Add mirrors as Put and
        // Remove tolerates NotFound so a retried/duplicated ship converges
        // to the primary's state instead of erroring.
        switch (static_cast<CellOp>(op)) {
          case CellOp::kAdd:
          case CellOp::kPut:
            return replica->PutCell(id, payload);
          case CellOp::kRemove: {
            Status rs = replica->RemoveCell(id);
            return rs.IsNotFound() ? Status::OK() : rs;
          }
          case CellOp::kAppend:
            return replica->AppendToCell(id, payload);
          default:
            return Status::InvalidArgument("non-mutating replica apply");
        }
      });
  fabric_->RegisterSyncHandler(
      m, kReplicaInstallHandler,
      [this, m](MachineId, Slice request, std::string*) {
        BinaryReader reader(request);
        std::int32_t trunk_id = 0;
        Slice image;
        if (!reader.GetI32(&trunk_id) || !reader.GetBytes(&image)) {
          return Status::Corruption("bad replica install request");
        }
        std::unique_ptr<storage::MemoryTrunk> trunk;
        Status s = storage::MemoryTrunk::Deserialize(
            image, options_.storage.trunk, &trunk);
        if (!s.ok()) return s;
        auto store = StorageOf(m);
        if (store == nullptr) return Status::Unavailable("not a slave");
        return store->AttachReplicaTrunk(trunk_id, std::move(trunk));
      });
  fabric_->RegisterSyncHandler(
      m, kReplicaReadHandler,
      [this, m](MachineId, Slice request, std::string* response) {
        BinaryReader reader(request);
        std::int32_t trunk_id = 0;
        std::uint8_t op = 0;
        CellId id = 0;
        if (!reader.GetI32(&trunk_id) || !reader.GetU8(&op) ||
            !reader.GetU64(&id)) {
          return Status::Corruption("bad replica read request");
        }
        auto store = StorageOf(m);
        if (store == nullptr) return Status::Unavailable("not a slave");
        storage::MemoryTrunk* replica = store->replica_trunk(trunk_id);
        if (replica == nullptr) {
          return Status::Unavailable("no replica trunk hosted");
        }
        switch (static_cast<CellOp>(op)) {
          case CellOp::kGet:
            if (response == nullptr) {
              return Status::InvalidArgument("no response");
            }
            return replica->GetCell(id, response);
          case CellOp::kContains:
            return replica->Contains(id) ? Status::OK()
                                         : Status::NotFound("");
          default:
            return Status::InvalidArgument("mutating replica read");
        }
      });
  fabric_->RegisterSyncHandler(
      m, kIsrShrinkHandler,
      [this, m](MachineId src, Slice request, std::string*) {
        BinaryReader reader(request);
        std::int32_t trunk_id = 0;
        std::uint64_t epoch = 0;
        std::int32_t replica = 0;
        if (!reader.GetI32(&trunk_id) || !reader.GetU64(&epoch) ||
            !reader.GetI32(&replica)) {
          return Status::Corruption("bad ISR shrink request");
        }
        std::lock_guard<std::mutex> lock(mu_);
        if (m != leader_) {
          // Caller's leader view is stale; retryable once it re-learns.
          return Status::Unavailable("not the leader");
        }
        if (trunk_id < 0 || trunk_id >= primary_table_.num_slots()) {
          return Status::Corruption("ISR shrink trunk out of range");
        }
        if (primary_table_.machine_of_trunk(trunk_id) != src ||
            epoch < primary_table_.epoch_of_trunk(trunk_id)) {
          // The caller was deposed: a promotion moved the trunk (bumping
          // its epoch) after the caller last synced. It must not be allowed
          // to establish ack authority by shrinking the in-sync set.
          recovery_stats_.fenced_writes.fetch_add(1,
                                                  std::memory_order_relaxed);
          return Status::Aborted("fenced: shrink from deposed primary",
                                 Status::Subcode::kFenced);
        }
        primary_table_.RemoveReplica(trunk_id, replica);
        Status ps = PersistTableLocked();
        if (!ps.ok()) return ps;
        BroadcastTableLocked();
        return Status::OK();
      });
}

MachineId MemoryCloud::MachineOf(CellId id) const {
  std::shared_ptr<const RoutingView> view =
      primary_routing_.load(std::memory_order_acquire);
  if (view != nullptr &&
      view->stamp == routing_stamp_.load(std::memory_order_acquire)) {
    return view->owner[TrunkOf(id)];
  }
  std::lock_guard<std::mutex> lock(mu_);
  RefreshPrimaryRoutingLocked();
  return primary_table_.machine_of_trunk(TrunkOf(id));
}

storage::MemoryStorage* MemoryCloud::storage(MachineId m) {
  // Lock-free: liveness and the storage pointer are both atomics. A crashed
  // machine's memory image may linger until recovery (see OnInjectedCrash)
  // but must never be readable.
  if (!alive_[m].load(std::memory_order_acquire)) return nullptr;
  return StorageOf(m).get();
}

const AddressingTable& MemoryCloud::table() const { return primary_table_; }

std::uint64_t MemoryCloud::MemoryFootprintBytes() const {
  std::uint64_t total = 0;
  for (int m = 0; m < options_.num_slaves; ++m) {
    auto store = StorageOf(m);
    if (alive_[m].load(std::memory_order_acquire) && store != nullptr) {
      total += store->MemoryFootprintBytes();
    }
  }
  return total;
}

std::uint64_t MemoryCloud::TotalCellCount() const {
  std::uint64_t total = 0;
  for (int m = 0; m < options_.num_slaves; ++m) {
    auto store = StorageOf(m);
    if (alive_[m].load(std::memory_order_acquire) && store != nullptr) {
      total += store->TotalCellCount();
    }
  }
  return total;
}

storage::MemoryTrunk::Stats MemoryCloud::AggregateTrunkStats() const {
  storage::MemoryTrunk::Stats total;
  for (int m = 0; m < options_.num_slaves; ++m) {
    auto store = StorageOf(m);
    if (!alive_[m].load(std::memory_order_acquire) || store == nullptr) {
      continue;
    }
    const storage::MemoryTrunk::Stats s = store->AggregateTrunkStats();
    total.live_cells += s.live_cells;
    total.live_bytes += s.live_bytes;
    total.reserved_slack += s.reserved_slack;
    total.dead_bytes += s.dead_bytes;
    total.used_bytes += s.used_bytes;
    total.resident_bytes += s.resident_bytes;
    total.committed_bytes += s.committed_bytes;
    total.capacity += s.capacity;
    total.defrag_passes += s.defrag_passes;
    total.cells_moved += s.cells_moved;
    total.expansions_in_place += s.expansions_in_place;
    total.expansions_relocated += s.expansions_relocated;
    total.compressed_cells += s.compressed_cells;
    total.compressed_bytes += s.compressed_bytes;
    total.spilled_cells += s.spilled_cells;
    total.spilled_bytes += s.spilled_bytes;
    total.cells_evicted += s.cells_evicted;
    total.cells_faulted += s.cells_faulted;
    total.cold_bytes_written += s.cold_bytes_written;
    total.cold_bytes_read += s.cold_bytes_read;
    total.shared_reads += s.shared_reads;
    total.read_lock_contended += s.read_lock_contended;
    total.write_lock_contended += s.write_lock_contended;
    total.cell_lock_contended += s.cell_lock_contended;
  }
  return total;
}

Status MemoryCloud::ExecuteLocal(MachineId m, CellOp op, CellId id,
                                 Slice payload, std::string* response) {
  auto store = StorageOf(m);
  if (store == nullptr) return Status::Unavailable("not a slave");
  storage::MemoryTrunk* trunk = store->trunk(TrunkOf(id));
  if (trunk == nullptr) {
    // The caller's addressing-table replica is stale.
    return Status::Unavailable("trunk not hosted");
  }
  const bool mutating = op == CellOp::kAdd || op == CellOp::kPut ||
                        op == CellOp::kRemove || op == CellOp::kAppend;
  Status result;
  switch (op) {
    case CellOp::kAdd:
      result = trunk->AddCell(id, payload);
      break;
    case CellOp::kPut:
      result = trunk->PutCell(id, payload);
      break;
    case CellOp::kGet: {
      if (response == nullptr) return Status::InvalidArgument("no response");
      return trunk->GetCell(id, response);
    }
    case CellOp::kRemove:
      result = trunk->RemoveCell(id);
      break;
    case CellOp::kAppend:
      result = trunk->AppendToCell(id, payload);
      break;
    case CellOp::kContains:
      return trunk->Contains(id) ? Status::OK() : Status::NotFound("");
    default:
      return Status::InvalidArgument("unknown op");
  }
  // Only *successful* mutations reach the backup's log buffer — a rejected
  // op (e.g. AddCell on an existing id) must not be replayed at recovery.
  // (The coarse crash model here — failures happen between operations —
  // makes log-after-apply equivalent to RAMCloud's log-before-commit.)
  if (result.ok() && mutating && options_.buffered_logging &&
      options_.tfs != nullptr) {
    if (!LogToBackup(m, op, id, payload)) {
      // The machine crashed while logging and no live backup holds the
      // record: the local apply above is now a ghost image that recovery
      // will discard. Acking would lose the write — fail instead, and let
      // the caller's retry re-apply on the recovered owner.
      return Status::Unavailable("machine crashed before logging completed");
    }
  }
  if (result.ok() && mutating && replicated()) {
    // Synchronous primary/backup replication: the ack goes out only after
    // every in-sync replica applied the mutation (or the leader confirmed
    // shrinking it out). Like the logging path above, a non-OK here after a
    // successful local apply leaves a ghost the healthy cluster never
    // reads; callers retry against the (possibly promoted) owner, so
    // mutations are at-least-once — Put/Remove are idempotent.
    Status rs = ReplicateMutation(m, op, id, payload);
    if (!rs.ok()) return rs;
  }
  return result;
}

Status MemoryCloud::ReplicateMutation(MachineId primary, CellOp op, CellId id,
                                      Slice payload) {
  const TrunkId t = TrunkOf(id);
  std::uint64_t epoch = 0;
  std::vector<MachineId> replicas;
  {
    // The primary's *own* table replica drives its write path. This is the
    // fencing linchpin: a deposed primary (partitioned away before a
    // promotion it never heard about) still advertises its old epoch and
    // still targets its old in-sync set, so its traffic reaches a machine
    // holding a newer table and dies with Aborted — it cannot consult some
    // post-promotion global state and quietly ack against an empty set.
    std::lock_guard<std::mutex> lock(mu_);
    epoch = machines_[primary].table_replica.epoch_of_trunk(t);
    replicas = machines_[primary].table_replica.replicas_of_trunk(t);
  }
  BinaryWriter writer;
  writer.PutI32(t);
  writer.PutU64(epoch);
  writer.PutU8(static_cast<std::uint8_t>(op));
  writer.PutU64(id);
  writer.PutBytes(payload);
  for (MachineId r : replicas) {
    RetryPolicy::RunHooks hooks;
    hooks.salt = Mix64(id) ^ Mix64(static_cast<std::uint64_t>(r) + 1);
    hooks.charge = [&](double micros) {
      fabric_->AddCpuMicros(primary, micros);
    };
    // Dead replica — shrink it out of the in-sync set, don't retry.
    hooks.keep_trying = [&] { return fabric_->IsMachineUp(r); };
    Status s = options_.retry.Run(hooks, [&](int) -> Status {
      std::string unused;
      Status as = fabric_->Call(primary, r, kReplicaApplyHandler,
                                Slice(writer.buffer()), &unused);
      if (as.ok() && !fabric_->IsMachineUp(r)) {
        // The replica crashed right after applying; its copy is a ghost
        // and protects nothing.
        as = Status::Unavailable("replica crashed after apply");
      }
      return as;
    });
    if (s.ok()) continue;  // Replicated.
    if (s.IsAborted()) {
      // The replica holds a newer fencing epoch: we were deposed. Terminal.
      return Status::Aborted("fenced: trunk " + std::to_string(t) +
                                 " has a newer primary (" + s.message() + ")",
                             Status::Subcode::kFenced);
    }
    // Replica dead or unreachable. Ask the current leader to shrink it out
    // of the in-sync set before acking without it — the leader knows the
    // real epoch, so a deposed primary is fenced on this path too.
    Status cs = ConfirmShrink(primary, t, epoch, r);
    if (cs.IsAborted()) return cs;
    if (!cs.ok()) {
      // No confirmation (leader unreachable / partitioned): acking a write
      // the in-sync set did not see could lose it at the next promotion.
      return Status::Unavailable("replica " + std::to_string(r) +
                                 " unreachable and in-sync shrink "
                                 "unconfirmed: " + cs.message());
    }
  }
  if (!fabric_->IsMachineUp(primary)) {
    // Injected crash took the primary down mid-replication; its local apply
    // is a ghost image that the promotion path discards.
    return Status::Unavailable("primary crashed during replication");
  }
  return Status::OK();
}

Status MemoryCloud::ConfirmShrink(MachineId primary, TrunkId trunk,
                                  std::uint64_t epoch, MachineId replica) {
  BinaryWriter writer;
  writer.PutI32(trunk);
  writer.PutU64(epoch);
  writer.PutI32(replica);
  RetryPolicy::RunHooks hooks;
  hooks.salt = Mix64(static_cast<std::uint64_t>(trunk)) ^
               Mix64(static_cast<std::uint64_t>(replica) + 2);
  hooks.charge = [&](double micros) {
    fabric_->AddCpuMicros(primary, micros);
  };
  return options_.retry.Run(hooks, [&](int) -> Status {
    MachineId leader;
    {
      std::lock_guard<std::mutex> lock(mu_);
      leader = leader_;
    }
    // Self-calls (primary == leader) still route through the fabric and
    // run the same fencing check, keeping one code path.
    std::string unused;
    return fabric_->Call(primary, leader, kIsrShrinkHandler,
                         Slice(writer.buffer()), &unused);
  });
}

Status MemoryCloud::TryReplicaRead(MachineId src, CellOp op, CellId id,
                                   std::string* response, bool* served,
                                   CallContext* ctx) {
  *served = false;
  const TrunkId t = TrunkOf(id);
  std::vector<MachineId> replicas;
  {
    std::lock_guard<std::mutex> lock(mu_);
    replicas = primary_table_.replicas_of_trunk(t);
  }
  BinaryWriter writer;
  writer.PutI32(t);
  writer.PutU8(static_cast<std::uint8_t>(op));
  writer.PutU64(id);
  for (MachineId r : replicas) {
    if (!fabric_->IsMachineUp(r)) continue;
    std::string resp;
    Status s = fabric_->Call(src, r, kReplicaReadHandler,
                             Slice(writer.buffer()), &resp, ctx);
    if (s.IsRetryable()) continue;  // Next replica.
    // Definitive answer (OK / NotFound / error): the read was served.
    *served = true;
    recovery_stats_.degraded_reads.fetch_add(1, std::memory_order_relaxed);
    if (s.ok() && response != nullptr) *response = std::move(resp);
    return s;
  }
  return Status::Unavailable("no in-sync replica served the read");
}

bool MemoryCloud::LogToBackup(MachineId primary, CellOp op, CellId id,
                              Slice payload) {
  std::uint64_t seq;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seq = machines_[primary].next_log_seq++;
  }
  BinaryWriter writer;
  writer.PutU64(seq);
  writer.PutU8(static_cast<std::uint8_t>(op));
  writer.PutU64(id);
  writer.PutBytes(payload);
  // Synchronous: the record must reach *some* backup's memory before the
  // mutation commits locally (RAMCloud buffered logging). A backup crashing
  // mid-call or a transient injected failure must not leave the mutation
  // unlogged — that is exactly the window where an acknowledged write could
  // be lost — so keep trying surviving backups. BackupOf re-evaluates
  // liveness on every attempt, skipping backups that just died.
  for (int attempt = 0; attempt < 2 * options_.num_slaves; ++attempt) {
    const MachineId backup = BackupOf(primary);
    if (backup == kInvalidMachine) break;  // No surviving backup at all.
    std::string unused;
    Status s = fabric_->Call(primary, backup, kLogRecordHandler,
                             Slice(writer.buffer()), &unused);
    if (s.ok()) {
      // The backup may have crashed the instant after buffering the record
      // (its log died with it); an ack from a now-dead backup protects
      // nothing, so re-log to the next survivor.
      if (fabric_->IsMachineUp(backup)) return true;
      continue;
    }
    fabric_->AddCpuMicros(primary, options_.retry.backoff_base_micros);
  }
  // Retries exhausted (or no backup exists). If the primary is still up the
  // write stays durable-in-RAM under the best-effort semantics of a cluster
  // with no reachable backup; but if an injected crash took the primary down
  // *mid-logging*, the record protects nothing and the ack must not go out.
  return fabric_->IsMachineUp(primary);
}

void MemoryCloud::OnInjectedCrash(MachineId m) {
  if (m < 0 || m >= num_endpoints()) return;
  std::lock_guard<std::mutex> lock(mu_);
  alive_[m].store(false, std::memory_order_release);
  // Membership changed: lazily invalidate every routing snapshot.
  routing_stamp_.fetch_add(1, std::memory_order_acq_rel);
  if (m >= options_.num_slaves) return;  // Proxies/client carry no state.
  machines_[m].backup_logs.clear();  // The logs it held as backup are gone.
  // Re-protection snapshots only matter when buffered logs exist; in
  // replicated mode the sweep would otherwise never converge to "handled".
  if (options_.buffered_logging) reprotect_pending_ = true;
  // Unlike FailMachine we keep the storage object itself: an injected crash
  // can fire mid-protocol while a caller (e.g. a vertex program) still holds
  // zero-copy slices into this machine's trunk memory. The machine is
  // unreachable — storage() hides dead machines' state and the fabric
  // rejects their traffic — and the stale image is discarded by
  // RecoverMachine/RestartMachine.
}

MachineId MemoryCloud::BackupOf(MachineId m) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (int step = 1; step < options_.num_slaves; ++step) {
    const MachineId candidate = (m + step) % options_.num_slaves;
    if (alive_[candidate].load(std::memory_order_acquire)) return candidate;
  }
  return kInvalidMachine;
}

void MemoryCloud::RefreshRoutingLocked(MachineId m) {
  auto view = std::make_shared<RoutingView>();
  view->stamp = routing_stamp_.load(std::memory_order_acquire);
  const AddressingTable& table = machines_[m].table_replica;
  view->owner.resize(static_cast<std::size_t>(table.num_slots()));
  for (TrunkId t = 0; t < table.num_slots(); ++t) {
    view->owner[static_cast<std::size_t>(t)] = table.machine_of_trunk(t);
  }
  machines_[m].routing.store(std::move(view), std::memory_order_release);
}

void MemoryCloud::RefreshPrimaryRoutingLocked() const {
  auto view = std::make_shared<RoutingView>();
  view->stamp = routing_stamp_.load(std::memory_order_acquire);
  view->owner.resize(static_cast<std::size_t>(primary_table_.num_slots()));
  for (TrunkId t = 0; t < primary_table_.num_slots(); ++t) {
    view->owner[static_cast<std::size_t>(t)] =
        primary_table_.machine_of_trunk(t);
  }
  primary_routing_.store(std::move(view), std::memory_order_release);
}

MachineId MemoryCloud::RouteDst(MachineId src, CellId id) {
  const TrunkId t = TrunkOf(id);
  // RCU fast path: route against this machine's immutable snapshot with no
  // lock taken. The stamp check bounds staleness to the last membership or
  // table change; correctness never depends on it because a wrong owner
  // answers Unavailable and RouteOp re-syncs and retries.
  std::shared_ptr<const RoutingView> view =
      machines_[src].routing.load(std::memory_order_acquire);
  if (view != nullptr &&
      view->stamp == routing_stamp_.load(std::memory_order_acquire)) {
    return view->owner[static_cast<std::size_t>(t)];
  }
  // Slow path: rebuild the snapshot under the lock from the (possibly still
  // stale) table replica — re-sync with the primary stays RouteOp's job.
  std::lock_guard<std::mutex> lock(mu_);
  RefreshRoutingLocked(src);
  return machines_[src].table_replica.machine_of_trunk(t);
}

Status MemoryCloud::RouteOp(MachineId src, CellOp op, CellId id,
                            Slice payload, std::string* response,
                            CallContext* ctx) {
  const RetryPolicy& retry = options_.retry;
  if (!fabric_->IsMachineUp(src)) {
    // A dead machine cannot issue operations — this also keeps the local
    // fast path below from reading a crashed machine's lingering image.
    return Status::Unavailable("source machine is down");
  }
  bool owner_down = false;
  bool src_down = false;
  RetryPolicy::RunHooks hooks;
  hooks.ctx = ctx;
  hooks.salt = Mix64(id) ^ static_cast<std::uint64_t>(src);
  // Exponential backoff in simulated time: the stall is charged to the
  // retrying endpoint's CPU meter so the cost model sees it, and every run
  // of a given seed waits the exact same (jittered) amount.
  hooks.charge = [&](double micros) {
    fabric_->AddCpuMicros(src, micros, net::MetersOf(ctx));
  };
  hooks.keep_trying = [&] {
    if (!fabric_->IsMachineUp(src)) {
      // The source crashed between attempts; its ghost image must not
      // serve the local fast path below.
      src_down = true;
      return false;
    }
    return true;
  };
  Status last = retry.Run(hooks, [&](int) -> Status {
    const MachineId dst = RouteDst(src, id);
    Status s;
    if (dst == src && StorageOf(src) != nullptr) {
      net::Fabric::MeterScope meter(*fabric_, src, net::MetersOf(ctx));
      s = ExecuteLocal(src, op, id, payload, response);
    } else {
      const std::string request =
          EncodeCellOp(static_cast<std::uint8_t>(op), id, payload);
      s = fabric_->Call(src, dst, kCellOpHandler, Slice(request),
                        response, ctx);
    }
    // Unavailable: our table replica is stale ("trunk not hosted"), the
    // owner crashed, or a fault was injected on the wire. TimedOut is the
    // injected lost-response case — equally retriable. Everything else is a
    // definitive answer (including Aborted: the source is a fenced, deposed
    // primary and must not spin).
    if (!s.IsRetryable()) return s;
    // Degraded-read failover: a read blocked by a dead *or partitioned*
    // owner is served by any in-sync replica immediately, before (and
    // without) any promotion work.
    if (replicated() &&
        (op == CellOp::kGet || op == CellOp::kContains)) {
      bool served = false;
      Status rs = TryReplicaRead(src, op, id, response, &served, ctx);
      if (served) return rs;
    }
    owner_down = !fabric_->IsMachineUp(dst);
    if (owner_down) {
      if (replicated()) {
        if (options_.auto_promote) {
          // Promotion failover: a metadata flip (epoch bump + table move),
          // no TFS reads unless every replica of a trunk died with the
          // owner. The retry below routes to the promoted primary.
          Status rs = RecoverMachine(dst);
          if (!rs.ok()) return rs;
        } else {
          // Writes stay retryable until the sweep promotes.
          return Status::Unavailable(
              "owner down; promotion pending for trunk " +
              std::to_string(TrunkOf(id)) + " (retry)");
        }
      } else if (options_.tfs != nullptr) {
        Status rs = RecoverMachine(dst);
        if (!rs.ok()) return rs;
      } else {
        // Pure in-memory mode: no recovery path exists, but the replica can
        // still be merely stale — MigrateTrunk/RebalanceTrunks move trunks
        // without any crash. Re-sync from the primary table and retry only
        // if it names a different (live) owner.
        std::lock_guard<std::mutex> lock(mu_);
        if (primary_table_.machine_of_trunk(TrunkOf(id)) == dst) {
          return Status::Unavailable(
              "owner unrecoverable: machine " + std::to_string(dst) +
              " is down and no TFS is configured for recovery");
        }
      }
    }
    // §6.2: "machine A will wait for the addressing table to be updated,
    // and attempt to access the item again."
    std::lock_guard<std::mutex> lock(mu_);
    machines_[src].table_replica = primary_table_;
    RefreshRoutingLocked(src);
    return s;
  });
  if (src_down) return Status::Unavailable("source machine is down");
  if (!last.IsRetryable()) return last;
  // Bounded attempts exhausted — name the terminal condition precisely so
  // callers can tell a dead owner from a table that never converges.
  if (owner_down) {
    return Status::Unavailable("owner unrecoverable after " +
                               std::to_string(retry.max_attempts) +
                               " attempts: " + last.message());
  }
  return Status::Unavailable("addressing table permanently stale after " +
                             std::to_string(retry.max_attempts) +
                             " attempts: " + last.message());
}

// Single-cell *mutations* acquire the cell's stripe in the shared
// CellStripes table so they serialize against in-flight guarded operations
// (MultiOp, transaction intent CAS) touching the same cell — a bare write
// can no longer land between a guard's evaluation and its action apply.
// Reads stay lock-free: they cannot invalidate a guard, and the guarded
// paths hold the stripes across their own reads. Re-entrant acquisitions
// from MultiOp's action phase are skipped by the per-thread held list.

Status MemoryCloud::AddCellFrom(MachineId src, CellId id, Slice payload,
                                CallContext* ctx) {
  CellStripes::Guard guard(id);
  return RouteOp(src, CellOp::kAdd, id, payload, nullptr, ctx);
}

Status MemoryCloud::PutCellFrom(MachineId src, CellId id, Slice payload,
                                CallContext* ctx) {
  CellStripes::Guard guard(id);
  return RouteOp(src, CellOp::kPut, id, payload, nullptr, ctx);
}

Status MemoryCloud::GetCellFrom(MachineId src, CellId id, std::string* out,
                                CallContext* ctx) {
  return RouteOp(src, CellOp::kGet, id, Slice(), out, ctx);
}

Status MemoryCloud::RemoveCellFrom(MachineId src, CellId id,
                                   CallContext* ctx) {
  CellStripes::Guard guard(id);
  return RouteOp(src, CellOp::kRemove, id, Slice(), nullptr, ctx);
}

Status MemoryCloud::AppendToCellFrom(MachineId src, CellId id, Slice suffix,
                                     CallContext* ctx) {
  CellStripes::Guard guard(id);
  return RouteOp(src, CellOp::kAppend, id, suffix, nullptr, ctx);
}

Status MemoryCloud::MultiOp(MachineId src, CellOp op,
                            std::span<const CellId> ids,
                            std::vector<MultiGetResult>* out,
                            CallContext* ctx) {
  if (out == nullptr) return Status::InvalidArgument("no output vector");
  out->assign(ids.size(), MultiGetResult{});
  if (ids.empty()) return Status::OK();
  if (!fabric_->IsMachineUp(src)) {
    return Status::Unavailable("source machine is down");
  }
  // Group the batch by owner via the lock-free snapshot. std::map keeps the
  // per-machine call order deterministic for the fault injector.
  std::map<MachineId, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    groups[RouteDst(src, ids[i])].push_back(i);
  }
  // Ids whose batched path failed retriably fall back to the single-id
  // RouteOp, which owns re-sync, degraded reads, and promotion failover.
  std::vector<std::size_t> fallback;
  for (const auto& [dst, indices] : groups) {
    auto store = StorageOf(src);
    if (dst == src && store != nullptr) {
      // Local group: answer straight from the trunks, one accessor per id.
      net::Fabric::MeterScope meter(*fabric_, src, net::MetersOf(ctx));
      for (std::size_t i : indices) {
        storage::MemoryTrunk* trunk = store->trunk(TrunkOf(ids[i]));
        if (trunk == nullptr) {
          fallback.push_back(i);  // Snapshot was stale for this id.
          continue;
        }
        if (op == CellOp::kContains) {
          if (trunk->Contains(ids[i])) (*out)[i].status = Status::OK();
          continue;
        }
        storage::MemoryTrunk::ConstAccessor accessor;
        Status s = trunk->Access(ids[i], &accessor);
        if (s.ok()) {
          (*out)[i].value.assign(accessor.data().data(),
                                 accessor.data().size());
          (*out)[i].status = Status::OK();
        }
      }
      continue;
    }
    // Remote group: one packed request for the whole machine.
    BinaryWriter writer;
    writer.PutU8(static_cast<std::uint8_t>(op));
    writer.PutU32(static_cast<std::uint32_t>(indices.size()));
    for (std::size_t i : indices) writer.PutU64(ids[i]);
    const std::string request = writer.Release();
    std::string response;
    Status s = fabric_->Call(src, dst, kMultiGetHandler, Slice(request),
                             &response, ctx);
    if (!s.ok()) {
      // Stale routing, dead owner, or injected fault: every id in the group
      // retries individually so failover semantics match GetCellFrom.
      fallback.insert(fallback.end(), indices.begin(), indices.end());
      continue;
    }
    // The response holds one packed record per *found* id; ids the owner did
    // not report keep their NotFound default.
    std::map<CellId, std::vector<std::size_t>> by_id;
    for (std::size_t i : indices) by_id[ids[i]].push_back(i);
    compute::ForEachPackedRecord(Slice(response),
                                 [&](CellId id, Slice bytes) {
      auto it = by_id.find(id);
      if (it == by_id.end()) return;
      for (std::size_t i : it->second) {
        (*out)[i].status = Status::OK();
        if (op == CellOp::kGet) {
          (*out)[i].value.assign(bytes.data(), bytes.size());
        }
      }
    });
  }
  for (std::size_t i : fallback) {
    std::string value;
    Status s = RouteOp(src, op, ids[i], Slice(),
                       op == CellOp::kGet ? &value : nullptr, ctx);
    (*out)[i].status = s;
    if (s.ok() && op == CellOp::kGet) (*out)[i].value = std::move(value);
  }
  return Status::OK();
}

Status MemoryCloud::MultiGet(MachineId src, std::span<const CellId> ids,
                             std::vector<MultiGetResult>* out,
                             CallContext* ctx) {
  return MultiOp(src, CellOp::kGet, ids, out, ctx);
}

Status MemoryCloud::MultiContains(MachineId src, std::span<const CellId> ids,
                                  std::vector<MultiGetResult>* out,
                                  CallContext* ctx) {
  return MultiOp(src, CellOp::kContains, ids, out, ctx);
}

Status MemoryCloud::Contains(CellId id, bool* exists) {
  *exists = false;
  Status s = RouteOp(client_id(), CellOp::kContains, id, Slice(), nullptr);
  if (s.ok()) {
    *exists = true;
    return Status::OK();
  }
  if (s.IsNotFound()) return Status::OK();
  return s;  // Unavailable etc. — absence was NOT established.
}

Status MemoryCloud::PersistTableLocked() {
  if (options_.tfs == nullptr) return Status::OK();
  // "An update to the primary table must be applied to the persistent
  // replica before committing" (§6.2).
  return options_.tfs->WriteFile(options_.tfs_prefix + "/addressing_table",
                                 Slice(primary_table_.Serialize()));
}

void MemoryCloud::BroadcastTableLocked() {
  const std::string image = primary_table_.Serialize();
  // New table generation: retire every routing snapshot built before this
  // broadcast, then rebuild the views of the machines the broadcast reaches
  // so their fast paths resume immediately. Machines the broadcast skips
  // (dead ones) rebuild lazily on their first post-restart read.
  routing_stamp_.fetch_add(1, std::memory_order_acq_rel);
  for (MachineId m = 0; m < num_endpoints(); ++m) {
    if (m == leader_) {
      machines_[m].table_replica = primary_table_;
      RefreshRoutingLocked(m);
      continue;
    }
    if (!alive_[m].load(std::memory_order_acquire)) continue;
    // Direct replica install; losing the broadcast is tolerated because a
    // stale machine re-syncs on its next failed access.
    AddressingTable table(0, 1);
    if (AddressingTable::Deserialize(Slice(image), &table).ok()) {
      machines_[m].table_replica = table;
      RefreshRoutingLocked(m);
    }
  }
  RefreshPrimaryRoutingLocked();
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
    auto store = StorageOf(m);
    if (!alive_[m].load(std::memory_order_acquire) || store == nullptr) {
      continue;
    }
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

Status MemoryCloud::FailMachine(MachineId m) {
  if (m < 0 || m >= options_.num_slaves) {
    return Status::InvalidArgument("can only fail slaves");
  }
  fabric_->SetMachineDown(m);
  std::lock_guard<std::mutex> lock(mu_);
  alive_[m].store(false, std::memory_order_release);
  routing_stamp_.fetch_add(1, std::memory_order_acq_rel);
  machines_[m].storage.store(nullptr);  // RAM contents are gone.
  machines_[m].backup_logs.clear();  // So are the logs it held as backup.
  // The wiped logs may have been the only copies protecting other
  // primaries' recent writes; the next recovery snapshot re-protects them.
  if (options_.buffered_logging) reprotect_pending_ = true;
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

Status MemoryCloud::RecoverMachine(MachineId failed) {
  if (options_.tfs == nullptr && !replicated()) {
    return Status::InvalidArgument("recovery requires TFS or replication");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (replicated()) return PromoteReplicasLocked(failed);
  if (alive_[failed].load(std::memory_order_acquire)) {
    alive_[failed].store(false, std::memory_order_release);
    fabric_->SetMachineDown(failed);
  }
  // Covers both the explicit-failure path and an injected crash whose stale
  // memory image was deliberately kept alive until now (see OnInjectedCrash).
  machines_[failed].storage.store(nullptr);
  if (leader_ == failed || !alive_[leader_].load(std::memory_order_acquire)) {
    // Leader is gone; elect a new one (inline, we already hold the state).
    const std::vector<MachineId> alive = AliveSlavesLocked();
    if (alive.empty()) return Status::Unavailable("no alive slaves");
    leader_ = alive.front();
    if (options_.tfs != nullptr) {
      ++leader_epoch_;
      options_.tfs->CreateExclusive(
          options_.tfs_prefix + "/leader_epoch_" +
              std::to_string(leader_epoch_),
          Slice(std::to_string(leader_)));
    }
  }
  const std::vector<MachineId> targets = AliveSlavesLocked();
  if (targets.empty()) return Status::Unavailable("no recovery targets");
  const std::vector<TrunkId> trunks = primary_table_.trunks_of(failed);
  if (trunks.empty()) {
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
  // broadcasts it" (§6.2). Trunks load from the last *committed* snapshot
  // epoch; a half-written staging epoch is invisible here.
  const std::string snap_prefix = SnapshotPrefixLocked();
  std::size_t next = 0;
  for (TrunkId t : trunks) {
    const MachineId target = targets[next++ % targets.size()];
    auto target_store = StorageOf(target);
    if (target_store == nullptr) {
      return Status::Unavailable("recovery target lost its storage");
    }
    std::unique_ptr<storage::MemoryTrunk> trunk;
    Status s = snap_prefix.empty()
                   ? Status::NotFound("no committed snapshot")
                   : storage::MemoryStorage::LoadTrunkFromTfs(
                         options_.tfs, snap_prefix, t,
                         options_.storage.trunk, &trunk);
    if (s.IsNotFound()) {
      // Never snapshotted: recover an empty trunk (plus log replay below).
      s = storage::MemoryTrunk::Create(options_.storage.trunk, &trunk);
    }
    if (!s.ok()) return s;
    s = target_store->AttachTrunk(t, std::move(trunk));
    if (!s.ok()) return s;
    primary_table_.MoveTrunk(t, target);
  }

  // Replay buffered log records held for the failed primary. Records may be
  // spread over several backups (the backup choice follows liveness) and a
  // retried log call can deposit the same record twice, so gather them all,
  // order by sequence number and replay each seq exactly once.
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
    storage::MemoryTrunk* trunk = owner_store->trunk(t);
    if (trunk == nullptr) continue;
    switch (record.op) {
      case CellOp::kAdd:
      case CellOp::kPut:
        trunk->PutCell(record.id, Slice(record.payload));
        break;
      case CellOp::kRemove:
        trunk->RemoveCell(record.id);
        break;
      case CellOp::kAppend:
        trunk->AppendToCell(record.id, Slice(record.payload));
        break;
      default:
        break;
    }
  }

  // Re-protect the survivors: the failed machine may have held the only
  // backup log copies for other primaries, and those records died with it.
  // Cutting a fresh snapshot (which also persists the updated table)
  // restores full durability — the equivalent of RAMCloud re-replicating a
  // dead backup's log segments. Unavailable means another machine is down
  // with trunks still unassigned; its recovery will cut the snapshot.
  Status s = SnapshotAllLocked();
  if (!s.ok() && !s.IsUnavailable()) return s;
  if (!s.ok()) {
    // The table moved trunks even though the snapshot was deferred.
    Status ps = PersistTableLocked();
    if (!ps.ok()) return ps;
  }
  BroadcastTableLocked();
  return Status::OK();
}

Status MemoryCloud::PromoteReplicasLocked(MachineId failed) {
  // Classify the failure. A fabric endpoint that is still up but failed its
  // heartbeats is partitioned, not crashed: depose it (promote its trunks
  // away, fence its epoch) but keep its endpoint and memory image — the
  // stale primary the split-brain tests aim at. A down endpoint is a real
  // crash: its lingering image (kept by OnInjectedCrash for zero-copy
  // safety) is a ghost and is discarded here.
  if (alive_[failed].load(std::memory_order_acquire)) {
    if (!fabric_->IsMachineUp(failed)) machines_[failed].storage.store(nullptr);
    alive_[failed].store(false, std::memory_order_release);
  } else if (!fabric_->IsMachineUp(failed)) {
    machines_[failed].storage.store(nullptr);
  }
  routing_stamp_.fetch_add(1, std::memory_order_acq_rel);
  machines_[failed].backup_logs.clear();
  if (leader_ == failed || !alive_[leader_].load(std::memory_order_acquire)) {
    const std::vector<MachineId> alive = AliveSlavesLocked();
    if (alive.empty()) return Status::Unavailable("no alive slaves");
    leader_ = alive.front();
    if (options_.tfs != nullptr) {
      ++leader_epoch_;
      options_.tfs->CreateExclusive(
          options_.tfs_prefix + "/leader_epoch_" +
              std::to_string(leader_epoch_),
          Slice(std::to_string(leader_)));
    }
  }
  // The failed machine's replica trunks are ghosts (crash) or unreachable
  // behind a partition; drop it from every in-sync set.
  primary_table_.RemoveReplicaEverywhere(failed);
  const std::vector<TrunkId> owned = primary_table_.trunks_of(failed);
  if (owned.empty()) {
    Status ps = PersistTableLocked();
    if (!ps.ok()) return ps;
    BroadcastTableLocked();
    return Status::OK();
  }
  const std::vector<MachineId> survivors = AliveSlavesLocked();
  if (survivors.empty()) return Status::Unavailable("no alive slaves");
  const std::string snap_prefix =
      options_.tfs == nullptr ? std::string() : SnapshotPrefixLocked();
  int promoted = 0;
  int reloaded = 0;
  std::size_t rr = 0;
  for (TrunkId t : owned) {
    MachineId target = kInvalidMachine;
    std::shared_ptr<storage::MemoryStorage> target_store;
    for (MachineId r : primary_table_.replicas_of_trunk(t)) {
      auto store = StorageOf(r);
      if (alive_[r].load(std::memory_order_acquire) && store != nullptr &&
          store->replica_trunk(t) != nullptr) {
        target = r;
        target_store = std::move(store);
        break;
      }
    }
    if (target != kInvalidMachine) {
      // The hot path: an O(1) ownership flip. No trunk bytes move and no
      // TFS file is read — the acceptance criterion the chaos tests assert
      // via the TFS read counters.
      Status s = target_store->PromoteReplicaTrunk(t);
      if (!s.ok()) return s;
      primary_table_.MoveTrunk(t, target);  // Bumps the fencing epoch.
      primary_table_.RemoveReplica(t, target);  // Promoted: now primary.
      ++promoted;
      continue;
    }
    // Every in-memory replica of this trunk died with its primary — the
    // one case where the TFS cold tier is consulted.
    if (options_.tfs == nullptr) {
      return Status::Unavailable("trunk " + std::to_string(t) +
                                 " lost: all replicas dead and no TFS "
                                 "cold tier configured");
    }
    const MachineId tgt = survivors[rr++ % survivors.size()];
    auto tgt_store = StorageOf(tgt);
    if (tgt_store == nullptr) {
      return Status::Unavailable("recovery target lost its storage");
    }
    std::unique_ptr<storage::MemoryTrunk> trunk;
    Status s = snap_prefix.empty()
                   ? Status::NotFound("no committed snapshot")
                   : storage::MemoryStorage::LoadTrunkFromTfs(
                         options_.tfs, snap_prefix, t,
                         options_.storage.trunk, &trunk);
    if (s.IsNotFound()) {
      // Never snapshotted: writes since creation are lost with the last
      // replica; restart the trunk empty so the cluster keeps serving.
      s = storage::MemoryTrunk::Create(options_.storage.trunk, &trunk);
    }
    if (!s.ok()) return s;
    if (tgt_store->replica_trunk(t) != nullptr) {
      // A stale (not in-sync) replica image is superseded by the reload.
      tgt_store->DetachReplicaTrunk(t);
    }
    s = tgt_store->AttachTrunk(t, std::move(trunk));
    if (!s.ok()) return s;
    primary_table_.MoveTrunk(t, tgt);
    primary_table_.RemoveReplica(t, tgt);
    ++reloaded;
  }
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
      // The machine stays marked down (RecoverMachine flips alive_ before
      // doing any fallible work), so the next sweep retries it; surface
      // the error instead of discarding it.
      report->failed.emplace_back(m, rs);
    }
  };
  // A dead leader cannot probe anyone (the fabric rejects traffic from down
  // machines), so first recover the leader itself — which elects a live
  // successor — before sweeping the cluster with heartbeats.
  MachineId leader;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leader = leader_;
  }
  if (!fabric_->IsMachineUp(leader)) {
    record(leader, RecoverMachine(leader));
  }
  for (int m = 0; m < options_.num_slaves; ++m) {
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
    // condemn a healthy machine to a (costly) false recovery.
    RetryPolicy::RunHooks hooks;
    hooks.salt = Mix64(static_cast<std::uint64_t>(m) + 3);
    hooks.charge = [&](double micros) {
      fabric_->AddCpuMicros(leader_, micros);
    };
    Status s = options_.retry.Run(hooks, [&](int) -> Status {
      std::string pong;
      return fabric_->Call(leader_, m, kHeartbeatHandler, Slice(), &pong);
    });
    if (s.IsRetryable()) {
      record(m, RecoverMachine(m));
    }
  }
  // Background repair: restore the replication factor across the survivors
  // once promotions have drained.
  if (replicated() && options_.rereplicate_on_recover) {
    const int repaired = ReReplicate();
    if (report != nullptr) report->rereplicated_trunks = repaired;
  }
  return recovered;
}

std::uint64_t MemoryCloud::ReplicaMemoryBytes() const {
  std::uint64_t total = 0;
  for (int m = 0; m < options_.num_slaves; ++m) {
    auto store = StorageOf(m);
    if (alive_[m].load(std::memory_order_acquire) && store != nullptr) {
      total += store->ReplicaFootprintBytes();
    }
  }
  return total;
}

net::RecoveryStats MemoryCloud::recovery_stats() const {
  // Lock-free snapshot of the relaxed counters; fields may be mutually
  // inconsistent for an instant, which is fine for observability data.
  return recovery_stats_.Load();
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
      if (!alive_[primary].load(std::memory_order_acquire) ||
          StorageOf(primary) == nullptr) {
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
  // Parallel partitioned serialization: the source images are built
  // concurrently on the pool (the expensive, CPU-bound half), then shipped
  // *sequentially* in canonical order so the fault injector's PRNG — and
  // therefore every chaos seed's behavior — is consumed identically run to
  // run. Mirrors the BSP engine's parallel-compute/sequential-traffic
  // determinism pattern.
  std::vector<std::string> images(jobs.size());
  std::vector<Status> serialize_status(jobs.size(), Status::OK());
  ThreadPool pool(0);
  pool.ParallelFor(static_cast<int>(jobs.size()), [&](int i) {
    auto store = StorageOf(jobs[i].primary);
    storage::MemoryTrunk* source =
        store == nullptr ? nullptr : store->trunk(jobs[i].trunk);
    if (source == nullptr) {
      serialize_status[i] = Status::Unavailable("source trunk vanished");
      return;
    }
    serialize_status[i] = source->Serialize(&images[i]);
  });
  int installed = 0;
  std::uint64_t shipped_bytes = 0;
  std::map<MachineId, double> per_target_micros;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    if (!serialize_status[i].ok()) continue;
    if (!fabric_->IsMachineUp(job.primary) ||
        !fabric_->IsMachineUp(job.target)) {
      continue;  // A crash got here first; the next sweep retries.
    }
    // Charge the serialization to the source machine's CPU meter.
    fabric_->AddCpuMicros(job.primary,
                          static_cast<double>(images[i].size()) * 0.0005);
    BinaryWriter writer;
    writer.PutI32(job.trunk);
    writer.PutBytes(Slice(images[i]));
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
      shipped_bytes += images[i].size();
      per_target_micros[job.target] +=
          50.0 + static_cast<double>(images[i].size()) * 0.001;
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
        auto holder = StorageOf(h);
        if (alive_[h].load(std::memory_order_acquire) && holder != nullptr) {
          holder->DetachReplicaTrunk(t);
        }
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
    if (!alive_[from].load(std::memory_order_acquire) ||
        StorageOf(from) == nullptr) {
      return Status::Unavailable("source machine is down");
    }
  }
  // 1. Serialize the trunk at the source (metered as its CPU work).
  auto from_store = StorageOf(from);
  if (from_store == nullptr) {
    return Status::Unavailable("source machine is down");
  }
  storage::MemoryTrunk* source = from_store->trunk(trunk);
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
    auto to_store = StorageOf(to);
    if (alive_[to].load(std::memory_order_acquire) && to_store != nullptr) {
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
    if (alive_[from].load(std::memory_order_acquire) &&
        StorageOf(from) != nullptr) {
      Status ds = StorageOf(from)->DetachTrunk(trunk);
      if (!ds.ok()) return ds;
    }
    if (replicated()) {
      // The destination may have held a replica of this trunk; the primary
      // image it just received supersedes it, and a machine never appears
      // in its own trunk's in-sync set.
      auto to_store = StorageOf(to);
      if (to_store != nullptr &&
          to_store->replica_trunk(trunk) != nullptr) {
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
        if (!alive_[m].load(std::memory_order_acquire) ||
            StorageOf(m) == nullptr) {
          continue;
        }
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

void MemoryCloud::DesyncReplicaForTest(MachineId m) {
  std::lock_guard<std::mutex> lock(mu_);
  machines_[m].table_replica =
      AddressingTable(options_.p_bits, options_.num_slaves);
  // Install a snapshot of the *stale* table: the fast path must route per
  // the desynced view so RouteOp's transparent re-sync is exercised.
  RefreshRoutingLocked(m);
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
  machines_[m].table_replica = primary_table_;
  machines_[m].next_log_seq = 1;
  alive_[m].store(true, std::memory_order_release);
  RefreshRoutingLocked(m);
  fabric_->SetMachineUp(m);
  RegisterHandlers(m);
  return Status::OK();
}

}  // namespace trinity::cloud
