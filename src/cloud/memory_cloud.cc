#include "cloud/memory_cloud.h"

#include <cstdlib>
#include <map>

#include "cloud/cell_stripes.h"
#include "cloud/replica_placement.h"
#include "common/logging.h"
#include "common/serializer.h"
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
    // Self-calls (primary == leader) still route through the fabric and
    // run the same fencing check, keeping one code path.
    std::string unused;
    return fabric_->Call(primary, leader(), kIsrShrinkHandler,
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
      if (replicated() && !options_.auto_promote) {
        // Writes stay retryable until the sweep promotes.
        return Status::Unavailable(
            "owner down; promotion pending for trunk " +
            std::to_string(TrunkOf(id)) + " (retry)");
      }
      if (replicated() || options_.tfs != nullptr) {
        // Recovery (a metadata flip when a replica survives, else a TFS
        // reload), or AlreadyExists when dst restarted since we saw it
        // down. Either way the retry below routes by the fresh table.
        Status rs = RecoverMachine(dst);
        if (!rs.ok() && !rs.IsAlreadyExists()) return rs;
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

void MemoryCloud::DesyncReplicaForTest(MachineId m) {
  std::lock_guard<std::mutex> lock(mu_);
  machines_[m].table_replica =
      AddressingTable(options_.p_bits, options_.num_slaves);
  // Install a snapshot of the *stale* table: the fast path must route per
  // the desynced view so RouteOp's transparent re-sync is exercised.
  RefreshRoutingLocked(m);
}

}  // namespace trinity::cloud
