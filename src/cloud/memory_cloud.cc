#include "cloud/memory_cloud.h"

#include <cstdlib>
#include <map>

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
  const auto seed = std::make_shared<const AddressingTable>(primary_table_);
  for (MachineId m = 0; m < num_endpoints(); ++m) {
    machines_[m].table.store(seed, std::memory_order_release);
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
  return Status::OK();
}

void MemoryCloud::RegisterHandlers(MachineId m) {
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
        return ExecuteLocalMulti(m, request, response);
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
  // Trunk-image installs, [i32 trunk][bytes image]: a migration attaches the
  // image as a primary trunk, a re-replication as a replica trunk.
  using Attach = Status (storage::MemoryStorage::*)(
      TrunkId, std::unique_ptr<storage::MemoryTrunk>);
  auto register_install = [this, m](net::HandlerId handler, Attach attach) {
    fabric_->RegisterSyncHandler(
        m, handler,
        [this, m, attach](MachineId, Slice request, std::string*) {
          BinaryReader reader(request);
          std::int32_t trunk_id = 0;
          Slice image;
          if (!reader.GetI32(&trunk_id) || !reader.GetBytes(&image)) {
            return Status::Corruption("bad trunk image request");
          }
          if (trunk_id < 0 || trunk_id >= TableOf(m)->num_slots()) {
            return Status::Corruption("trunk image out of range");
          }
          std::unique_ptr<storage::MemoryTrunk> trunk;
          Status s = storage::MemoryTrunk::Deserialize(
              image, options_.storage.trunk, &trunk);
          if (!s.ok()) return s;
          auto store = StorageOf(m);
          if (store == nullptr) return Status::Unavailable("not a slave");
          return ((*store).*attach)(trunk_id, std::move(trunk));
        });
  };
  register_install(kTrunkMigrateHandler,
                   &storage::MemoryStorage::AttachTrunk);
  register_install(kReplicaInstallHandler,
                   &storage::MemoryStorage::AttachReplicaTrunk);
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
        // Fencing: a mutation stamped with an epoch older than this
        // machine's view of the trunk's fencing token comes from a primary
        // that was deposed by a promotion it never heard about. Aborted is
        // terminal for the sender — the write is never acked.
        const auto table = TableOf(m);
        if (trunk_id < 0 || trunk_id >= table->num_slots()) {
          return Status::Corruption("replica apply trunk out of range");
        }
        if (epoch < table->epoch_of_trunk(trunk_id)) {
          recovery_stats_.fenced_writes.fetch_add(1,
                                                  std::memory_order_relaxed);
          return Status::Aborted(
              "fenced: replication epoch " + std::to_string(epoch) +
                  " is stale for trunk " + std::to_string(trunk_id),
              Status::Subcode::kFenced);
        }
        auto store = StorageOf(m);
        if (store == nullptr) return Status::Unavailable("not a slave");
        const auto pin = store->Pin();
        storage::MemoryTrunk* replica = pin->replica_at(trunk_id).get();
        if (replica == nullptr) {
          return Status::Unavailable("no replica trunk hosted");
        }
        return ApplyMirrored(*replica, static_cast<CellOp>(op), id, payload);
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
        const auto pin = store->Pin();
        storage::MemoryTrunk* replica = pin->replica_at(trunk_id).get();
        if (replica == nullptr) {
          return Status::Unavailable("no replica trunk hosted");
        }
        const auto read = static_cast<CellOp>(op);
        if (read != CellOp::kGet && read != CellOp::kContains) {
          return Status::InvalidArgument("mutating replica read");
        }
        return ApplyOp(*replica, read, id, Slice(), response);
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
  return RouteDst(leader(), id);
}

std::shared_ptr<storage::MemoryStorage> MemoryCloud::storage(
    MachineId m) const {
  // Lock-free: membership and the storage pointer are both atomics. A
  // deposed machine keeps its image (see MarkDownLocked), but a non-member's
  // memory must never be readable.
  if (!alive_[m].load(std::memory_order_acquire)) return nullptr;
  return StorageOf(m);
}

std::shared_ptr<const storage::MemoryStorage::Trunks> MemoryCloud::trunks(
    MachineId m) const {
  const auto store = storage(m);
  return store == nullptr ? nullptr : store->Pin();
}

std::shared_ptr<const AddressingTable> MemoryCloud::table() const {
  std::lock_guard<std::mutex> lock(mu_);
  return PrimarySnapshotLocked();
}

std::shared_ptr<const AddressingTable> MemoryCloud::PrimarySnapshotLocked()
    const {
  // Every mutation of primary_table_ bumps its version, so a replica at the
  // same version is an identical copy.
  auto leader_table = TableOf(leader_);
  if (leader_table->version() == primary_table_.version()) return leader_table;
  return std::make_shared<const AddressingTable>(primary_table_);
}

std::uint64_t MemoryCloud::MemoryFootprintBytes() const {
  return AggregateTrunkStats().committed_bytes;
}

std::uint64_t MemoryCloud::TotalCellCount() const {
  std::uint64_t total = 0;
  ForEachAliveStorage([&](const storage::MemoryStorage& store) {
    total += store.TotalCellCount();
  });
  return total;
}

storage::MemoryTrunk::Stats MemoryCloud::AggregateTrunkStats() const {
  storage::MemoryTrunk::Stats total;
  ForEachAliveStorage([&](const storage::MemoryStorage& store) {
    total += store.AggregateTrunkStats();
  });
  return total;
}

Status MemoryCloud::ExecuteLocal(MachineId m, CellOp op, CellId id,
                                 Slice payload, std::string* response) {
  auto store = StorageOf(m);
  if (store == nullptr) return Status::Unavailable("not a slave");
  const auto pin = store->Pin();
  storage::MemoryTrunk* trunk = pin->primary_at(TrunkOf(id)).get();
  if (trunk == nullptr) {
    // The caller's addressing-table replica is stale.
    return Status::Unavailable("trunk not hosted");
  }
  const Status result = ApplyOp(*trunk, op, id, payload, response);
  if (!result.ok() || !IsMutation(op)) return result;
  // Only *successful* mutations reach the backup's log buffer — a rejected
  // op (e.g. AddCell on an existing id) must not be replayed at recovery.
  // (The coarse crash model here — failures happen between operations —
  // makes log-after-apply equivalent to RAMCloud's log-before-commit.)
  if (options_.buffered_logging && options_.tfs != nullptr) {
    if (!LogToBackup(m, op, id, payload)) {
      // The machine crashed while logging and no live backup holds the
      // record: the local apply above went with the crashed machine's
      // memory. Acking would lose the write — fail instead, and let the
      // caller's retry re-apply on the recovered owner.
      return Status::Unavailable("machine crashed before logging completed");
    }
  }
  if (replicated()) {
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

Status MemoryCloud::ApplyOp(storage::MemoryTrunk& trunk, CellOp op, CellId id,
                            Slice payload, std::string* response) {
  switch (op) {
    case CellOp::kAdd:
      return trunk.AddCell(id, payload);
    case CellOp::kPut:
      return trunk.PutCell(id, payload);
    case CellOp::kGet:
      if (response == nullptr) return Status::InvalidArgument("no response");
      return trunk.GetCell(id, response);
    case CellOp::kRemove:
      return trunk.RemoveCell(id);
    case CellOp::kAppend:
      return trunk.AppendToCell(id, payload);
    case CellOp::kContains:
      return trunk.Contains(id) ? Status::OK() : Status::NotFound("");
  }
  return Status::InvalidArgument("unknown op");
}

Status MemoryCloud::ApplyMirrored(storage::MemoryTrunk& trunk, CellOp op,
                                  CellId id, Slice payload) {
  if (!IsMutation(op)) {
    return Status::InvalidArgument("non-mutating replica apply");
  }
  const Status s = ApplyOp(trunk, op == CellOp::kAdd ? CellOp::kPut : op, id,
                           payload, nullptr);
  return op == CellOp::kRemove && s.IsNotFound() ? Status::OK() : s;
}

Status MemoryCloud::ExecuteLocalMulti(MachineId m, Slice request,
                                      std::string* response) {
  BinaryReader reader(request);
  std::uint8_t op = 0;
  std::uint32_t count = 0;
  if (!reader.GetU8(&op) || !reader.GetU32(&count)) {
    return Status::Corruption("bad multi-get request");
  }
  if (response == nullptr) return Status::InvalidArgument("no response");
  auto store = StorageOf(m);
  if (store == nullptr) return Status::Unavailable("not a slave");
  const auto pin = store->Pin();
  for (std::uint32_t i = 0; i < count; ++i) {
    CellId id = 0;
    if (!reader.GetU64(&id)) {
      return Status::Corruption("bad multi-get request");
    }
    const storage::MemoryTrunk* trunk = pin->primary_at(TrunkOf(id)).get();
    if (trunk == nullptr) {
      // The caller's table replica is stale for this id. Fail the whole
      // batch so the caller re-routes each id individually — partial
      // answers must not masquerade as NotFound.
      return Status::Unavailable("trunk not hosted");
    }
    if (static_cast<CellOp>(op) == CellOp::kContains) {
      // Present ids answer with an empty record; absent ids are simply
      // omitted from the response.
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
}

Status MemoryCloud::ReplicateMutation(MachineId primary, CellOp op, CellId id,
                                      Slice payload) {
  const TrunkId t = TrunkOf(id);
  // The primary's *own* table replica drives its write path. This is the
  // fencing linchpin: a deposed primary (partitioned away before a promotion
  // it never heard about) still advertises its old epoch and still targets
  // its old in-sync set, so its traffic reaches a machine holding a newer
  // table and dies with Aborted — it cannot consult some post-promotion
  // global state and quietly ack against an empty set.
  const auto table = TableOf(primary);
  const std::uint64_t epoch = table->epoch_of_trunk(t);
  BinaryWriter writer;
  writer.PutI32(t);
  writer.PutU64(epoch);
  writer.PutU8(static_cast<std::uint8_t>(op));
  writer.PutU64(id);
  writer.PutBytes(payload);
  for (MachineId r : table->replicas_of_trunk(t)) {
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
    // went with its memory.
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
  // The in-sync set as the leader last installed it.
  const auto table = TableOf(leader());
  BinaryWriter writer;
  writer.PutI32(t);
  writer.PutU8(static_cast<std::uint8_t>(op));
  writer.PutU64(id);
  for (MachineId r : table->replicas_of_trunk(t)) {
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

Status MemoryCloud::RouteOp(MachineId src, CellOp op, CellId id,
                            Slice payload, std::string* response,
                            CallContext* ctx) {
  const RetryPolicy& retry = options_.retry;
  if (!fabric_->IsMachineUp(src)) {
    // A dead machine cannot issue operations.
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
      // The source crashed between attempts.
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
    machines_[src].table.store(PrimarySnapshotLocked(),
                               std::memory_order_release);
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

// Single-cell *mutations* take the cell's stripe so they serialize against
// in-flight guarded operations (MultiOp, transaction intent CAS) touching
// the same cell: a bare write cannot land between a guard's evaluation and
// its action apply. Reads take none; the guarded paths hold the stripes
// across their own reads.

Status MemoryCloud::AddCellFrom(MachineId src, CellId id, Slice payload,
                                CallContext* ctx) {
  CellStripes::Guard guard(stripes_, id);
  return RouteOp(src, CellOp::kAdd, id, payload, nullptr, ctx);
}

Status MemoryCloud::PutCellFrom(MachineId src, CellId id, Slice payload,
                                CallContext* ctx) {
  CellStripes::Guard guard(stripes_, id);
  return RouteOp(src, CellOp::kPut, id, payload, nullptr, ctx);
}

Status MemoryCloud::GetCellFrom(MachineId src, CellId id, std::string* out,
                                CallContext* ctx) {
  return RouteOp(src, CellOp::kGet, id, Slice(), out, ctx);
}

Status MemoryCloud::RemoveCellFrom(MachineId src, CellId id,
                                   CallContext* ctx) {
  CellStripes::Guard guard(stripes_, id);
  return RouteOp(src, CellOp::kRemove, id, Slice(), nullptr, ctx);
}

Status MemoryCloud::AppendToCellFrom(MachineId src, CellId id, Slice suffix,
                                     CallContext* ctx) {
  CellStripes::Guard guard(stripes_, id);
  return RouteOp(src, CellOp::kAppend, id, suffix, nullptr, ctx);
}

Status MemoryCloud::MultiRead(MachineId src, CellOp op,
                              std::span<const CellId> ids,
                              std::vector<MultiGetResult>* out,
                              CallContext* ctx) {
  if (out == nullptr) return Status::InvalidArgument("no output vector");
  out->assign(ids.size(), MultiGetResult{});
  if (ids.empty()) return Status::OK();
  if (!fabric_->IsMachineUp(src)) {
    return Status::Unavailable("source machine is down");
  }
  // Group the batch by owner via src's table replica. std::map keeps the
  // per-machine call order deterministic for the fault injector.
  std::map<MachineId, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    groups[RouteDst(src, ids[i])].push_back(i);
  }
  // Ids whose batched path failed retriably fall back to the single-id
  // RouteOp, which owns re-sync, degraded reads, and promotion failover.
  std::vector<std::size_t> fallback;
  for (const auto& [dst, indices] : groups) {
    // One packed request for the whole machine. The group src owns itself
    // runs the handler's body in place, as RouteOp runs ExecuteLocal.
    BinaryWriter writer;
    writer.PutU8(static_cast<std::uint8_t>(op));
    writer.PutU32(static_cast<std::uint32_t>(indices.size()));
    for (std::size_t i : indices) writer.PutU64(ids[i]);
    const std::string request = writer.Release();
    std::string response;
    Status s;
    if (dst == src && StorageOf(src) != nullptr) {
      net::Fabric::MeterScope meter(*fabric_, src, net::MetersOf(ctx));
      s = ExecuteLocalMulti(src, Slice(request), &response);
    } else {
      s = fabric_->Call(src, dst, kMultiGetHandler, Slice(request),
                        &response, ctx);
    }
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
  return MultiRead(src, CellOp::kGet, ids, out, ctx);
}

Status MemoryCloud::MultiContains(MachineId src, std::span<const CellId> ids,
                                  std::vector<MultiGetResult>* out,
                                  CallContext* ctx) {
  return MultiRead(src, CellOp::kContains, ids, out, ctx);
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
  // One immutable snapshot, installed on the leader and every alive
  // endpoint. A machine the broadcast skips (a dead one) re-syncs on its
  // first failed access after a restart.
  const auto snapshot = PrimarySnapshotLocked();
  for (MachineId m = 0; m < num_endpoints(); ++m) {
    if (m == leader_ || alive_[m].load(std::memory_order_acquire)) {
      machines_[m].table.store(snapshot, std::memory_order_release);
    }
  }
}

std::uint64_t MemoryCloud::ReplicaMemoryBytes() const {
  std::uint64_t total = 0;
  ForEachAliveStorage([&](const storage::MemoryStorage& store) {
    total += store.ReplicaFootprintBytes();
  });
  return total;
}

net::RecoveryStats MemoryCloud::recovery_stats() const {
  // Lock-free snapshot of the relaxed counters; fields may be mutually
  // inconsistent for an instant, which is fine for observability data.
  return recovery_stats_.Load();
}

void MemoryCloud::DesyncReplicaForTest(MachineId m) {
  std::lock_guard<std::mutex> lock(mu_);
  machines_[m].table.store(
      std::make_shared<const AddressingTable>(options_.p_bits,
                                              options_.num_slaves),
      std::memory_order_release);
}

}  // namespace trinity::cloud
