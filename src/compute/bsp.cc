#include "compute/bsp.h"

#include <algorithm>
#include <thread>

#include "common/logging.h"
#include "common/serializer.h"

namespace trinity::compute {

void BspEngine::VertexContext::Send(CellId target, Slice message) {
  engine_->SendMessage(machine_, target, message);
}

void BspEngine::VertexContext::SendToAllOut(Slice message) {
  for (std::size_t i = 0; i < out_count_; ++i) {
    engine_->SendMessage(machine_, out_[i], message);
  }
}

void BspEngine::VertexContext::Aggregate(Slice contribution) {
  engine_->AggregateLocal(machine_, contribution);
}

void BspEngine::AggregateLocal(MachineId machine, Slice contribution) {
  if (!options_.aggregator) return;
  MachineState& state = machines_[machine];
  if (!state.has_partial_aggregate) {
    state.partial_aggregate = contribution.ToString();
    state.has_partial_aggregate = true;
  } else {
    options_.aggregator(&state.partial_aggregate, contribution);
  }
}

BspEngine::BspEngine(graph::Graph* graph, Options options)
    : graph_(graph),
      options_(std::move(options)),
      run_(graph->cloud()->fabric()) {
  cloud::MemoryCloud* cloud = graph_->cloud();
  num_slaves_ = cloud->num_slaves();
  machines_.resize(num_slaves_);
  // Snapshot trunk ownership so per-message routing is lock-free. BSP runs
  // assume stable membership for their duration.
  trunk_owner_.resize(cloud->table().num_slots());
  owns_trunks_.assign(num_slaves_, false);
  for (int t = 0; t < cloud->table().num_slots(); ++t) {
    trunk_owner_[t] = cloud->table().machine_of_trunk(t);
    if (trunk_owner_[t] >= 0 && trunk_owner_[t] < num_slaves_) {
      owns_trunks_[trunk_owner_[t]] = true;
    }
  }
  int threads = options_.num_threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  if (threads < 1) threads = 1;
  pool_ = std::make_unique<ThreadPool>(threads);
  for (MachineId m = 0; m < num_slaves_; ++m) {
    machines_[m].vertices = graph_->LocalNodes(m);
    machines_[m].outboxes.resize(num_slaves_);
    cloud->fabric().RegisterAsyncHandler(
        m, run_.handler, [this, m](MachineId, Slice payload) {
          ReceivePacked(m, payload);
        });
  }
}

MachineId BspEngine::OwnerOf(CellId vertex) const {
  return trunk_owner_[graph_->cloud()->TrunkOf(vertex)];
}

Status BspEngine::CheckClusterHealthy() const {
  const net::Fabric& fabric = graph_->cloud()->fabric();
  for (MachineId m = 0; m < num_slaves_; ++m) {
    if (owns_trunks_[m] && !fabric.IsMachineUp(m)) {
      return Status::Unavailable("machine " + std::to_string(m) +
                                 " crashed during the BSP run");
    }
  }
  return Status::OK();
}

void BspEngine::SendMessage(MachineId src, CellId target, Slice message) {
  // Append-only into src's outbox — no locks, no fabric until the barrier.
  machines_[src].outboxes[OwnerOf(target)].Add(target, message);
}

void BspEngine::DeliverLocal(MachineId machine, CellId target,
                             Slice message) {
  MachineState& state = machines_[machine];
  if (options_.combiner) {
    auto it = state.next_acc.find(target);
    if (it == state.next_acc.end()) {
      state.next_acc.emplace(target, message.ToString());
      state.next_acc_order.push_back(target);
    } else {
      options_.combiner(&it->second, message);
    }
  } else {
    state.next_records.push_back(
        InboxRecord{target, state.next_arena.size(),
                    static_cast<std::uint32_t>(message.size())});
    state.next_arena.append(message.data(), message.size());
  }
}

void BspEngine::ReceivePacked(MachineId machine, Slice payload) {
  // Handlers fire on the driver thread while outboxes drain in canonical
  // order; just stash the packed bytes. Unpacking (and the combiner fold)
  // is per-destination work and runs in parallel inside FinalizeInboxes.
  machines_[machine].pending.emplace_back(payload.ToString());
}

void BspEngine::FlushOutboxes() {
  net::Fabric& fabric = graph_->cloud()->fabric();
  // Canonical drain order — src asc, dst asc, arrival order within a pair —
  // is what makes parallel and sequential runs deliver identical inboxes.
  for (MachineId src = 0; src < num_slaves_; ++src) {
    for (MachineId dst = 0; dst < num_slaves_; ++dst) {
      Outbox& outbox = machines_[src].outboxes[dst];
      if (outbox.empty()) continue;
      if (src == dst) {
        // Local messages bypass the fabric and its meters — the superstep
        // MeterScope already covered this work.
        ReceivePacked(src, Slice(outbox.bytes));
      } else {
        // Dead endpoints drop the batch inside the fabric (counted); the
        // post-superstep health check surfaces the crash.
        fabric.SendPacked(src, dst, run_.handler, Slice(outbox.bytes),
                          outbox.count, &run_.ctx);
      }
      outbox.Clear();
    }
  }
}

void BspEngine::FinalizeInboxes(bool* any_messages) {
  // Second parallel half of the barrier: each destination unpacks its own
  // pending payloads, folds combiners, and sorts its inbox — no machine
  // touches another's staging state, so the fan-out is lock-free.
  pool_->ParallelFor(num_slaves_, [&](int mi) {
    MachineState& state = machines_[mi];
    for (const std::string& payload : state.pending) {
      const bool ok = ForEachPackedRecord(
          Slice(payload), [this, mi](CellId target, Slice message) {
            DeliverLocal(mi, target, message);
          });
      if (!ok) {
        TRINITY_WARN("malformed packed BSP payload on machine %d", mi);
      }
    }
    state.pending.clear();
    if (options_.combiner) {
      // Materialize the folded accumulators in first-arrival order.
      state.next_arena.clear();
      state.next_records.clear();
      for (CellId target : state.next_acc_order) {
        const std::string& acc = state.next_acc[target];
        state.next_records.push_back(
            InboxRecord{target, state.next_arena.size(),
                        static_cast<std::uint32_t>(acc.size())});
        state.next_arena.append(acc);
      }
      state.next_acc.clear();
      state.next_acc_order.clear();
    }
    // Stable by target: each vertex's messages keep canonical arrival order.
    std::stable_sort(state.next_records.begin(), state.next_records.end(),
                     [](const InboxRecord& a, const InboxRecord& b) {
                       return a.target < b.target;
                     });
    state.arena.swap(state.next_arena);
    state.records.swap(state.next_records);
    state.next_arena.clear();
    state.next_records.clear();
  });
  *any_messages = false;
  for (const MachineState& state : machines_) {
    if (!state.records.empty()) *any_messages = true;
  }
}

Status BspEngine::RunSuperstep(const Program& program, int superstep,
                               bool* all_quiet) {
  net::Fabric& fabric = graph_->cloud()->fabric();
  cloud::MemoryCloud* cloud = graph_->cloud();
  // Machine-level parallelism (§5.3): each simulated slave's vertex loop
  // runs on a pool worker. A worker only touches its machine's state and
  // outboxes, so the loop is lock-free; the ParallelFor join is the first
  // half of the superstep barrier.
  pool_->ParallelFor(num_slaves_, [&](int mi) {
    const MachineId m = mi;
    MachineState& state = machines_[m];
    state.step_status = Status::OK();
    state.any_active = false;
    net::Fabric::MeterScope meter(fabric, m, &run_.meters);
    // One storage resolution per machine per superstep; vertices then read
    // trunk memory without the cloud membership mutex.
    storage::MemoryStorage* store = cloud->storage(m);
    for (CellId v : state.vertices) {
      auto lo = std::lower_bound(
          state.records.begin(), state.records.end(), v,
          [](const InboxRecord& r, CellId id) { return r.target < id; });
      const bool has_messages =
          lo != state.records.end() && lo->target == v;
      const bool is_halted = state.halted.count(v) != 0;
      // A vertex runs if it has messages, or has not halted (superstep 0
      // activates everyone).
      if (is_halted && !has_messages) continue;
      state.any_active = true;
      state.msg_scratch.clear();
      for (auto it = lo; it != state.records.end() && it->target == v;
           ++it) {
        state.msg_scratch.emplace_back(state.arena.data() + it->offset,
                                       it->len);
      }
      VertexContext ctx;
      ctx.engine_ = this;
      ctx.machine_ = m;
      ctx.vertex_ = v;
      ctx.superstep_ = superstep;
      ctx.messages_ = &state.msg_scratch;
      ctx.value_ = &state.values[v];
      ctx.aggregated_ = Slice(aggregated_);
      Status vs = graph_->VisitLocalNode(
          store, v,
          [&](Slice data, const CellId* in, std::size_t in_count,
              const CellId* out, std::size_t out_count) {
            ctx.data_ = data;
            ctx.in_ = in;
            ctx.in_count_ = in_count;
            ctx.out_ = out;
            ctx.out_count_ = out_count;
            program(ctx);
          });
      if (!vs.ok()) {
        // A machine that crashed makes its local reads fail with NotFound;
        // report the crash, not the symptom.
        state.step_status =
            !fabric.IsMachineUp(m)
                ? Status::Unavailable("machine " + std::to_string(m) +
                                      " crashed during the BSP run")
                : vs;
        return;
      }
      if (ctx.halt_) {
        state.halted.insert(v);
      } else {
        state.halted.erase(v);
      }
    }
  });
  bool any_active = false;
  for (MachineState& state : machines_) {
    if (!state.step_status.ok()) return state.step_status;
    any_active = any_active || state.any_active;
  }
  // Second half of the barrier: drain the packed outboxes through the
  // fabric (O(machines²) sends).
  FlushOutboxes();
  // Fold the per-machine partial aggregates (in a real deployment each
  // machine ships one small value to the master here — negligible traffic).
  if (options_.aggregator) {
    aggregated_.clear();
    bool first = true;
    for (MachineState& state : machines_) {
      if (!state.has_partial_aggregate) continue;
      if (first) {
        aggregated_ = std::move(state.partial_aggregate);
        first = false;
      } else {
        options_.aggregator(&aggregated_, Slice(state.partial_aggregate));
      }
      state.partial_aggregate.clear();
      state.has_partial_aggregate = false;
    }
  }
  bool any_messages = false;
  FinalizeInboxes(&any_messages);
  *all_quiet = !any_messages && !any_active;
  return Status::OK();
}

Status BspEngine::Run(const Program& program, RunStats* stats) {
  *stats = RunStats();
  // A previous run aborted by a crash can leave messages stranded in our
  // inboxes and outboxes; the first barrier of this run would deliver them
  // and corrupt superstep sums. Discard them.
  for (MachineState& state : machines_) {
    state.arena.clear();
    state.records.clear();
    state.pending.clear();
    state.next_arena.clear();
    state.next_records.clear();
    state.next_acc.clear();
    state.next_acc_order.clear();
    for (Outbox& outbox : state.outboxes) outbox.Clear();
  }
  int superstep = 0;
  if (options_.checkpoint_interval > 0 && options_.tfs != nullptr) {
    Status rs = TryRestoreCheckpoint(&superstep);
    if (rs.ok() && superstep > 0) stats->restored_from_checkpoint = true;
  }
  for (; superstep < options_.superstep_limit; ++superstep) {
    run_.meters.Reset();
    Status healthy = CheckClusterHealthy();
    if (!healthy.ok()) return healthy;
    bool all_quiet = false;
    Status s = RunSuperstep(program, superstep, &all_quiet);
    if (!s.ok()) return s;
    // A machine lost mid-superstep dropped its vertices' work and any
    // messages in flight to it; surface the failure at the barrier rather
    // than computing onward with partial state.
    healthy = CheckClusterHealthy();
    if (!healthy.ok()) return healthy;
    const double step_seconds = options_.cost_model.PhaseSeconds(run_.meters);
    stats->superstep_seconds.push_back(step_seconds);
    stats->modeled_seconds += step_seconds;
    const net::NetworkStats net = run_.meters.stats();
    stats->messages += net.messages + net.local_messages;
    stats->transfers += net.transfers;
    stats->bytes += net.bytes;
    ++stats->supersteps;
    if (options_.checkpoint_interval > 0 && options_.tfs != nullptr &&
        (superstep + 1) % options_.checkpoint_interval == 0) {
      Status cs = WriteCheckpoint(superstep + 1);
      if (!cs.ok()) return cs;
      ++stats->checkpoints_written;
    }
    if (all_quiet) break;
  }
  return Status::OK();
}

Status BspEngine::GetValue(CellId vertex, std::string* out) const {
  const MachineId m = OwnerOf(vertex);
  if (m < 0 || m >= num_slaves_) return Status::NotFound("no such vertex");
  auto it = machines_[m].values.find(vertex);
  if (it == machines_[m].values.end()) {
    return Status::NotFound("no value for vertex");
  }
  *out = it->second;
  return Status::OK();
}

void BspEngine::ForEachValue(
    const std::function<void(CellId, const std::string&)>& fn) const {
  for (const MachineState& state : machines_) {
    for (const auto& [vertex, value] : state.values) {
      fn(vertex, value);
    }
  }
}

Status BspEngine::WriteCheckpoint(int superstep) {
  // Every container is serialized in sorted vertex order so two checkpoints
  // of identical state are byte-identical (unordered_map iteration order is
  // not deterministic across processes).
  BinaryWriter writer;
  writer.PutI32(superstep);
  writer.PutI32(num_slaves_);
  std::vector<CellId> ids;
  for (const MachineState& state : machines_) {
    ids.clear();
    ids.reserve(state.values.size());
    for (const auto& [vertex, value] : state.values) ids.push_back(vertex);
    std::sort(ids.begin(), ids.end());
    writer.PutU32(static_cast<std::uint32_t>(ids.size()));
    for (CellId v : ids) {
      writer.PutU64(v);
      writer.PutString(state.values.at(v));
    }
    ids.assign(state.halted.begin(), state.halted.end());
    std::sort(ids.begin(), ids.end());
    writer.PutU32(static_cast<std::uint32_t>(ids.size()));
    for (CellId v : ids) writer.PutU64(v);
    // Inbox records are sorted by target, so the groups stream out in
    // ascending vertex order — already deterministic.
    std::uint32_t groups = 0;
    for (std::size_t i = 0; i < state.records.size();) {
      std::size_t j = i;
      while (j < state.records.size() &&
             state.records[j].target == state.records[i].target) {
        ++j;
      }
      ++groups;
      i = j;
    }
    writer.PutU32(groups);
    for (std::size_t i = 0; i < state.records.size();) {
      const CellId target = state.records[i].target;
      std::size_t j = i;
      while (j < state.records.size() && state.records[j].target == target) {
        ++j;
      }
      writer.PutU64(target);
      writer.PutU32(static_cast<std::uint32_t>(j - i));
      for (std::size_t k = i; k < j; ++k) {
        writer.PutBytes(Slice(state.arena.data() + state.records[k].offset,
                              state.records[k].len));
      }
      i = j;
    }
  }
  return options_.tfs->WriteFile(options_.checkpoint_prefix + "/state",
                                 Slice(writer.buffer()));
}

Status BspEngine::TryRestoreCheckpoint(int* superstep) {
  std::string image;
  Status s =
      options_.tfs->ReadFile(options_.checkpoint_prefix + "/state", &image);
  if (!s.ok()) return s;
  BinaryReader reader{Slice(image)};
  std::int32_t step = 0, slaves = 0;
  if (!reader.GetI32(&step) || !reader.GetI32(&slaves) ||
      slaves != num_slaves_) {
    return Status::Corruption("checkpoint header mismatch");
  }
  for (MachineState& state : machines_) {
    state.values.clear();
    state.halted.clear();
    state.arena.clear();
    state.records.clear();
    state.pending.clear();
    state.next_arena.clear();
    state.next_records.clear();
    state.next_acc.clear();
    state.next_acc_order.clear();
  }
  // Each entry re-buckets through OwnerOf rather than landing on the
  // machine whose section it was written in: trunk ownership may have
  // changed between checkpoint and restore (a failover promoted replicas
  // onto survivors), and the restored state must follow the vertices to
  // their new owners. A target's messages sit contiguously in exactly one
  // section, so appending them in file order keeps their canonical arrival
  // order — the final stable sort then reproduces the exact inbox a
  // crash-free run would have had, which is what keeps restored runs
  // bit-identical.
  for (std::int32_t section = 0; section < slaves; ++section) {
    std::uint32_t count = 0;
    if (!reader.GetU32(&count)) return Status::Corruption("ckpt values");
    for (std::uint32_t i = 0; i < count; ++i) {
      CellId v = 0;
      std::string value;
      if (!reader.GetU64(&v) || !reader.GetString(&value)) {
        return Status::Corruption("ckpt value entry");
      }
      const MachineId owner = OwnerOf(v);
      if (owner < 0 || owner >= num_slaves_) {
        return Status::Corruption("ckpt vertex without owner");
      }
      machines_[owner].values.emplace(v, std::move(value));
    }
    if (!reader.GetU32(&count)) return Status::Corruption("ckpt halted");
    for (std::uint32_t i = 0; i < count; ++i) {
      CellId v = 0;
      if (!reader.GetU64(&v)) return Status::Corruption("ckpt halted entry");
      const MachineId owner = OwnerOf(v);
      if (owner < 0 || owner >= num_slaves_) {
        return Status::Corruption("ckpt vertex without owner");
      }
      machines_[owner].halted.insert(v);
    }
    if (!reader.GetU32(&count)) return Status::Corruption("ckpt inbox");
    for (std::uint32_t i = 0; i < count; ++i) {
      CellId v = 0;
      std::uint32_t msgs = 0;
      if (!reader.GetU64(&v) || !reader.GetU32(&msgs)) {
        return Status::Corruption("ckpt inbox entry");
      }
      const MachineId owner = OwnerOf(v);
      if (owner < 0 || owner >= num_slaves_) {
        return Status::Corruption("ckpt vertex without owner");
      }
      MachineState& dest = machines_[owner];
      for (std::uint32_t k = 0; k < msgs; ++k) {
        Slice msg;
        if (!reader.GetBytes(&msg)) return Status::Corruption("ckpt msg");
        dest.records.push_back(
            InboxRecord{v, dest.arena.size(),
                        static_cast<std::uint32_t>(msg.size())});
        dest.arena.append(msg.data(), msg.size());
      }
    }
  }
  // Batched existence check over the restored vertex set: ownership may have
  // moved since the checkpoint, and a vertex deleted from the graph in the
  // meantime must not be resurrected as ghost state. One MultiContains ships
  // one packed probe per owner machine instead of a sync call per vertex;
  // state is dropped only on a definitive NotFound — errors (owner dead,
  // promotion pending) conservatively keep the state, matching the retry
  // semantics of the superstep loop that follows.
  std::vector<CellId> restored;
  for (const MachineState& state : machines_) {
    for (const auto& [v, value] : state.values) restored.push_back(v);
  }
  std::sort(restored.begin(), restored.end());
  if (!restored.empty()) {
    cloud::MemoryCloud* cloud = graph_->cloud();
    std::vector<cloud::MemoryCloud::MultiGetResult> present;
    if (cloud->MultiContains(cloud->client_id(), restored, &present).ok()) {
      std::unordered_set<CellId> gone;
      for (std::size_t i = 0; i < restored.size(); ++i) {
        if (present[i].status.IsNotFound()) gone.insert(restored[i]);
      }
      if (!gone.empty()) {
        for (MachineState& state : machines_) {
          for (CellId v : gone) {
            state.values.erase(v);
            state.halted.erase(v);
          }
          state.records.erase(
              std::remove_if(state.records.begin(), state.records.end(),
                             [&](const InboxRecord& r) {
                               return gone.count(r.target) != 0;
                             }),
              state.records.end());
        }
      }
    }
  }
  for (MachineState& state : machines_) {
    // Normalize so the vertex loop's binary search always holds.
    std::stable_sort(state.records.begin(), state.records.end(),
                     [](const InboxRecord& a, const InboxRecord& b) {
                       return a.target < b.target;
                     });
  }
  *superstep = step;
  return Status::OK();
}

}  // namespace trinity::compute
