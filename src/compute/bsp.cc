#include "compute/bsp.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "common/hash.h"
#include "common/histogram.h"
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
      run_(graph->cloud()->fabric()),
      table_(graph->cloud()->table()) {
  cloud::MemoryCloud* cloud = graph_->cloud();
  num_slaves_ = cloud->num_slaves();
  machines_.resize(num_slaves_);
  pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  for (MachineId m = 0; m < num_slaves_; ++m) {
    MachineState& state = machines_[m];
    state.slot_table.assign(16, kNoSlot);
    for (CellId v : graph_->LocalNodes(m)) AddSlot(&state, v);
    state.num_vertices = state.vertices.size();
    state.inbox_begin.assign(state.num_vertices + 1, 0);
    state.outboxes.resize(num_slaves_);
    cloud->fabric().RegisterAsyncHandler(
        m, run_.handler, [this, m](MachineId, Slice payload) {
          ReceivePacked(m, payload);
        });
  }
}

MachineId BspEngine::OwnerOf(CellId vertex) const {
  return table_->machine_of_trunk(graph_->cloud()->TrunkOf(vertex));
}

Status CheckClusterHealthy(const cloud::AddressingTable& table,
                           const net::Fabric& fabric, const char* run) {
  for (TrunkId t = 0; t < table.num_slots(); ++t) {
    const MachineId owner = table.machine_of_trunk(t);
    if (!fabric.IsMachineUp(owner)) {
      return Status::Unavailable("machine " + std::to_string(owner) +
                                 " crashed during the " + run + " run");
    }
  }
  return Status::OK();
}

void BspEngine::SendMessage(MachineId src, CellId target, Slice message) {
  // Append-only into src's outbox — no locks, no fabric until the barrier.
  machines_[src].outboxes[OwnerOf(target)].Add(target, message);
}

inline std::uint32_t BspEngine::FindSlot(const MachineState& state,
                                        CellId id) {
  const std::size_t mask = state.slot_table.size() - 1;
  for (std::size_t i = Mix64(id) & mask;; i = (i + 1) & mask) {
    const std::uint32_t slot = state.slot_table[i];
    if (slot == kNoSlot || state.vertices[slot] == id) return slot;
  }
}

std::uint32_t BspEngine::AddSlot(MachineState* state, CellId id) {
  const auto slot = static_cast<std::uint32_t>(state->vertices.size());
  state->vertices.push_back(id);
  state->values.emplace_back();
  state->has_value.push_back(0);
  state->halted.push_back(0);
  state->acc.emplace_back();
  state->touched.push_back(0);
  std::vector<std::uint32_t>& table = state->slot_table;
  std::uint32_t first = slot;
  if (2 * (std::size_t{slot} + 1) > table.size()) {
    // Double and rehash every slot, so the table stays at most half full.
    table.assign(2 * table.size(), kNoSlot);
    first = 0;
  }
  const std::size_t mask = table.size() - 1;
  for (std::uint32_t s = first; s <= slot; ++s) {
    std::size_t i = Mix64(state->vertices[s]) & mask;
    while (table[i] != kNoSlot) i = (i + 1) & mask;
    table[i] = s;
  }
  return slot;
}

void BspEngine::BuildInbox(MachineState* state) {
  // Stable counting sort: count per slot, prefix-sum to group ends, then
  // place back to front so each slot keeps its arrival order.
  std::vector<std::uint32_t>& begin = state->inbox_begin;
  const std::size_t slots = state->vertices.size();
  begin.assign(slots + 1, 0);
  for (const StagedMessage& m : state->staged) ++begin[m.slot];
  for (std::size_t s = 1; s < slots; ++s) begin[s] += begin[s - 1];
  begin[slots] = static_cast<std::uint32_t>(state->staged.size());
  state->inbox.resize(state->staged.size());
  for (auto it = state->staged.rbegin(); it != state->staged.rend(); ++it) {
    state->inbox[--begin[it->slot]] =
        state->touched[it->slot]
            ? Slice(state->acc[it->slot])
            : Slice(state->arena.data() + it->offset, it->len);
  }
  for (const StagedMessage& m : state->staged) state->touched[m.slot] = 0;
  state->staged.clear();
}

void BspEngine::ReceivePacked(MachineId machine, Slice payload) {
  // Handlers fire on the driver thread while outboxes drain in canonical
  // order; keep a slice of the sender's outbox. Unpacking (and the combiner
  // fold) is per-destination work and runs in parallel in FinalizeInboxes.
  machines_[machine].pending.push_back(payload);
}

void BspEngine::FlushOutboxes() {
  net::Fabric& fabric = graph_->cloud()->fabric();
  // Canonical drain order — src asc, dst asc, arrival order within a pair —
  // is what makes parallel and sequential runs deliver identical inboxes.
  // The outboxes stay intact until FinalizeInboxes has unpacked them.
  for (MachineId src = 0; src < num_slaves_; ++src) {
    for (MachineId dst = 0; dst < num_slaves_; ++dst) {
      const Outbox& outbox = machines_[src].outboxes[dst];
      if (outbox.empty()) continue;
      if (src == dst) {
        // Local messages bypass the fabric and its meters — the superstep
        // MeterScope already covered this work.
        ReceivePacked(src, outbox.payload());
      } else {
        // Dead endpoints drop the batch inside the fabric (counted); the
        // post-superstep health check surfaces the crash.
        fabric.SendPacked(src, dst, run_.handler, outbox.payload(),
                          outbox.count, &run_.ctx);
      }
    }
  }
}

void BspEngine::FinalizeInboxes(bool* any_messages) {
  // Second parallel half of the barrier: each destination unpacks its own
  // pending payloads, then folds (combiner) or stages and counting-sorts
  // (no combiner) them by slot. No machine touches another's state, and
  // the outboxes are only read, so the fan-out is lock-free.
  pool_->ParallelFor(num_slaves_, [&](int mi) {
    MachineState& state = machines_[mi];
    const auto& combiner = options_.combiner;
    state.arena.clear();
    for (Slice payload : state.pending) {
      const bool ok = ForEachPackedRecord(
          payload, [&state, &combiner](CellId target, Slice message) {
            std::uint32_t slot = FindSlot(state, target);
            if (slot == kNoSlot) slot = AddSlot(&state, target);
            if (!combiner) {
              state.staged.push_back(StagedMessage{
                  slot, static_cast<std::uint32_t>(message.size()),
                  state.arena.size()});
              state.arena.append(message.data(), message.size());
            } else if (state.touched[slot]) {
              combiner(&state.acc[slot], message);
            } else {
              state.touched[slot] = 1;
              state.acc[slot].assign(message.data(), message.size());
              state.staged.push_back(StagedMessage{slot, 0, 0});
            }
          });
      if (!ok) {
        TRINITY_WARN("malformed packed BSP payload on machine %d", mi);
      }
    }
    BuildInbox(&state);
  });
  *any_messages = false;
  for (MachineState& state : machines_) {
    if (!state.inbox.empty()) *any_messages = true;
    state.pending.clear();
    for (Outbox& outbox : state.outboxes) outbox.Clear();
  }
}

void BspEngine::DiscardMessages() {
  for (MachineState& state : machines_) {
    std::fill(state.inbox_begin.begin(), state.inbox_begin.end(), 0);
    state.inbox.clear();
    state.arena.clear();
    state.staged.clear();
    state.pending.clear();
    for (Outbox& outbox : state.outboxes) outbox.Clear();
  }
}

Status BspEngine::RunSuperstep(const Program& program, int superstep,
                               bool* all_quiet, RunStats* stats) {
  Stopwatch phase;
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
    const auto store = cloud->storage(m);
    for (std::size_t slot = 0; slot < state.num_vertices; ++slot) {
      const std::uint32_t lo = state.inbox_begin[slot];
      const std::uint32_t hi = state.inbox_begin[slot + 1];
      // A vertex runs if it has messages, or has not halted (superstep 0
      // activates everyone).
      if (state.halted[slot] && lo == hi) continue;
      state.any_active = true;
      state.msg_scratch.assign(state.inbox.begin() + lo,
                               state.inbox.begin() + hi);
      const CellId v = state.vertices[slot];
      VertexContext ctx;
      ctx.engine_ = this;
      ctx.machine_ = m;
      ctx.vertex_ = v;
      ctx.superstep_ = superstep;
      ctx.messages_ = &state.msg_scratch;
      ctx.value_ = &state.values[slot];
      state.has_value[slot] = 1;
      ctx.aggregated_ = Slice(aggregated_);
      Status vs = graph_->VisitLocalNode(
          store.get(), v,
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
      state.halted[slot] = ctx.halt_;
    }
  });
  stats->compute_ms += phase.ElapsedMillis();
  bool any_active = false;
  for (MachineState& state : machines_) {
    if (!state.step_status.ok()) return state.step_status;
    any_active = any_active || state.any_active;
  }
  phase.Reset();
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
  stats->drain_ms += phase.ElapsedMillis();
  phase.Reset();
  bool any_messages = false;
  FinalizeInboxes(&any_messages);
  stats->finalize_ms += phase.ElapsedMillis();
  *all_quiet = !any_messages && !any_active;
  return Status::OK();
}

Status BspEngine::Run(const Program& program, RunStats* stats) {
  *stats = RunStats();
  // A previous run aborted by a crash can leave messages stranded in our
  // inboxes and outboxes; the first barrier of this run would deliver them
  // and corrupt superstep sums. Discard them.
  DiscardMessages();
  int superstep = 0;
  if (options_.checkpoint_interval > 0 && options_.tfs != nullptr) {
    Status rs = TryRestoreCheckpoint(&superstep);
    if (rs.ok() && superstep > 0) stats->restored_from_checkpoint = true;
    // A torn checkpoint may have staged part of an inbox.
    if (!rs.ok()) DiscardMessages();
  }
  for (; superstep < options_.superstep_limit; ++superstep) {
    run_.meters.Reset();
    Status healthy = CheckClusterHealthy(*table_, run_.fabric, "BSP");
    if (!healthy.ok()) return healthy;
    bool all_quiet = false;
    Status s = RunSuperstep(program, superstep, &all_quiet, stats);
    if (!s.ok()) return s;
    // A machine lost mid-superstep dropped its vertices' work and any
    // messages in flight to it; surface the failure at the barrier rather
    // than computing onward with partial state.
    healthy = CheckClusterHealthy(*table_, run_.fabric, "BSP");
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
  const MachineState& state = machines_[m];
  const std::uint32_t slot = FindSlot(state, vertex);
  if (slot == kNoSlot || !state.has_value[slot]) {
    return Status::NotFound("no value for vertex");
  }
  *out = state.values[slot];
  return Status::OK();
}

void BspEngine::ForEachValue(
    const std::function<void(CellId, const std::string&)>& fn) const {
  for (const MachineState& state : machines_) {
    for (std::size_t slot = 0; slot < state.vertices.size(); ++slot) {
      if (state.has_value[slot]) fn(state.vertices[slot], state.values[slot]);
    }
  }
}

Status BspEngine::WriteCheckpoint(int superstep) {
  // Every section lists ids in ascending order, so two checkpoints of
  // identical state are byte-identical whatever the slot order.
  BinaryWriter writer;
  writer.PutI32(superstep);
  writer.PutI32(num_slaves_);
  std::vector<std::uint32_t> order;
  for (const MachineState& state : machines_) {
    order.resize(state.vertices.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&state](std::uint32_t a, std::uint32_t b) {
                return state.vertices[a] < state.vertices[b];
              });
    std::uint32_t values = 0, halted = 0, groups = 0;
    for (std::uint32_t s : order) {
      values += state.has_value[s];
      halted += state.halted[s];
      groups += state.inbox_begin[s] != state.inbox_begin[s + 1];
    }
    writer.PutU32(values);
    for (std::uint32_t s : order) {
      if (!state.has_value[s]) continue;
      writer.PutU64(state.vertices[s]);
      writer.PutString(state.values[s]);
    }
    writer.PutU32(halted);
    for (std::uint32_t s : order) {
      if (state.halted[s]) writer.PutU64(state.vertices[s]);
    }
    writer.PutU32(groups);
    for (std::uint32_t s : order) {
      const std::uint32_t lo = state.inbox_begin[s];
      const std::uint32_t hi = state.inbox_begin[s + 1];
      if (lo == hi) continue;
      writer.PutU64(state.vertices[s]);
      writer.PutU32(hi - lo);
      for (std::uint32_t k = lo; k < hi; ++k) writer.PutBytes(state.inbox[k]);
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
  // Run has discarded every message in flight; reset the vertex state.
  for (MachineState& state : machines_) {
    for (std::string& value : state.values) value.clear();
    std::fill(state.has_value.begin(), state.has_value.end(), 0);
    std::fill(state.halted.begin(), state.halted.end(), 0);
  }
  // Each entry re-buckets through OwnerOf rather than landing on the
  // machine whose section it was written in: trunk ownership may have
  // changed between checkpoint and restore (a failover promoted replicas
  // onto survivors), and the restored state must follow the vertices to
  // their new owners. A target's messages sit contiguously in exactly one
  // section, so staging them in file order keeps their canonical arrival
  // order — the counting sort then rebuilds the exact inbox a crash-free
  // run would have had, which is what keeps restored runs bit-identical.
  MachineState* state = nullptr;
  std::uint32_t slot = 0;
  // Points state/slot at v's slot on its current owner (false: no owner).
  const auto locate = [&](CellId v) {
    const MachineId owner = OwnerOf(v);
    if (owner < 0 || owner >= num_slaves_) return false;
    state = &machines_[owner];
    slot = FindSlot(*state, v);
    if (slot == kNoSlot) slot = AddSlot(state, v);
    return true;
  };
  for (std::int32_t section = 0; section < slaves; ++section) {
    std::uint32_t count = 0;
    if (!reader.GetU32(&count)) return Status::Corruption("ckpt values");
    for (std::uint32_t i = 0; i < count; ++i) {
      CellId v = 0;
      std::string value;
      if (!reader.GetU64(&v) || !reader.GetString(&value)) {
        return Status::Corruption("ckpt value entry");
      }
      if (!locate(v)) return Status::Corruption("ckpt vertex without owner");
      if (state->has_value[slot]) continue;
      state->values[slot] = std::move(value);
      state->has_value[slot] = 1;
    }
    if (!reader.GetU32(&count)) return Status::Corruption("ckpt halted");
    for (std::uint32_t i = 0; i < count; ++i) {
      CellId v = 0;
      if (!reader.GetU64(&v)) return Status::Corruption("ckpt halted entry");
      if (!locate(v)) return Status::Corruption("ckpt vertex without owner");
      state->halted[slot] = 1;
    }
    if (!reader.GetU32(&count)) return Status::Corruption("ckpt inbox");
    for (std::uint32_t i = 0; i < count; ++i) {
      CellId v = 0;
      std::uint32_t msgs = 0;
      if (!reader.GetU64(&v) || !reader.GetU32(&msgs)) {
        return Status::Corruption("ckpt inbox entry");
      }
      if (!locate(v)) return Status::Corruption("ckpt vertex without owner");
      for (std::uint32_t k = 0; k < msgs; ++k) {
        Slice msg;
        if (!reader.GetBytes(&msg)) return Status::Corruption("ckpt msg");
        state->staged.push_back(StagedMessage{
            slot, static_cast<std::uint32_t>(msg.size()),
            state->arena.size()});
        state->arena.append(msg.data(), msg.size());
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
    for (std::size_t slot = 0; slot < state.vertices.size(); ++slot) {
      if (state.has_value[slot]) restored.push_back(state.vertices[slot]);
    }
  }
  std::sort(restored.begin(), restored.end());
  if (!restored.empty()) {
    cloud::MemoryCloud* cloud = graph_->cloud();
    std::vector<cloud::MemoryCloud::MultiGetResult> present;
    if (cloud->MultiContains(cloud->client_id(), restored, &present).ok()) {
      std::unordered_set<CellId> gone;
      for (std::size_t i = 0; i < restored.size(); ++i) {
        if (!present[i].status.IsNotFound()) continue;
        gone.insert(restored[i]);
        locate(restored[i]);
        state->values[slot].clear();
        state->has_value[slot] = 0;
        state->halted[slot] = 0;
      }
      for (MachineState& m : machines_) {
        std::erase_if(m.staged, [&](const StagedMessage& msg) {
          return gone.count(m.vertices[msg.slot]) != 0;
        });
      }
    }
  }
  for (MachineState& state : machines_) BuildInbox(&state);
  *superstep = step;
  return Status::OK();
}

}  // namespace trinity::compute
