#include "compute/async_engine.h"

#include <algorithm>

#include "common/serializer.h"
#include "compute/bsp.h"

namespace trinity::compute {

void AsyncEngine::Context::Send(CellId target, Slice message) {
  engine_->SendUpdate(machine_, target, message);
}

AsyncEngine::AsyncEngine(graph::Graph* graph, Options options)
    : graph_(graph),
      options_(std::move(options)),
      table_(graph->cloud()->table()),
      run_(graph->cloud()->fabric()) {
  if (options_.scheduler != SchedulerMode::kFifo && !options_.combiner) {
    config_error_ = Status::InvalidArgument(
        "priority/sweep scheduling requires a combiner (delta cache)");
  } else if (options_.scheduler == SchedulerMode::kPriority &&
             !options_.priority) {
    config_error_ = Status::InvalidArgument(
        "priority scheduling requires a priority function");
  } else if (options_.priority_epsilon > 0 && !options_.priority) {
    config_error_ = Status::InvalidArgument(
        "priority_epsilon requires a priority function");
  }
  if (!config_error_.ok()) {
    // Degrade to a safe raw fifo so Seed()-before-Run() cannot trip over
    // the inconsistent combination; Run() reports the error.
    options_.scheduler = SchedulerMode::kFifo;
    options_.combiner = nullptr;
    options_.priority = nullptr;
    options_.priority_epsilon = 0;
  }
  cloud::MemoryCloud* cloud = graph_->cloud();
  num_slaves_ = cloud->num_slaves();
  machines_.resize(num_slaves_);
  pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  VertexScheduler::Options sched;
  sched.mode = options_.scheduler;
  sched.combiner = options_.combiner;
  sched.priority = options_.priority;
  sched.priority_epsilon = options_.priority_epsilon;
  net::Fabric& fabric = cloud->fabric();
  for (MachineId m = 0; m < num_slaves_; ++m) {
    machines_[m].scheduler.Configure(sched);
    machines_[m].outboxes.resize(num_slaves_);
    fabric.RegisterAsyncHandler(
        m, run_.handler, [this, m](MachineId, Slice payload) {
          // One payload packs many updates. Each record makes the machine
          // black (Safra) and settles one unit of the sender's deficit —
          // before the scheduler coalesces or epsilon-drops it, so retired
          // messages count as settled and never skew termination detection.
          ForEachPackedRecord(payload,
                              [this, m](CellId target, Slice message) {
                                machines_[m].black = true;
                                --machines_[m].deficit;
                                EnqueueLocal(m, target, message);
                              });
        });
  }
}

MachineId AsyncEngine::OwnerOf(CellId vertex) const {
  return table_->machine_of_trunk(graph_->cloud()->TrunkOf(vertex));
}

void AsyncEngine::EnqueueLocal(MachineId machine, CellId target,
                               Slice message) {
  MachineState& state = machines_[machine];
  Slice value;
  if (options_.priority) {
    auto it = state.values.find(target);
    // Lookup only — inserting here would materialize empty values for
    // vertices that were queued but never processed (visible through
    // ForEachValue and snapshots).
    if (it != state.values.end()) value = Slice(it->second);
  }
  state.scheduler.Offer(target, message, value);
}

void AsyncEngine::SendUpdate(MachineId src, CellId target, Slice message) {
  const MachineId dst = OwnerOf(target);
  if (dst == src) {
    EnqueueLocal(dst, target, message);
    return;
  }
  // Append-only into src's outbox (no fabric, no locks mid-sweep); the
  // deficit rises now and settles when the packed payload is unpacked on
  // the destination at the sweep barrier.
  ++machines_[src].deficit;
  machines_[src].outboxes[dst].Add(target, message);
}

void AsyncEngine::FlushOutboxes() {
  net::Fabric& fabric = graph_->cloud()->fabric();
  for (MachineId src = 0; src < num_slaves_; ++src) {
    for (MachineId dst = 0; dst < num_slaves_; ++dst) {
      Outbox& outbox = machines_[src].outboxes[dst];
      if (outbox.empty()) continue;
      // A batch dropped on a dead endpoint is counted by the fabric; the
      // next sweep's health check surfaces the crash itself.
      fabric.SendPacked(src, dst, run_.handler, outbox.payload(),
                        outbox.count, &run_.ctx);
      outbox.Clear();
    }
  }
}

Status AsyncEngine::Seed(CellId vertex, Slice message) {
  const MachineId owner = OwnerOf(vertex);
  if (owner < 0 || owner >= num_slaves_) {
    return Status::NotFound("vertex unroutable");
  }
  EnqueueLocal(owner, vertex, message);
  return Status::OK();
}

bool AsyncEngine::SafraProbe(bool require_idle_queues) {
  // Safra's version of the Dijkstra termination-detection token [16]:
  // machine 0 launches a white token with count 0 around the ring; each
  // passive machine adds its deficit and blackens the token if it is black,
  // then whitens itself. Termination is certified when the token returns
  // white with a zero total and machine 0 is passive and white.
  std::int64_t token_count = 0;
  bool token_black = false;
  for (MachineId m = 0; m < num_slaves_; ++m) {
    MachineState& state = machines_[m];
    if (require_idle_queues && !state.scheduler.empty()) {
      return false;  // Active machine: abort probe.
    }
    token_count += state.deficit;
    if (state.black) token_black = true;
    state.black = false;
  }
  return !token_black && token_count == 0;
}

Status AsyncEngine::Run(const Handler& handler, RunStats* stats) {
  *stats = RunStats();
  if (!config_error_.ok()) return config_error_;
  run_.meters.Reset();
  const Status result = RunLoop(handler, stats);
  // Fold the per-machine scheduler counters and the fabric meters into the
  // stats on every exit path, so aborted runs stay explainable too.
  for (const MachineState& state : machines_) {
    const VertexScheduler::Stats& s = state.scheduler.stats();
    stats->messages += s.offered;
    stats->coalesced_updates += s.coalesced;
    stats->epsilon_dropped += s.dropped;
    stats->heap_ops += state.scheduler.heap_ops();
  }
  const net::NetworkStats net = run_.meters.stats();
  stats->wire_bytes = net.bytes;
  stats->wire_transfers = net.transfers;
  stats->modeled_seconds = options_.cost_model.PhaseSeconds(run_.meters);
  return result;
}

Status AsyncEngine::RunLoop(const Handler& handler, RunStats* stats) {
  net::Fabric& fabric = graph_->cloud()->fabric();
  std::uint64_t since_snapshot = 0;
  Status failure;
  for (;;) {
    // A crashed machine's local visits degrade to NotFound (its storage is
    // gone), which the update loop tolerates for individual vertices — so
    // detect the crash itself here, once per scheduling sweep.
    Status healthy = CheckClusterHealthy(*table_, fabric, "async");
    if (!healthy.ok()) return healthy;
    // Per-update max_updates enforcement: carve this sweep's per-machine
    // budgets out of the remaining allowance serially (machine 0 first) so
    // the valve can never overshoot and budgeting stays deterministic.
    std::uint64_t allowance = options_.max_updates > stats->updates
                                  ? options_.max_updates - stats->updates
                                  : 0;
    const std::uint64_t full_batch =
        static_cast<std::uint64_t>(options_.batch_size);
    if (allowance / full_batch >= static_cast<std::uint64_t>(num_slaves_)) {
      // The limit cannot bind this sweep: every machine gets a full batch.
      // (This is also the pre-scheduler engine's sweep shape — a machine may
      // process work enqueued locally *during* the sweep, which a
      // size-capped budget would forbid — so the fifo bit-identical
      // guarantee rides on this branch.)
      for (MachineState& state : machines_) state.sweep_budget = full_batch;
    } else {
      // Scarce allowance: carve it serially (machine 0 first) against each
      // machine's actual pending count — an idle machine must not swallow
      // allowance and starve the machines that hold work. Processed counts
      // never exceed the budgets, so the valve cannot overshoot, and both
      // inputs are deterministic, so truncation is too.
      for (MachineState& state : machines_) {
        state.sweep_budget = std::min<std::uint64_t>(
            std::min<std::uint64_t>(full_batch, state.scheduler.size()),
            allowance);
        allowance -= state.sweep_budget;
      }
    }
    // Parallel scheduling sweep: every machine drains up to its budget from
    // its own scheduler on a pool worker. Workers touch only their
    // machine's state and outboxes, so the sweep is lock-free; the
    // ParallelFor join is the sweep barrier.
    pool_->ParallelFor(num_slaves_, [&](int mi) {
      const MachineId m = mi;
      MachineState& state = machines_[m];
      state.sweep_status = Status::OK();
      state.sweep_updates = 0;
      net::Fabric::MeterScope meter(fabric, m, &run_.meters);
      const auto store = graph_->cloud()->storage(m);
      CellId vertex = kInvalidCell;
      std::string delta;
      for (std::uint64_t i = 0; i < state.sweep_budget; ++i) {
        if (!state.scheduler.Pop(&vertex, &delta)) break;
        Context ctx;
        ctx.engine_ = this;
        ctx.machine_ = m;
        ctx.vertex_ = vertex;
        ctx.value_ = &state.values[vertex];
        Status vs = graph_->VisitLocalNode(
            store.get(), vertex,
            [&](Slice data, const CellId*, std::size_t, const CellId* out,
                std::size_t out_count) {
              ctx.data_ = data;
              ctx.out_ = out;
              ctx.out_count_ = out_count;
              handler(ctx, Slice(delta));
            });
        if (!vs.ok() && !vs.IsNotFound()) state.sweep_status = vs;
        ++state.sweep_updates;
      }
    });
    bool processed_any = false;
    for (const MachineState& state : machines_) {
      if (!state.sweep_status.ok()) failure = state.sweep_status;
      stats->updates += state.sweep_updates;
      since_snapshot += state.sweep_updates;
      processed_any = processed_any || state.sweep_updates > 0;
    }
    if (!failure.ok()) return failure;
    // Asynchronous delivery: drain the packed outboxes.
    FlushOutboxes();
    // The safety valve fires only when the limit is spent AND work remains
    // (all in-flight messages just drained into the schedulers, so scheduler
    // emptiness is the complete picture). A run that finishes exactly at
    // the limit is left to Safra to certify as a normal termination.
    if (stats->updates >= options_.max_updates) {
      for (const MachineState& state : machines_) {
        if (!state.scheduler.empty()) {
          return Status::ResourceExhausted(
              "async max_updates limit (" +
              std::to_string(options_.max_updates) +
              ") reached with work still pending");
        }
      }
    }
    // Periodic interruption + snapshot (§6.2).
    if (options_.snapshot_interval > 0 && options_.tfs != nullptr &&
        since_snapshot >= options_.snapshot_interval) {
      since_snapshot = 0;
      // All machines have paused after the update in hand; Safra's token
      // must certify that no messages are in flight before the snapshot is
      // cut (§6.2: "a snapshot is written ... once the system ceases").
      // One token round whitens the machines it visits, so while the system
      // stays paused the detection converges within two rounds.
      bool quiesced = false;
      for (int round = 0; round < 2 && !quiesced; ++round) {
        ++stats->safra_probes;
        quiesced = SafraProbe(/*require_idle_queues=*/false);
        if (!quiesced) ++stats->safra_rejections;
      }
      if (quiesced) {
        Status ss = WriteSnapshot(stats->snapshots);
        if (!ss.ok()) return ss;
        ++stats->snapshots;
      }
    }
    if (!processed_any) {
      ++stats->safra_probes;
      if (SafraProbe(/*require_idle_queues=*/true)) break;
      ++stats->safra_rejections;
    }
  }
  return Status::OK();
}

Status AsyncEngine::WriteSnapshot(int index) {
  // Sorted per machine so two snapshots of identical state are
  // byte-identical (unordered_map iteration order is not deterministic).
  BinaryWriter writer;
  std::uint64_t total = 0;
  for (const MachineState& state : machines_) {
    total += state.values.size();
  }
  writer.PutU64(total);
  std::vector<CellId> ids;
  for (const MachineState& state : machines_) {
    ids.clear();
    ids.reserve(state.values.size());
    for (const auto& [vertex, value] : state.values) ids.push_back(vertex);
    std::sort(ids.begin(), ids.end());
    for (CellId v : ids) {
      writer.PutU64(v);
      writer.PutString(state.values.at(v));
    }
  }
  return options_.tfs->WriteFile(
      options_.snapshot_prefix + "/snap_" + std::to_string(index),
      Slice(writer.buffer()));
}

Status AsyncEngine::GetValue(CellId vertex, std::string* out) const {
  const MachineId m = OwnerOf(vertex);
  if (m < 0 || m >= num_slaves_) return Status::NotFound("no such vertex");
  auto it = machines_[m].values.find(vertex);
  if (it == machines_[m].values.end()) return Status::NotFound("no value");
  *out = it->second;
  return Status::OK();
}

void AsyncEngine::ForEachValue(
    const std::function<void(CellId, const std::string&)>& fn) const {
  for (const MachineState& state : machines_) {
    for (const auto& [vertex, value] : state.values) fn(vertex, value);
  }
}

}  // namespace trinity::compute
