#include "baseline/ghost_engine.h"

#include "common/histogram.h"
#include "common/serializer.h"

namespace trinity::baseline {

GhostEngine::GhostEngine(Options options) : options_(std::move(options)) {
  net::Fabric::Params params;
  params.pack_messages = false;  // Fine-grained two-sided messaging.
  fabric_ = std::make_unique<net::Fabric>(options_.num_machines, params);
  machines_.resize(options_.num_machines);
}

Status GhostEngine::LoadGraph(const graph::Generators::EdgeList& edges,
                              LoadStats* stats) {
  *stats = LoadStats();
  num_nodes_ = edges.num_nodes;
  for (auto& machine : machines_) {
    machine.adjacency.clear();
    machine.ghosts.clear();
    machine.distance.clear();
  }
  for (CellId v = 0; v < edges.num_nodes; ++v) {
    machines_[OwnerOf(v)].adjacency[v];  // Materialize isolated vertices.
  }
  std::uint64_t num_edges = 0;
  for (const auto& [src, dst] : edges.edges) {
    machines_[OwnerOf(src)].adjacency[src].push_back(dst);
    ++num_edges;
  }
  // Ghost tables: one replica per (machine, referenced remote vertex).
  for (MachineId m = 0; m < options_.num_machines; ++m) {
    Machine& machine = machines_[m];
    for (const auto& [v, neighbors] : machine.adjacency) {
      (void)v;
      for (CellId u : neighbors) {
        if (OwnerOf(u) != m) machine.ghosts.emplace(u, ~0u);
      }
    }
    stats->ghost_cells += machine.ghosts.size();
    stats->memory_bytes +=
        machine.adjacency.size() * options_.per_vertex_bytes +
        machine.ghosts.size() * options_.per_ghost_bytes;
  }
  stats->memory_bytes += num_edges * options_.per_edge_bytes;
  return Status::OK();
}

Status GhostEngine::RunBfs(CellId start, BfsStats* stats) {
  *stats = BfsStats();
  if (num_nodes_ == 0) return Status::InvalidArgument("no graph loaded");
  for (auto& machine : machines_) {
    machine.distance.clear();
    for (auto& [v, d] : machine.ghosts) {
      (void)v;
      d = ~0u;
    }
  }
  net::CostModel cost_model(options_.cost);
  net::Fabric::RunScope run(*fabric_);  // Meters zeroed per round.

  // Incoming distance updates per machine (two-sided receives).
  std::vector<std::vector<std::pair<CellId, std::uint32_t>>> incoming(
      options_.num_machines);
  for (MachineId m = 0; m < options_.num_machines; ++m) {
    fabric_->RegisterAsyncHandler(
        m, run.handler, [m, &incoming](MachineId, Slice payload) {
          BinaryReader reader(payload);
          CellId vertex = 0;
          std::uint32_t dist = 0;
          if (reader.GetU64(&vertex) && reader.GetU32(&dist)) {
            incoming[m].emplace_back(vertex, dist);
          }
        });
  }

  std::vector<std::vector<std::pair<CellId, std::uint32_t>>> frontier(
      options_.num_machines);
  frontier[OwnerOf(start)].emplace_back(start, 0);
  for (;;) {
    bool any = false;
    for (const auto& f : frontier) {
      if (!f.empty()) any = true;
    }
    if (!any) break;
    run.meters.Reset();
    for (MachineId m = 0; m < options_.num_machines; ++m) {
      Machine& machine = machines_[m];
      Stopwatch watch;
      for (const auto& [v, d] : frontier[m]) {
        auto [it, inserted] = machine.distance.emplace(v, d);
        if (!inserted) continue;  // Already settled.
        ++stats->reached;
        auto adj = machine.adjacency.find(v);
        if (adj == machine.adjacency.end()) continue;
        for (CellId u : adj->second) {
          const MachineId owner = OwnerOf(u);
          if (owner == m) {
            if (machine.distance.count(u) == 0) {
              incoming[m].emplace_back(u, d + 1);
            }
          } else {
            // Ghost update: check the replica to suppress re-sends, then
            // push one fine-grained (unpacked) message to the owner.
            auto ghost = machine.ghosts.find(u);
            if (ghost != machine.ghosts.end() && ghost->second <= d + 1) {
              continue;
            }
            if (ghost != machine.ghosts.end()) ghost->second = d + 1;
            BinaryWriter writer;
            writer.PutU64(u);
            writer.PutU32(d + 1);
            fabric_->SendAsync(m, owner, run.handler,
                               Slice(writer.buffer()), &run.ctx);
          }
        }
      }
      frontier[m].clear();
      // Measured frontier work, scaled by the heap-object traversal
      // penalty relative to Trinity's contiguous blob scans.
      fabric_->AddCpuMicros(m, watch.ElapsedMicros() * options_.cpu_factor,
                            &run.meters);
    }
    fabric_->FlushAll();
    for (MachineId m = 0; m < options_.num_machines; ++m) {
      frontier[m] = std::move(incoming[m]);
      incoming[m].clear();
    }
    const net::NetworkStats net = run.meters.stats();
    stats->messages += net.messages;
    stats->transfers += net.transfers;
    stats->modeled_seconds += cost_model.PhaseSeconds(run.meters);
    ++stats->rounds;
  }
  return Status::OK();
}

}  // namespace trinity::baseline
