#include "baseline/heap_engine.h"

#include "common/histogram.h"
#include "common/serializer.h"

namespace trinity::baseline {

HeapEngine::HeapEngine(Options options) : options_(std::move(options)) {
  // Giraph's netty transport does aggregate buffers, so packing stays on;
  // the envelope overhead per message is what differs.
  fabric_ = std::make_unique<net::Fabric>(options_.num_machines);
  machines_.resize(options_.num_machines);
}

Status HeapEngine::LoadGraph(const graph::Generators::EdgeList& edges) {
  num_nodes_ = edges.num_nodes;
  num_edges_ = edges.edges.size();
  for (auto& machine : machines_) machine.vertices.clear();
  for (CellId v = 0; v < edges.num_nodes; ++v) {
    auto vertex = std::make_unique<VertexObject>();
    vertex->rank = std::make_unique<double>(0.0);
    machines_[OwnerOf(v)].vertices.emplace(v, std::move(vertex));
  }
  for (const auto& [src, dst] : edges.edges) {
    machines_[OwnerOf(src)].vertices[src]->edges.push_back(dst);
  }
  return Status::OK();
}

Status HeapEngine::RunPageRank(RunStats* stats) {
  *stats = RunStats();
  if (num_nodes_ == 0) return Status::InvalidArgument("no graph loaded");
  net::CostModel cost_model(options_.cost);
  const double n = static_cast<double>(num_nodes_);
  net::Fabric::RunScope run(*fabric_);  // Meters zeroed per superstep.

  for (MachineId m = 0; m < options_.num_machines; ++m) {
    fabric_->RegisterAsyncHandler(
        m, run.handler, [this, m](MachineId, Slice payload) {
          BinaryReader reader(payload);
          CellId target = 0;
          double value = 0;
          if (reader.GetU64(&target) && reader.GetDouble(&value)) {
            auto it = machines_[m].vertices.find(target);
            if (it != machines_[m].vertices.end()) {
              // A fresh message object per delivery — no combiner.
              it->second->inbox.push_back(std::make_unique<double>(value));
            }
          }
        });
  }

  // Wire framing: Writable envelope emulated by padding the payload.
  const std::string padding(options_.per_message_wire_bytes, '\0');

  for (int step = 0; step <= options_.iterations; ++step) {
    run.meters.Reset();
    for (MachineId m = 0; m < options_.num_machines; ++m) {
      Stopwatch watch;
      Machine& machine = machines_[m];
      for (auto& [v, vertex] : machine.vertices) {
        double rank;
        if (step == 0) {
          rank = 1.0 / n;
        } else {
          double incoming = 0;
          for (const auto& msg : vertex->inbox) incoming += *msg;
          rank = (1.0 - options_.damping) / n + options_.damping * incoming;
        }
        vertex->inbox.clear();
        *vertex->rank = rank;
        if (step == options_.iterations) continue;
        if (vertex->edges.empty()) continue;
        const double share =
            rank / static_cast<double>(vertex->edges.size());
        for (CellId u : vertex->edges) {
          const MachineId owner = OwnerOf(u);
          BinaryWriter writer;
          writer.PutU64(u);
          writer.PutDouble(share);
          writer.PutRaw(padding.data(), padding.size());
          if (owner == m) {
            auto it = machine.vertices.find(u);
            if (it != machine.vertices.end()) {
              it->second->inbox.push_back(std::make_unique<double>(share));
            }
          } else {
            fabric_->SendAsync(m, owner, run.handler,
                               Slice(writer.buffer()), &run.ctx);
          }
          ++stats->messages;
        }
      }
      // GC + serialization penalty on the measured superstep time.
      fabric_->AddCpuMicros(m, watch.ElapsedMicros() * options_.cpu_factor,
                            &run.meters);
    }
    fabric_->FlushAll();
    stats->modeled_seconds += cost_model.PhaseSeconds(run.meters) +
                              options_.superstep_overhead_seconds;
    ++stats->supersteps;
  }
  stats->seconds_per_iteration =
      stats->supersteps > 1
          ? stats->modeled_seconds / (stats->supersteps - 1)
          : stats->modeled_seconds;
  // JVM-object memory accounting (Fig 12d's OOM behaviour comes from here).
  stats->memory_bytes =
      num_nodes_ * (options_.object_header_bytes +
                    options_.per_vertex_object_bytes) +
      num_edges_ * options_.per_edge_object_bytes;
  return Status::OK();
}

}  // namespace trinity::baseline
