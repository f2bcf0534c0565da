#include "compute/traversal.h"

#include <cstring>
#include <limits>

#include "common/serializer.h"
#include "compute/packed_messages.h"

namespace trinity::compute {

TraversalEngine::TraversalEngine(graph::Graph* graph, Options options)
    : graph_(graph),
      options_(std::move(options)),
      table_(graph->cloud()->table()) {
  num_slaves_ = graph_->cloud()->num_slaves();
  pool_ = std::make_unique<ThreadPool>(options_.num_threads);
}

TraversalEngine::TraversalEngine(graph::Graph* graph)
    : TraversalEngine(graph, Options()) {}

MachineId TraversalEngine::OwnerOf(CellId vertex) const {
  return table_->machine_of_trunk(graph_->cloud()->TrunkOf(vertex));
}

Status TraversalEngine::KHopExplore(CellId start, int max_depth,
                                    const Visitor& visit, QueryStats* stats,
                                    CallContext* ctx) {
  *stats = QueryStats();
  net::Fabric& fabric = graph_->cloud()->fabric();
  cloud::MemoryCloud* cloud = graph_->cloud();
  // This query's round meters and frontier handler id. run.ctx has no
  // deadline: `ctx` gates the rounds, run.ctx only meters them.
  net::Fabric::RunScope run(fabric);
  struct FrontierEntry {
    CellId vertex;
    std::uint32_t depth;
  };
  /// Per-machine round state; a pool worker touches only its own slot.
  struct MachineRound {
    std::vector<FrontierEntry> frontier;
    std::vector<FrontierEntry> incoming;
    std::unordered_set<CellId> visited;
    std::vector<Outbox> outboxes;  ///< One per destination machine.
    std::uint64_t visited_count = 0;
    Status status;
  };
  std::vector<MachineRound> rounds(num_slaves_);
  for (MachineRound& r : rounds) r.outboxes.resize(num_slaves_);

  // Frontier-forwarding handler: a machine receives a packed payload of the
  // vertices it owns that a remote machine just discovered. Record payload
  // is the 4-byte hop depth. Handlers only run at the round barrier (the
  // expansion loop never touches the fabric), so `rounds` needs no lock.
  for (MachineId m = 0; m < num_slaves_; ++m) {
    fabric.RegisterAsyncHandler(
        m, run.handler, [m, &rounds](MachineId, Slice payload) {
          ForEachPackedRecord(payload, [m, &rounds](CellId vertex,
                                                    Slice depth_bytes) {
            if (depth_bytes.size() != 4) return;
            std::uint32_t depth = 0;
            std::memcpy(&depth, depth_bytes.data(), 4);
            rounds[m].incoming.push_back({vertex, depth});
          });
        });
  }

  const MachineId start_owner = OwnerOf(start);
  if (start_owner < 0 || start_owner >= num_slaves_) {
    return Status::NotFound("start vertex unroutable");
  }
  rounds[start_owner].frontier.push_back({start, 0});

  for (;;) {
    bool any = false;
    for (const MachineRound& r : rounds) {
      if (!r.frontier.empty()) {
        any = true;
        break;
      }
    }
    if (!any) break;
    if (ctx != nullptr) {
      // Deadline/cancellation boundary: the frontier for the next round is
      // intact, but a spent budget stops the query here rather than paying
      // for another full expansion round.
      Status gate = ctx->Check();
      if (!gate.ok()) return gate;
    }
    run.meters.Reset();
    // One round: every machine expands its frontier slice on a pool worker
    // (lock-free — remote discoveries go into per-destination outboxes).
    pool_->ParallelFor(num_slaves_, [&](int mi) {
      const MachineId m = mi;
      MachineRound& round = rounds[m];
      round.status = Status::OK();
      net::Fabric::MeterScope meter(fabric, m, &run.meters);
      const auto store = cloud->storage(m);
      // Shared expansion body: runs the user visitor and buckets neighbors,
      // identical for locally-visited and batch-fetched vertices.
      const auto expand_node = [&](const FrontierEntry& entry, Slice data,
                                   const CellId* out, std::size_t out_count) {
        const bool expand =
            visit(entry.vertex, static_cast<int>(entry.depth), data);
        if (!expand || entry.depth >= static_cast<std::uint32_t>(max_depth)) {
          return;
        }
        const std::uint32_t next_depth = entry.depth + 1;
        for (std::size_t i = 0; i < out_count; ++i) {
          const CellId neighbor = out[i];
          const MachineId owner = OwnerOf(neighbor);
          if (owner == m) {
            if (round.visited.count(neighbor) == 0) {
              round.incoming.push_back({neighbor, next_depth});
            }
          } else {
            round.outboxes[owner].Add(
                neighbor,
                Slice(reinterpret_cast<const char*>(&next_depth), 4));
          }
        }
      };
      // Vertices this round's owner snapshot misrouted to us (the engine's
      // table is pinned at construction; migration or failover can strand a
      // vertex elsewhere). Batched into one MultiGet per round.
      std::vector<FrontierEntry> misses;
      for (const FrontierEntry& entry : round.frontier) {
        if (!round.visited.insert(entry.vertex).second) continue;
        ++round.visited_count;
        Status vs = graph_->VisitLocalNode(
            store.get(), entry.vertex,
            [&](Slice data, const CellId*, std::size_t, const CellId* out,
                std::size_t out_count) {
              expand_node(entry, data, out, out_count);
            });
        if (vs.IsNotFound()) {
          misses.push_back(entry);
        } else if (!vs.ok()) {
          round.status = vs;
        }
      }
      if (!misses.empty() && round.status.ok()) {
        // Healthy runs never reach here (every frontier vertex is local), so
        // the fast path issues zero extra calls. On a stale snapshot the
        // stranded vertices are fetched with one packed request per owner;
        // ids the cloud cannot serve (owner dead, promotion pending) are
        // skipped exactly as the silent NotFound skip above always did.
        std::vector<CellId> ids;
        ids.reserve(misses.size());
        for (const FrontierEntry& entry : misses) ids.push_back(entry.vertex);
        std::vector<cloud::MemoryCloud::MultiGetResult> fetched;
        Status ms = cloud->MultiGet(m, ids, &fetched, &run.ctx);
        if (ms.ok()) {
          for (std::size_t i = 0; i < misses.size(); ++i) {
            if (!fetched[i].status.ok()) continue;
            graph::NodeImage node;
            if (!graph::Graph::DecodeNode(ids[i], Slice(fetched[i].value),
                                          &node)
                     .ok()) {
              continue;
            }
            expand_node(misses[i], Slice(node.data), node.out.data(),
                        node.out.size());
          }
        }
      }
      round.frontier.clear();
    });
    for (MachineRound& round : rounds) {
      if (!round.status.ok()) return round.status;
      stats->visited += round.visited_count;
      round.visited_count = 0;
    }
    // Round barrier (one communication round): one packed payload per
    // (src,dst) pair with traffic in flight, in canonical src/dst order.
    for (MachineId src = 0; src < num_slaves_; ++src) {
      for (MachineId dst = 0; dst < num_slaves_; ++dst) {
        Outbox& outbox = rounds[src].outboxes[dst];
        if (outbox.empty()) continue;
        fabric.SendPacked(src, dst, run.handler, outbox.payload(),
                          outbox.count, &run.ctx);
        outbox.Clear();
      }
    }
    for (MachineRound& round : rounds) {
      round.frontier = std::move(round.incoming);
      round.incoming.clear();
    }
    const net::NetworkStats net = run.meters.stats();
    stats->messages += net.messages;
    stats->transfers += net.transfers;
    const double round_millis =
        options_.cost_model.PhaseSeconds(run.meters) * 1000.0;
    stats->modeled_millis += round_millis;
    ++stats->rounds;
    // The round's modeled latency is time the caller waited: charge it to
    // the deadline budget (simulated micros, like every other layer).
    if (ctx != nullptr) ctx->Consume(round_millis * 1000.0);
  }
  return Status::OK();
}

Status TraversalEngine::Bfs(
    CellId start, std::unordered_map<CellId, std::uint32_t>* distances,
    QueryStats* stats, CallContext* ctx) {
  distances->clear();
  // The visitor runs on the worker that owns the vertex; collect into a
  // per-owner map so concurrent expansion never shares a container, then
  // merge after the run.
  std::vector<std::unordered_map<CellId, std::uint32_t>> per_machine(
      num_slaves_);
  Status s = KHopExplore(
      start, std::numeric_limits<int>::max() - 1,
      [this, &per_machine](CellId vertex, int depth, Slice) {
        per_machine[OwnerOf(vertex)].emplace(
            vertex, static_cast<std::uint32_t>(depth));
        return true;
      },
      stats, ctx);
  if (!s.ok()) return s;
  for (auto& partial : per_machine) {
    for (const auto& [vertex, depth] : partial) {
      distances->emplace(vertex, depth);
    }
  }
  return Status::OK();
}

}  // namespace trinity::compute
