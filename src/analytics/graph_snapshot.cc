#include "analytics/graph_snapshot.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "cloud/memory_cloud.h"
#include "common/histogram.h"
#include "compute/packed_messages.h"
#include "net/fabric.h"

namespace trinity::analytics {

Status GraphSnapshot::Validate() const {
  const std::size_t n = id_by_rank.size();
  if (degree_by_rank.size() != n || owner_by_rank.size() != n ||
      local_index.size() != n) {
    return Status::Corruption("snapshot global tables disagree on size");
  }
  if (offsets.size() != local_ranks.size() + 1 || offsets.front() != 0 ||
      offsets.back() != adjacency.size()) {
    return Status::Corruption("snapshot CSR offsets malformed");
  }
  for (std::size_t r = 1; r < n; ++r) {
    if (degree_by_rank[r] > degree_by_rank[r - 1]) {
      return Status::Corruption("snapshot ranks not degree-ordered");
    }
    if (degree_by_rank[r] == degree_by_rank[r - 1] &&
        id_by_rank[r] <= id_by_rank[r - 1]) {
      return Status::Corruption("snapshot rank ties not id-ordered");
    }
  }
  std::size_t locals_seen = 0;
  for (std::size_t i = 0; i < local_ranks.size(); ++i) {
    const std::uint32_t rank = local_ranks[i];
    if (rank >= n) return Status::Corruption("local rank out of range");
    if (i > 0 && rank <= local_ranks[i - 1]) {
      return Status::Corruption("local ranks not ascending");
    }
    if (offsets[i] > offsets[i + 1]) {
      return Status::Corruption("snapshot CSR offsets not monotone");
    }
    if (local_index[rank] != i) {
      return Status::Corruption("local_index disagrees with local_ranks");
    }
    ++locals_seen;
    std::uint32_t prev = 0;
    for (std::uint64_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      const std::uint32_t nb = adjacency[k];
      if (nb >= rank) {
        return Status::Corruption("oriented edge does not point down-rank");
      }
      if (k > offsets[i] && nb <= prev) {
        return Status::Corruption("oriented list not strictly ascending");
      }
      prev = nb;
    }
  }
  std::size_t locals_indexed = 0;
  for (std::size_t r = 0; r < n; ++r) {
    if (local_index[r] != kNotLocal) ++locals_indexed;
  }
  if (locals_indexed != locals_seen) {
    return Status::Corruption("local_index marks a rank with no CSR row");
  }
  return Status::OK();
}

namespace {

/// One frozen node capture: the vertex id plus its dedup undirected
/// neighborhood, read in a single pinned cell visit.
struct CapturedNode {
  CellId id = kInvalidCell;
  std::vector<CellId> neighbors;
};

/// Scans machine m's trunks over the lock-free read path. Nodes that vanish
/// mid-scan (concurrent remove) are skipped; each captured node is
/// internally consistent because the visit pins the cell.
Status ScanMachine(graph::Graph* graph, cloud::MemoryCloud* cloud,
                   MachineId m, std::vector<CapturedNode>* out) {
  storage::MemoryStorage* store = cloud->storage(m);
  if (store == nullptr) return Status::OK();  // Dead slave: empty view.
  std::vector<CellId> ids = graph->LocalNodes(m);
  out->reserve(ids.size());
  for (CellId id : ids) {
    CapturedNode node;
    node.id = id;
    Status s = graph->VisitLocalNode(
        store, id,
        [&node, id](Slice, const CellId* in, std::size_t in_count,
                    const CellId* vout, std::size_t out_count) {
          node.neighbors.reserve(in_count + out_count);
          for (std::size_t i = 0; i < in_count; ++i) {
            if (in[i] != id) node.neighbors.push_back(in[i]);
          }
          for (std::size_t i = 0; i < out_count; ++i) {
            if (vout[i] != id) node.neighbors.push_back(vout[i]);
          }
          std::sort(node.neighbors.begin(), node.neighbors.end());
          node.neighbors.erase(
              std::unique(node.neighbors.begin(), node.neighbors.end()),
              node.neighbors.end());
        });
    if (s.IsNotFound() || s.IsCorruption()) continue;
    if (!s.ok()) return s;
    out->push_back(std::move(node));
  }
  return Status::OK();
}

struct DegreeRecord {
  CellId id;
  std::uint32_t degree;
  MachineId owner;
};

}  // namespace

Status SnapshotBuilder::Build(graph::Graph* graph,
                              std::vector<GraphSnapshot>* views,
                              BuildStats* stats) {
  cloud::MemoryCloud* cloud = graph->cloud();
  if (graph->options().directed && !graph->options().track_inlinks) {
    return Status::InvalidArgument(
        "snapshot build needs in-link tracking: a vertex must see its full "
        "undirected neighborhood in its own cell");
  }
  net::Fabric& fabric = cloud->fabric();
  const int slaves = cloud->num_slaves();
  views->assign(slaves, GraphSnapshot());
  BuildStats local_stats;
  Stopwatch watch;

  // Phase 1: frozen per-machine scans (lock-free read path).
  std::vector<std::vector<CapturedNode>> captured(slaves);
  for (MachineId m = 0; m < slaves; ++m) {
    net::Fabric::MeterScope meter(fabric, m);
    Status s = ScanMachine(graph, cloud, m, &captured[m]);
    if (!s.ok()) return s;
  }
  local_stats.scan_ms = watch.ElapsedMillis();

  // Phase 2: degree gather to a coordinator + rank-table broadcast. One
  // packed payload per machine pair, in each direction — O(machines), not
  // O(edges), and the only traffic the build ever puts on the wire. One run
  // id serves both: degrees go to the coordinator, ranks to the others.
  watch.Reset();
  net::Fabric::RunScope run(fabric);
  MachineId coord = 0;
  for (MachineId m = 0; m < slaves; ++m) {
    if (cloud->storage(m) != nullptr) {
      coord = m;
      break;
    }
  }
  std::vector<DegreeRecord> merged;
  fabric.RegisterAsyncHandler(
      coord, run.handler, [&merged](MachineId src, Slice payload) {
        compute::ForEachPackedRecord(payload, [&](CellId id, Slice deg) {
          if (deg.size() != 4) return;
          std::uint32_t d = 0;
          std::memcpy(&d, deg.data(), 4);
          merged.push_back({id, d, src});
        });
      });
  for (MachineId m = 0; m < slaves; ++m) {
    if (captured[m].empty()) continue;
    if (m == coord) {
      for (const CapturedNode& node : captured[m]) {
        merged.push_back(
            {node.id, static_cast<std::uint32_t>(node.neighbors.size()), m});
      }
      continue;
    }
    std::string buf;
    for (const CapturedNode& node : captured[m]) {
      const auto degree = static_cast<std::uint32_t>(node.neighbors.size());
      compute::AppendPackedRecord(
          &buf, node.id, Slice(reinterpret_cast<const char*>(&degree), 4));
    }
    Status s = fabric.SendPacked(m, coord, run.handler, Slice(buf),
                                 captured[m].size(), &run.ctx);
    if (!s.ok()) return s;
  }
  {
    // Coordinator: dedup (a cell captured twice keeps its first claimant)
    // and order by (degree desc, id asc) — the rank function.
    net::Fabric::MeterScope meter(fabric, coord);
    std::stable_sort(merged.begin(), merged.end(),
                     [](const DegreeRecord& a, const DegreeRecord& b) {
                       return a.id < b.id;
                     });
    merged.erase(std::unique(merged.begin(), merged.end(),
                             [](const DegreeRecord& a, const DegreeRecord& b) {
                               return a.id == b.id;
                             }),
                 merged.end());
    std::sort(merged.begin(), merged.end(),
              [](const DegreeRecord& a, const DegreeRecord& b) {
                if (a.degree != b.degree) return a.degree > b.degree;
                return a.id < b.id;
              });
  }
  // Broadcast the table in rank order; every machine fills its global
  // tables from the arrival order of the records.
  const auto fill_tables = [&merged](GraphSnapshot* view) {
    view->id_by_rank.reserve(merged.size());
    view->degree_by_rank.reserve(merged.size());
    view->owner_by_rank.reserve(merged.size());
    for (const DegreeRecord& rec : merged) {
      view->id_by_rank.push_back(rec.id);
      view->degree_by_rank.push_back(rec.degree);
      view->owner_by_rank.push_back(rec.owner);
    }
  };
  std::string table_buf;
  {
    net::Fabric::MeterScope meter(fabric, coord);
    for (const DegreeRecord& rec : merged) {
      char payload[8];
      std::memcpy(payload, &rec.degree, 4);
      std::memcpy(payload + 4, &rec.owner, 4);
      compute::AppendPackedRecord(&table_buf, rec.id, Slice(payload, 8));
    }
  }
  for (MachineId m = 0; m < slaves; ++m) {
    GraphSnapshot& view = (*views)[m];
    view.machine = m;
    if (m == coord) {
      fill_tables(&view);
      continue;
    }
    fabric.RegisterAsyncHandler(
        m, run.handler, [&view](MachineId, Slice payload) {
          compute::ForEachPackedRecord(payload, [&](CellId id, Slice rec) {
            if (rec.size() != 8) return;
            std::uint32_t degree = 0;
            MachineId owner = kInvalidMachine;
            std::memcpy(&degree, rec.data(), 4);
            std::memcpy(&owner, rec.data() + 4, 4);
            view.id_by_rank.push_back(id);
            view.degree_by_rank.push_back(degree);
            view.owner_by_rank.push_back(owner);
          });
        });
    Status s = fabric.SendPacked(coord, m, run.handler,
                                 Slice(table_buf), merged.size(), &run.ctx);
    if (!s.ok()) return s;
  }
  const net::NetworkStats exchanged = run.meters.stats();
  local_stats.exchange_bytes = exchanged.bytes;
  local_stats.exchange_messages = exchanged.messages;
  local_stats.exchange_ms = watch.ElapsedMillis();

  // Phase 3: per-machine oriented CSR materialization.
  watch.Reset();
  for (MachineId m = 0; m < slaves; ++m) {
    net::Fabric::MeterScope meter(fabric, m);
    GraphSnapshot& view = (*views)[m];
    const std::uint32_t n = view.num_vertices();
    std::unordered_map<CellId, std::uint32_t> rank_of_id;
    rank_of_id.reserve(n);
    for (std::uint32_t r = 0; r < n; ++r) {
      rank_of_id.emplace(view.id_by_rank[r], r);
    }
    // Keep only the captures the coordinator attributed to us (a duplicate
    // claim keeps one owner so every rank has exactly one CSR row
    // cluster-wide), in ascending rank order.
    std::vector<std::pair<std::uint32_t, const CapturedNode*>> rows;
    rows.reserve(captured[m].size());
    for (const CapturedNode& node : captured[m]) {
      auto it = rank_of_id.find(node.id);
      if (it == rank_of_id.end()) continue;
      if (view.owner_by_rank[it->second] != m) continue;
      rows.emplace_back(it->second, &node);
    }
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    view.local_index.assign(n, GraphSnapshot::kNotLocal);
    view.local_ranks.reserve(rows.size());
    view.offsets.reserve(rows.size() + 1);
    view.offsets.push_back(0);
    std::vector<std::uint32_t> list;
    for (const auto& [rank, node] : rows) {
      list.clear();
      for (CellId nb : node->neighbors) {
        auto it = rank_of_id.find(nb);
        // Neighbors with no rank were never captured (e.g. a dangling edge
        // or a node added after the freeze) — the frozen view drops them.
        if (it == rank_of_id.end()) continue;
        if (it->second < rank) list.push_back(it->second);
      }
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
      view.local_index[rank] =
          static_cast<std::uint32_t>(view.local_ranks.size());
      view.local_ranks.push_back(rank);
      view.adjacency.insert(view.adjacency.end(), list.begin(), list.end());
      view.offsets.push_back(view.adjacency.size());
    }
  }
  local_stats.csr_ms = watch.ElapsedMillis();
  if (stats != nullptr) *stats = local_stats;
  return Status::OK();
}

Status SnapshotBuilder::BuildGlobal(graph::Graph* graph, GraphSnapshot* out,
                                    BuildStats* stats) {
  cloud::MemoryCloud* cloud = graph->cloud();
  std::vector<GraphSnapshot> views;
  Status s = Build(graph, &views, stats);
  if (!s.ok()) return s;
  net::Fabric& fabric = cloud->fabric();
  const MachineId client = cloud->client_id();

  *out = GraphSnapshot();
  out->machine = kInvalidMachine;
  out->id_by_rank = views[0].id_by_rank;
  out->degree_by_rank = views[0].degree_by_rank;
  out->owner_by_rank = views[0].owner_by_rank;
  const std::uint32_t n = out->num_vertices();

  // Gather: each machine ships its oriented CSR to the client once, as one
  // packed payload of [rank][len][ranks...] records.
  std::vector<std::vector<std::uint32_t>> lists(n);
  std::vector<bool> seen(n, false);
  net::Fabric::RunScope run(fabric);
  fabric.RegisterAsyncHandler(
      client, run.handler, [&lists, &seen, n](MachineId, Slice payload) {
        compute::ForEachPackedRecord(payload, [&](CellId rank, Slice body) {
          if (rank >= n || body.size() % 4 != 0) return;
          const auto r = static_cast<std::uint32_t>(rank);
          if (seen[r]) return;
          seen[r] = true;
          lists[r].resize(body.size() / 4);
          if (!body.empty()) {
            std::memcpy(lists[r].data(), body.data(), body.size());
          }
        });
      });
  for (const GraphSnapshot& view : views) {
    if (view.num_local() == 0) continue;
    std::string buf;
    for (std::size_t i = 0; i < view.num_local(); ++i) {
      const std::span<const std::uint32_t> list = view.List(i);
      const Slice body =
          list.empty() ? Slice("")
                       : Slice(reinterpret_cast<const char*>(list.data()),
                               list.size() * 4);
      compute::AppendPackedRecord(&buf, view.local_ranks[i], body);
    }
    s = fabric.SendPacked(view.machine, client, run.handler, Slice(buf),
                          view.num_local(), &run.ctx);
    if (!s.ok()) return s;
  }

  out->local_ranks.resize(n);
  out->local_index.resize(n);
  out->offsets.reserve(n + 1);
  out->offsets.push_back(0);
  for (std::uint32_t r = 0; r < n; ++r) {
    out->local_ranks[r] = r;
    out->local_index[r] = r;
    out->adjacency.insert(out->adjacency.end(), lists[r].begin(),
                          lists[r].end());
    out->offsets.push_back(out->adjacency.size());
  }
  return s;
}

}  // namespace trinity::analytics
