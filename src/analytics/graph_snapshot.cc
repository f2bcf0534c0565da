#include "analytics/graph_snapshot.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <thread>
#include <utility>

#include "cloud/memory_cloud.h"
#include "common/histogram.h"
#include "common/threadpool.h"
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

/// One machine's frozen node captures, stored flat: node i is ids[i] with
/// its dedup undirected neighbourhood neighbors[offsets[i]..offsets[i+1])
/// (in first-seen order), read in a single pinned cell visit.
struct MachineCapture {
  std::vector<CellId> ids;
  std::vector<std::uint64_t> offsets{0};
  std::vector<CellId> neighbors;

  std::size_t size() const { return ids.size(); }
  std::uint32_t Degree(std::size_t i) const {
    return static_cast<std::uint32_t>(offsets[i + 1] - offsets[i]);
  }
  std::span<const CellId> Neighbors(std::size_t i) const {
    return {neighbors.data() + offsets[i], Degree(i)};
  }
};

/// Set of cell ids that dedups one node's in ∪ out lists: open addressing
/// over a power-of-two table, emptied in O(1) by bumping a generation
/// stamp. Sorting each neighbourhood to dedup it would spend most of the
/// scan in branch misses, and the CSR phase sorts the surviving ranks
/// anyway.
class IdSet {
 public:
  /// Empties the set, sized for up to n insertions.
  void Reset(std::size_t n) {
    const std::size_t want = std::bit_ceil(2 * n + 2);
    if (want > keys_.size()) {
      keys_.assign(want, 0);
      stamps_.assign(want, 0);
      stamp_ = 0;
      shift_ = 64 - std::countr_zero(want);
    }
    if (++stamp_ == 0) {  // Stamps wrapped: forget them all.
      std::fill(stamps_.begin(), stamps_.end(), 0);
      stamp_ = 1;
    }
  }

  /// True when `id` was not in the set yet.
  bool Insert(CellId id) {
    std::size_t slot = (id * 0x9E3779B97F4A7C15ull) >> shift_;
    while (stamps_[slot] == stamp_) {
      if (keys_[slot] == id) return false;
      slot = (slot + 1) & (keys_.size() - 1);
    }
    stamps_[slot] = stamp_;
    keys_[slot] = id;
    return true;
  }

 private:
  std::vector<CellId> keys_;
  std::vector<std::uint32_t> stamps_;  ///< Slot is live iff == stamp_.
  std::uint32_t stamp_ = 0;
  int shift_ = 64;
};

/// Scans machine m's trunks over the lock-free read path. Nodes that vanish
/// mid-scan (concurrent remove) are skipped; each captured node is
/// internally consistent because the visit pins the cell.
Status ScanMachine(graph::Graph* graph, cloud::MemoryCloud* cloud,
                   MachineId m, MachineCapture* out) {
  const auto pin = cloud->trunks(m);
  if (pin == nullptr) return Status::OK();  // Dead slave: empty view.
  const std::vector<CellId> ids = graph->LocalNodes(m);
  out->ids.reserve(ids.size());
  out->offsets.reserve(ids.size() + 1);
  std::vector<CellId>& nbrs = out->neighbors;
  IdSet seen;
  for (CellId id : ids) {
    const std::size_t start = nbrs.size();
    Status s = graph->VisitLocalNode(
        pin.get(), id,
        [&nbrs, &seen, id](Slice, const CellId* in, std::size_t in_count,
                           const CellId* vout, std::size_t out_count) {
          seen.Reset(in_count + out_count);
          for (std::size_t i = 0; i < in_count; ++i) {
            if (in[i] != id && seen.Insert(in[i])) nbrs.push_back(in[i]);
          }
          for (std::size_t i = 0; i < out_count; ++i) {
            if (vout[i] != id && seen.Insert(vout[i])) nbrs.push_back(vout[i]);
          }
        });
    if (s.IsNotFound() || s.IsCorruption()) {
      nbrs.resize(start);
      continue;
    }
    if (!s.ok()) return s;
    out->ids.push_back(id);
    out->offsets.push_back(nbrs.size());
  }
  return Status::OK();
}

/// Cell id → rank over the broadcast rank table, flat: ids sorted ascending
/// with a directory over (id - min) >> shift, so a lookup is one directory
/// read plus a short search inside one bucket. Built once per Build; the
/// table is identical on every machine, so every machine's CSR phase shares
/// it read-only.
class RankLookup {
 public:
  static constexpr std::uint32_t kNoRank = ~static_cast<std::uint32_t>(0);

  /// `ids_by_rank[r]` is rank r's cell id; ids are distinct.
  explicit RankLookup(const std::vector<CellId>& ids_by_rank) {
    std::vector<std::pair<CellId, std::uint32_t>> sorted(ids_by_rank.size());
    for (std::uint32_t r = 0; r < sorted.size(); ++r) {
      sorted[r] = {ids_by_rank[r], r};
    }
    std::sort(sorted.begin(), sorted.end());
    ids_.reserve(sorted.size());
    ranks_.reserve(sorted.size());
    for (const auto& [id, rank] : sorted) {
      ids_.push_back(id);
      ranks_.push_back(rank);
    }
    if (ids_.empty()) return;
    min_ = ids_.front();
    // About one id per bucket when ids spread evenly over [min, max].
    const CellId span = ids_.back() - min_;
    while ((span >> shift_) >= ids_.size()) ++shift_;
    dir_.assign((span >> shift_) + 2, 0);
    for (const CellId id : ids_) ++dir_[((id - min_) >> shift_) + 1];
    for (std::size_t b = 1; b < dir_.size(); ++b) dir_[b] += dir_[b - 1];
  }

  std::uint32_t Find(CellId id) const {
    if (ids_.empty() || id < min_ || id > ids_.back()) return kNoRank;
    const CellId bucket = (id - min_) >> shift_;
    const auto first = ids_.begin() + dir_[bucket];
    const auto last = ids_.begin() + dir_[bucket + 1];
    const auto it = std::lower_bound(first, last, id);
    return it != last && *it == id ? ranks_[it - ids_.begin()] : kNoRank;
  }

 private:
  std::vector<CellId> ids_;           ///< Ascending.
  std::vector<std::uint32_t> ranks_;  ///< Aligned with ids_.
  std::vector<std::uint32_t> dir_;    ///< Bucket → first index into ids_.
  CellId min_ = 0;
  int shift_ = 0;
};

/// Machine m's oriented CSR over the broadcast rank table.
void MaterializeCsr(const MachineCapture& captured, const RankLookup& ranks,
                    GraphSnapshot* view) {
  // Keep only the captures the coordinator attributed to us (a duplicate
  // claim keeps one owner so every rank has exactly one CSR row
  // cluster-wide), in ascending rank order.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> rows;  // (rank, i)
  rows.reserve(captured.size());
  for (std::size_t i = 0; i < captured.size(); ++i) {
    const std::uint32_t rank = ranks.Find(captured.ids[i]);
    if (rank == RankLookup::kNoRank) continue;
    if (view->owner_by_rank[rank] != view->machine) continue;
    rows.emplace_back(rank, static_cast<std::uint32_t>(i));
  }
  std::sort(rows.begin(), rows.end());
  view->local_index.assign(view->num_vertices(), GraphSnapshot::kNotLocal);
  view->local_ranks.reserve(rows.size());
  view->offsets.reserve(rows.size() + 1);
  view->offsets.push_back(0);
  for (const auto& [rank, i] : rows) {
    const std::size_t start = view->adjacency.size();
    for (CellId nb : captured.Neighbors(i)) {
      // Neighbors with no rank were never captured (e.g. a dangling edge
      // or a node added after the freeze) — the frozen view drops them.
      // Ids are distinct, so the kept ranks are too.
      const std::uint32_t r = ranks.Find(nb);
      if (r < rank) view->adjacency.push_back(r);
    }
    std::sort(view->adjacency.begin() + static_cast<std::ptrdiff_t>(start),
              view->adjacency.end());
    view->local_index[rank] =
        static_cast<std::uint32_t>(view->local_ranks.size());
    view->local_ranks.push_back(rank);
    view->offsets.push_back(view->adjacency.size());
  }
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

  // Every machine scans its own trunks and later materializes its own CSR,
  // all at once; a per-call pool keeps no threads (or their malloc arenas)
  // alive between builds.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  ThreadPool pool(std::max(1, std::min(hw, slaves)));
  std::vector<Status> machine_status(slaves);

  // Phase 1: frozen per-machine scans (lock-free read path).
  std::vector<MachineCapture> captured(slaves);
  pool.ParallelFor(slaves, [&](int m) {
    net::Fabric::MeterScope meter(fabric, m);
    machine_status[m] = ScanMachine(graph, cloud, m, &captured[m]);
  });
  for (const Status& s : machine_status) {
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
    const MachineCapture& capture = captured[m];
    if (capture.size() == 0) continue;
    if (m == coord) {
      for (std::size_t i = 0; i < capture.size(); ++i) {
        merged.push_back({capture.ids[i], capture.Degree(i), m});
      }
      continue;
    }
    std::string buf;
    for (std::size_t i = 0; i < capture.size(); ++i) {
      const std::uint32_t degree = capture.Degree(i);
      compute::AppendPackedRecord(
          &buf, capture.ids[i],
          Slice(reinterpret_cast<const char*>(&degree), 4));
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
  const RankLookup ranks((*views)[coord].id_by_rank);
  pool.ParallelFor(slaves, [&](int m) {
    net::Fabric::MeterScope meter(fabric, m);
    MaterializeCsr(captured[m], ranks, &(*views)[m]);
  });
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
