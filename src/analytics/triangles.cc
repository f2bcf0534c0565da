#include "analytics/triangles.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <unordered_map>

#include "analytics/intersect.h"
#include "cloud/memory_cloud.h"
#include "compute/packed_messages.h"
#include "net/fabric.h"

namespace trinity::analytics {

void TriangleStats::Merge(const TriangleStats& other) {
  triangles += other.triangles;
  merge.Merge(other.merge);
  gallop.Merge(other.gallop);
  probe.Merge(other.probe);
  bitmap_and.Merge(other.bitmap_and);
  bitmap_builds += other.bitmap_builds;
  bitmap_build_ops += other.bitmap_build_ops;
  boundary_calls += other.boundary_calls;
  boundary_lists += other.boundary_lists;
  boundary_bytes += other.boundary_bytes;
  exchange_ms += other.exchange_ms;
  count_ms += other.count_ms;
}

namespace {

/// Resolves oriented lists for one machine's counting pass: local lists out
/// of the view's CSR, boundary lists out of the pool fetched during the
/// exchange. Read-only during the parallel loop.
struct ListResolver {
  const GraphSnapshot* view;
  std::vector<std::uint32_t> fetched;  ///< Boundary lists, concatenated.
  /// Rank → (offset, length) into `fetched`.
  std::unordered_map<std::uint32_t, std::pair<std::uint64_t, std::uint32_t>>
      remote;

  const std::uint32_t* ListOf(std::uint32_t rank, std::uint32_t* len) const {
    const std::uint32_t li = view->local_index[rank];
    if (li != GraphSnapshot::kNotLocal) {
      const std::span<const std::uint32_t> list = view->List(li);
      *len = static_cast<std::uint32_t>(list.size());
      return list.data();
    }
    auto it = remote.find(rank);
    if (it == remote.end()) {
      *len = 0;
      return nullptr;
    }
    *len = it->second.second;
    return fetched.data() + it->second.first;
  }
};

/// Packed hub bitmaps, allocated on demand for *built* ranks below
/// `hub_ranks`. An oriented list of rank r only holds ranks < r, so r's
/// bitmap is sized to (r+63)/64 words — hubs (low rank) get tiny bitmaps,
/// which is what makes the AND so cheap on hub-hub pairs. Ranks with short
/// lists are never built: a bitmap only pays for itself when the probes it
/// serves save more than the build spent, and power-law hubs with short
/// oriented lists fail that test.
struct HubBitmaps {
  static constexpr std::uint32_t kNotBuilt = ~static_cast<std::uint32_t>(0);

  std::uint32_t hub_ranks = 0;
  std::vector<std::uint64_t> bits;      ///< Built bitmaps, concatenated.
  std::vector<std::uint32_t> offset;    ///< Rank → word offset into `bits`.

  const std::uint64_t* Of(std::uint32_t rank) const {
    return bits.data() + offset[rank];
  }
  bool Built(std::uint32_t rank) const {
    return rank < hub_ranks && offset[rank] != kNotBuilt;
  }
};

/// The per-pair kernel dispatch. `prefix` is A+(v)[0..j) (every common
/// element is < u = A+(v)[j], so the prefix is the whole v-side input) and
/// `b` is A+(u).
std::uint64_t CountPair(const TriangleOptions& options, const HubBitmaps& bm,
                        std::uint32_t v, std::uint32_t u,
                        const std::uint32_t* prefix, std::uint32_t na,
                        const std::uint32_t* b, std::uint32_t nb,
                        TriangleStats* stats) {
  const auto record = [&](KernelStats* k, std::uint64_t hits) {
    ++k->intersections;
    k->smaller_len.Add(static_cast<double>(std::min(na, nb)));
    return hits;
  };
  const bool u_resident = bm.Built(u);
  const bool v_resident = bm.Built(v);
  switch (options.kernel) {
    case IntersectKernel::kMerge:
      return record(&stats->merge,
                    IntersectMerge(prefix, na, b, nb, &stats->merge.comparisons));
    case IntersectKernel::kGalloping:
      return record(
          &stats->gallop,
          IntersectGalloping(prefix, na, b, nb, &stats->gallop.comparisons));
    case IntersectKernel::kBitmap:
      if (u_resident && v_resident) {
        const std::uint32_t words = (u + 63) >> 6;
        return record(&stats->bitmap_and,
                      IntersectBitmapWords(bm.Of(v), bm.Of(u), words,
                                           &stats->bitmap_and.comparisons));
      }
      if (u_resident) {
        return record(&stats->probe,
                      IntersectBitmapProbe(prefix, na, bm.Of(u),
                                           &stats->probe.comparisons));
      }
      return record(&stats->merge,
                    IntersectMerge(prefix, na, b, nb, &stats->merge.comparisons));
    case IntersectKernel::kAdaptive:
      break;
  }
  // Adaptive fast path: a pair whose lists total a couple dozen elements
  // costs less to serve than to model — the selection logic below would
  // spend comparable work choosing. A resident hub u still takes the probe
  // (pays na instead of na+nb) or the AND when it scans fewer words than
  // the probe would scan elements; everything else merges.
  constexpr std::uint32_t kTinyPair = 24;
  if (na + nb <= kTinyPair) {
    if (u_resident) {
      const std::uint32_t words = (u + 63) >> 6;
      if (v_resident && words < na) {
        return record(&stats->bitmap_and,
                      IntersectBitmapWords(bm.Of(v), bm.Of(u), words,
                                           &stats->bitmap_and.comparisons));
      }
      return record(&stats->probe,
                    IntersectBitmapProbe(prefix, na, bm.Of(u),
                                         &stats->probe.comparisons));
    }
    return record(&stats->merge,
                  IntersectMerge(prefix, na, b, nb, &stats->merge.comparisons));
  }
  // Adaptive: pick the cheapest kernel by its predicted work. Merge walks
  // both lists; galloping pays ~log(larger/smaller + 1) probes per element
  // of the smaller list (worth it only past gallop_skew); a resident hub u
  // turns the pair into a probe paying only the v-prefix; a bitmap AND pays
  // one op per 64 ranks below u regardless of list lengths — a win only on
  // rows dense relative to their rank width.
  const double cost_merge = static_cast<double>(na) + static_cast<double>(nb);
  const std::uint32_t smaller = std::min(na, nb);
  const std::uint32_t larger = std::max(na, nb);
  double cost_gallop = cost_merge + 1;
  if (smaller > 0 &&
      static_cast<double>(smaller) * options.gallop_skew <=
          static_cast<double>(larger)) {
    cost_gallop =
        static_cast<double>(smaller) *
        (std::bit_width(static_cast<std::uint32_t>(larger / smaller)) + 1);
  }
  const double cost_probe =
      u_resident ? static_cast<double>(na) : cost_merge + 1;
  const double cost_and = (u_resident && v_resident)
                              ? static_cast<double>((u + 63) >> 6)
                              : cost_merge + 1;
  const double best =
      std::min(std::min(cost_merge, cost_gallop), std::min(cost_probe, cost_and));
  if (cost_and == best) {
    const std::uint32_t words = (u + 63) >> 6;
    return record(&stats->bitmap_and,
                  IntersectBitmapWords(bm.Of(v), bm.Of(u), words,
                                       &stats->bitmap_and.comparisons));
  }
  if (cost_probe == best) {
    return record(&stats->probe,
                  IntersectBitmapProbe(prefix, na, bm.Of(u),
                                       &stats->probe.comparisons));
  }
  if (cost_gallop == best) {
    return record(
        &stats->gallop,
        IntersectGalloping(prefix, na, b, nb, &stats->gallop.comparisons));
  }
  return record(&stats->merge,
                IntersectMerge(prefix, na, b, nb, &stats->merge.comparisons));
}

/// Cost-weighted shards over one view's local vertices. The cost of vertex
/// v is its exact pair work Σ (1 + min(j, |A+(u)|)) — what keeps power-law
/// hubs from serializing one pool worker.
std::vector<ThreadPool::Shard> PairCostShards(const ListResolver& resolver,
                                              ThreadPool* pool) {
  const GraphSnapshot& view = *resolver.view;
  const auto num_local = static_cast<int>(view.num_local());
  std::vector<double> costs(num_local);
  for (int i = 0; i < num_local; ++i) {
    const std::span<const std::uint32_t> list =
        view.List(static_cast<std::size_t>(i));
    double c = 1.0;
    for (std::uint32_t j = 0; j < list.size(); ++j) {
      std::uint32_t nb = 0;
      resolver.ListOf(list[j], &nb);
      c += 1.0 + std::min<double>(j, nb);
    }
    costs[i] = c;
  }
  return ThreadPool::SplitWeighted(
      num_local, [&costs](int i) { return costs[i]; },
      pool->num_threads() * 4);
}

/// The oriented enumeration that counting and per-edge support share: for
/// every local v and every u = A+(v)[j] with j > 0 and A+(u) non-empty,
/// pair_fn(shard, v, u, prefix, j, A+(u), |A+(u)|) where the prefix is
/// A+(v)[0..j) — every common element is < u, so the prefix is the whole
/// v-side input and a match at prefix position p is edge offsets[v] + p.
template <typename PairFn>
void ForEachOrientedPair(const ListResolver& resolver, ThreadPool* pool,
                         const std::vector<ThreadPool::Shard>& shards,
                         const PairFn& pair_fn) {
  const GraphSnapshot& view = *resolver.view;
  pool->ParallelForShards(shards, [&](int shard, int begin, int end) {
    for (int i = begin; i < end; ++i) {
      const std::uint32_t v = view.local_ranks[i];
      const std::span<const std::uint32_t> list =
          view.List(static_cast<std::size_t>(i));
      for (std::uint32_t j = 1; j < list.size(); ++j) {
        const std::uint32_t u = list[j];
        std::uint32_t nb = 0;
        const std::uint32_t* b = resolver.ListOf(u, &nb);
        if (nb == 0) continue;
        pair_fn(shard, v, u, list.data(), j, b, nb);
      }
    }
  });
}

/// Counts one machine's share: every (v, u ∈ A+(v)) pair with v local.
/// Dispatches the vertex loop in cost-weighted shards; each shard
/// accumulates into its own TriangleStats, merged after the barrier.
void CountView(const TriangleOptions& options, ThreadPool* pool,
               const ListResolver& resolver, TriangleStats* stats) {
  const GraphSnapshot& view = *resolver.view;
  const auto num_local = static_cast<int>(view.num_local());
  if (num_local == 0) return;

  // Hub bitmaps: materialize resident ranks whose oriented list is long
  // enough to amortize the build AND that enough local pairs will actually
  // probe — a bitmap's build cost is paid per machine, so a hub that only a
  // handful of this machine's pairs reference is cheaper to merge/gallop
  // against. (At 8 machines each view sees ~1/8 of a hub's references;
  // without the reference gate every machine rebuilds every fetched hub's
  // bitmap and the build work swamps the probes it serves.)
  constexpr std::uint32_t kMinBitmapListLen = 8;
  constexpr std::uint32_t kMinBitmapRefs = 2;
  HubBitmaps bm;
  if (options.kernel == IntersectKernel::kBitmap ||
      options.kernel == IntersectKernel::kAdaptive) {
    bm.hub_ranks = std::min(options.hub_ranks, view.num_vertices());
    bm.offset.assign(bm.hub_ranks, HubBitmaps::kNotBuilt);
    std::vector<std::uint32_t> refs(bm.hub_ranks, 0);
    for (const std::uint32_t u : view.adjacency) {
      if (u < bm.hub_ranks) ++refs[u];
    }
    for (std::uint32_t r = 0; r < bm.hub_ranks; ++r) {
      std::uint32_t len = 0;
      const std::uint32_t* list = resolver.ListOf(r, &len);
      if (list == nullptr || len < kMinBitmapListLen ||
          refs[r] < kMinBitmapRefs) {
        continue;
      }
      bm.offset[r] = static_cast<std::uint32_t>(bm.bits.size());
      bm.bits.resize(bm.bits.size() + ((r + 63) >> 6), 0);
      std::uint64_t* words = bm.bits.data() + bm.offset[r];
      for (std::uint32_t i = 0; i < len; ++i) {
        words[list[i] >> 6] |= 1ull << (list[i] & 63);
      }
      ++stats->bitmap_builds;
      stats->bitmap_build_ops += len;
    }
  }

  const std::vector<ThreadPool::Shard> shards = PairCostShards(resolver, pool);
  std::vector<TriangleStats> shard_stats(shards.size());
  ForEachOrientedPair(
      resolver, pool, shards,
      [&](int shard, std::uint32_t v, std::uint32_t u, const std::uint32_t* a,
          std::uint32_t na, const std::uint32_t* b, std::uint32_t nb) {
        TriangleStats& local = shard_stats[shard];
        local.triangles += CountPair(options, bm, v, u, a, na, b, nb, &local);
      });
  for (const TriangleStats& s : shard_stats) {
    // Bitmap build work was already recorded once outside the shards.
    stats->Merge(s);
  }
}

}  // namespace

TriangleCounter::TriangleCounter(graph::Graph* graph, TriangleOptions options)
    : graph_(graph), options_(options), pool_(std::make_unique<ThreadPool>(options.num_threads)) {}

TriangleCounter::TriangleCounter(graph::Graph* graph)
    : TriangleCounter(graph, TriangleOptions()) {}

Status TriangleCounter::Count(const std::vector<GraphSnapshot>& views,
                              TriangleStats* out) {
  *out = TriangleStats();
  cloud::MemoryCloud* cloud = graph_->cloud();
  net::Fabric& fabric = cloud->fabric();
  const int slaves = cloud->num_slaves();
  if (static_cast<int>(views.size()) != slaves) {
    return Status::InvalidArgument("one snapshot view per slave expected");
  }

  // Boundary-list server: answers one pull per requesting machine with the
  // oriented lists of the ranks it asked for. Request: [u32 rank]*; response:
  // packed [rank][len][ranks...] records.
  net::Fabric::RunScope run(fabric);
  for (MachineId m = 0; m < slaves; ++m) {
    const GraphSnapshot* view = &views[m];
    fabric.RegisterSyncHandler(
        m, run.handler,
        [view](MachineId, Slice request, std::string* response) {
          if (request.size() % 4 != 0) {
            return Status::InvalidArgument("malformed boundary request");
          }
          const std::size_t count = request.size() / 4;
          for (std::size_t i = 0; i < count; ++i) {
            std::uint32_t rank = 0;
            std::memcpy(&rank, request.data() + i * 4, 4);
            Slice body("");
            if (rank < view->local_index.size() &&
                view->local_index[rank] != GraphSnapshot::kNotLocal) {
              const std::span<const std::uint32_t> list =
                  view->List(view->local_index[rank]);
              if (!list.empty()) {
                body = Slice(reinterpret_cast<const char*>(list.data()),
                             list.size() * 4);
              }
            }
            compute::AppendPackedRecord(response, rank, body);
          }
          return Status::OK();
        });
  }

  for (MachineId m = 0; m < slaves; ++m) {
    const GraphSnapshot& view = views[m];
    if (view.machine != m) {
      return Status::InvalidArgument("snapshot views out of order");
    }
    TriangleStats machine_stats;
    ListResolver resolver;
    resolver.view = &view;

    // Boundary exchange: the distinct remote ranks this machine's oriented
    // lists reference, grouped by owner — fetched once per (m, owner) pair.
    Stopwatch exchange_watch;
    {
      net::Fabric::MeterScope meter(fabric, m);
      std::vector<char> needed(view.num_vertices(), 0);
      for (const std::uint32_t u : view.adjacency) {
        if (view.local_index[u] == GraphSnapshot::kNotLocal) needed[u] = 1;
      }
      std::vector<std::vector<std::uint32_t>> per_owner(slaves);
      for (std::uint32_t r = 0; r < view.num_vertices(); ++r) {
        if (needed[r] == 0) continue;
        const MachineId owner = view.owner_by_rank[r];
        if (owner < 0 || owner >= slaves || owner == m) continue;
        per_owner[owner].push_back(r);
      }
      for (MachineId dst = 0; dst < slaves; ++dst) {
        if (per_owner[dst].empty()) continue;
        std::string request(per_owner[dst].size() * 4, '\0');
        std::memcpy(request.data(), per_owner[dst].data(), request.size());
        std::string response;
        Status s = fabric.Call(m, dst, run.handler, Slice(request),
                               &response, &run.ctx);
        if (!s.ok()) return s;
        ++machine_stats.boundary_calls;
        machine_stats.boundary_bytes += request.size() + response.size();
        const bool parsed = compute::ForEachPackedRecord(
            Slice(response), [&resolver](CellId rank, Slice body) {
              const std::uint64_t offset = resolver.fetched.size();
              resolver.fetched.resize(offset + body.size() / 4);
              if (!body.empty()) {
                std::memcpy(resolver.fetched.data() + offset, body.data(),
                            body.size());
              }
              resolver.remote.emplace(
                  static_cast<std::uint32_t>(rank),
                  std::make_pair(offset,
                                 static_cast<std::uint32_t>(body.size() / 4)));
            });
        if (!parsed) return Status::Corruption("malformed boundary response");
        machine_stats.boundary_lists += per_owner[dst].size();
      }
    }
    machine_stats.exchange_ms = exchange_watch.ElapsedMillis();

    Stopwatch count_watch;
    {
      net::Fabric::MeterScope meter(fabric, m);
      CountView(options_, pool_.get(), resolver, &machine_stats);
    }
    machine_stats.count_ms = count_watch.ElapsedMillis();
    out->Merge(machine_stats);
  }
  return Status::OK();
}

Status TriangleCounter::CountLocal(const GraphSnapshot& snapshot,
                                   TriangleStats* out) {
  *out = TriangleStats();
  if (snapshot.num_local() != snapshot.num_vertices()) {
    return Status::InvalidArgument(
        "CountLocal needs a full snapshot (BuildGlobal)");
  }
  ListResolver resolver;
  resolver.view = &snapshot;
  Stopwatch watch;
  CountView(options_, pool_.get(), resolver, out);
  out->count_ms = watch.ElapsedMillis();
  return Status::OK();
}

Status CountEdgeSupport(const GraphSnapshot& snapshot,
                        const TriangleOptions& options,
                        std::vector<std::uint32_t>* support) {
  if (snapshot.num_local() != snapshot.num_vertices()) {
    return Status::InvalidArgument(
        "edge support needs a full snapshot (BuildGlobal)");
  }
  support->assign(snapshot.adjacency.size(), 0);
  ListResolver resolver;
  resolver.view = &snapshot;
  const auto pool = std::make_unique<ThreadPool>(options.num_threads);
  const double skew = options.gallop_skew;
  const std::uint64_t* offsets = snapshot.offsets.data();
  std::uint32_t* sup = support->data();
  // Rows are shared between shards (e_uw lands in u's row, which another
  // shard owns), so every bump is a relaxed atomic add.
  const auto bump = [sup](std::uint64_t e, std::uint32_t by) {
    std::atomic_ref<std::uint32_t>(sup[e]).fetch_add(
        by, std::memory_order_relaxed);
  };
  ForEachOrientedPair(
      resolver, pool.get(), PairCostShards(resolver, pool.get()),
      [&](int, std::uint32_t v, std::uint32_t u, const std::uint32_t* a,
          std::uint32_t na, const std::uint32_t* b, std::uint32_t nb) {
        // Full snapshot: rank == local index, so offsets[rank] is the row.
        const std::uint64_t row_v = offsets[v];
        const std::uint64_t row_u = offsets[u];
        std::uint64_t comparisons = 0;
        const std::uint64_t hits = IntersectEach(
            a, na, b, nb, skew, &comparisons,
            [&](std::size_t p, std::size_t q) {
              bump(row_v + p, 1);  // e_vw
              bump(row_u + q, 1);  // e_uw
            });
        // e_vu sits at prefix length j = na in v's row.
        if (hits > 0) bump(row_v + na, static_cast<std::uint32_t>(hits));
      });
  return Status::OK();
}

Status TriangleCounter::CountFromCells(TriangleStats* out,
                                       SnapshotBuilder::BuildStats* build) {
  std::vector<GraphSnapshot> views;
  Status s = SnapshotBuilder::Build(graph_, &views, build);
  if (!s.ok()) return s;
  return Count(views, out);
}

Status CountTrianglesNaive(graph::Graph* graph, std::uint64_t* count,
                           std::uint64_t* cells_fetched) {
  cloud::MemoryCloud* cloud = graph->cloud();
  std::vector<CellId> ids;
  for (MachineId m = 0; m < cloud->num_slaves(); ++m) {
    std::vector<CellId> local = graph->LocalNodes(m);
    ids.insert(ids.end(), local.begin(), local.end());
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

  // One cloud fetch per cell — the access pattern the snapshot exists to
  // avoid. The undirected edge set is re-derived from out-edges alone, so
  // the anchor shares no code path with the snapshot's in∪out capture.
  std::unordered_map<CellId, std::vector<CellId>> adj;
  adj.reserve(ids.size());
  for (CellId id : ids) adj.emplace(id, std::vector<CellId>());
  std::uint64_t fetched = 0;
  for (CellId id : ids) {
    std::string blob;
    Status s = cloud->GetCell(id, &blob);
    if (s.IsNotFound()) continue;
    if (!s.ok()) return s;
    ++fetched;
    graph::NodeImage node;
    s = graph::Graph::DecodeNode(id, Slice(blob), &node);
    if (!s.ok()) return s;
    for (CellId to : node.out) {
      if (to == id) continue;
      auto it = adj.find(to);
      if (it == adj.end()) continue;  // Dangling edge: no such node.
      adj[id].push_back(to);
      it->second.push_back(id);
    }
  }
  for (auto& [id, neighbors] : adj) {
    std::sort(neighbors.begin(), neighbors.end());
    neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                    neighbors.end());
  }

  // Id-ordered count: triangle {u < v < w} found at pair (u, v) by the
  // suffix intersection beyond v.
  std::uint64_t total = 0;
  for (CellId u : ids) {
    const std::vector<CellId>& nu = adj[u];
    for (CellId v : nu) {
      if (v <= u) continue;
      const std::vector<CellId>& nv = adj[v];
      auto iu = std::upper_bound(nu.begin(), nu.end(), v);
      auto iv = std::upper_bound(nv.begin(), nv.end(), v);
      while (iu != nu.end() && iv != nv.end()) {
        if (*iu == *iv) {
          ++total;
          ++iu;
          ++iv;
        } else if (*iu < *iv) {
          ++iu;
        } else {
          ++iv;
        }
      }
    }
  }
  *count = total;
  if (cells_fetched != nullptr) *cells_fetched = fetched;
  return Status::OK();
}

}  // namespace trinity::analytics
