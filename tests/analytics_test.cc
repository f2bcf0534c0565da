#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "analytics/graph_snapshot.h"
#include "analytics/intersect.h"
#include "analytics/ktruss.h"
#include "analytics/triangles.h"
#include "common/hash.h"
#include "graph/generators.h"
#include "graph/graph.h"

namespace trinity::analytics {
namespace {

std::unique_ptr<cloud::MemoryCloud> NewCloud(int slaves = 4) {
  cloud::MemoryCloud::Options options;
  options.num_slaves = slaves;
  options.p_bits = 4;
  options.storage.trunk.capacity = 4 << 20;
  std::unique_ptr<cloud::MemoryCloud> cloud;
  EXPECT_TRUE(cloud::MemoryCloud::Create(options, &cloud).ok());
  return cloud;
}

void LoadEdges(graph::Graph* graph,
               const std::vector<std::pair<CellId, CellId>>& edges) {
  graph::Generators::EdgeList list;
  for (const auto& [a, b] : edges) {
    list.num_nodes = std::max({list.num_nodes, a + 1, b + 1});
  }
  list.edges = edges;
  ASSERT_TRUE(graph::Generators::Load(graph, list, false).ok());
}

// ---------------------------------------------------------------------------
// Intersection kernels
// ---------------------------------------------------------------------------

TEST(IntersectTest, KernelsAgreeOnRandomSets) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t na = rng() % 60;
    const std::size_t nb = rng() % 200;
    std::set<std::uint32_t> sa;
    std::set<std::uint32_t> sb;
    while (sa.size() < na) sa.insert(static_cast<std::uint32_t>(rng() % 256));
    while (sb.size() < nb) sb.insert(static_cast<std::uint32_t>(rng() % 256));
    const std::vector<std::uint32_t> a(sa.begin(), sa.end());
    const std::vector<std::uint32_t> b(sb.begin(), sb.end());
    std::vector<std::uint32_t> expect;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(expect));

    std::uint64_t cmp = 0;
    EXPECT_EQ(IntersectMerge(a.data(), a.size(), b.data(), b.size(), &cmp),
              expect.size());
    EXPECT_EQ(IntersectGalloping(a.data(), a.size(), b.data(), b.size(), &cmp),
              expect.size());
    std::vector<std::uint64_t> bitmap(4, 0);  // 256 bits.
    for (std::uint32_t x : b) bitmap[x >> 6] |= 1ull << (x & 63);
    EXPECT_EQ(IntersectBitmapProbe(a.data(), a.size(), bitmap.data(), &cmp),
              expect.size());
    std::vector<std::uint64_t> bitmap_a(4, 0);
    for (std::uint32_t x : a) bitmap_a[x >> 6] |= 1ull << (x & 63);
    EXPECT_EQ(IntersectBitmapWords(bitmap_a.data(), bitmap.data(), 4, &cmp),
              expect.size());
  }
}

TEST(IntersectTest, GallopingBeatsMergeOnSkew) {
  // 8-element list intersecting a 100k-element list: galloping's probe count
  // must be far below merge's linear walk.
  std::vector<std::uint32_t> small;
  std::vector<std::uint32_t> large;
  for (std::uint32_t i = 0; i < 100000; ++i) large.push_back(i * 2);
  for (std::uint32_t i = 0; i < 8; ++i) small.push_back(i * 24000);
  std::uint64_t merge_cmp = 0;
  std::uint64_t gallop_cmp = 0;
  const std::uint64_t hits_merge = IntersectMerge(
      small.data(), small.size(), large.data(), large.size(), &merge_cmp);
  const std::uint64_t hits_gallop = IntersectGalloping(
      small.data(), small.size(), large.data(), large.size(), &gallop_cmp);
  EXPECT_EQ(hits_merge, hits_gallop);
  EXPECT_LT(gallop_cmp * 10, merge_cmp);
}

TEST(IntersectTest, PositionKernelsReportEveryMatchSlot) {
  // The position-emitting kernels must name each match's slot in both lists
  // (in the caller's argument order, whichever side galloping probes from)
  // and charge exactly the work of their counting forms.
  std::mt19937_64 rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    std::set<std::uint32_t> sa;
    std::set<std::uint32_t> sb;
    const std::size_t na = rng() % 40;
    const std::size_t nb = rng() % 300;
    while (sa.size() < na) sa.insert(static_cast<std::uint32_t>(rng() % 512));
    while (sb.size() < nb) sb.insert(static_cast<std::uint32_t>(rng() % 512));
    std::vector<std::uint32_t> a(sa.begin(), sa.end());
    std::vector<std::uint32_t> b(sb.begin(), sb.end());
    if (trial % 2 == 1) std::swap(a, b);  // Longer list first, too.
    std::vector<std::pair<std::size_t, std::size_t>> expect;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const auto it = std::lower_bound(b.begin(), b.end(), a[i]);
      if (it != b.end() && *it == a[i]) expect.emplace_back(i, it - b.begin());
    }
    std::uint64_t merge_cmp = 0;
    std::uint64_t gallop_cmp = 0;
    std::uint64_t count_cmp = 0;
    std::vector<std::pair<std::size_t, std::size_t>> merged;
    std::vector<std::pair<std::size_t, std::size_t>> galloped;
    EXPECT_EQ(IntersectMergeEach(a.data(), a.size(), b.data(), b.size(),
                                 &merge_cmp,
                                 [&](std::size_t i, std::size_t j) {
                                   merged.emplace_back(i, j);
                                 }),
              expect.size());
    EXPECT_EQ(IntersectGallopingEach(a.data(), a.size(), b.data(), b.size(),
                                     &gallop_cmp,
                                     [&](std::size_t i, std::size_t j) {
                                       galloped.emplace_back(i, j);
                                     }),
              expect.size());
    EXPECT_EQ(merged, expect);
    EXPECT_EQ(galloped, expect);
    IntersectMerge(a.data(), a.size(), b.data(), b.size(), &count_cmp);
    EXPECT_EQ(merge_cmp, count_cmp);
    count_cmp = 0;
    IntersectGalloping(a.data(), a.size(), b.data(), b.size(), &count_cmp);
    EXPECT_EQ(gallop_cmp, count_cmp);
  }
}

TEST(IntersectTest, DispatchedPopcountMatchesScalar) {
  // Whatever body IntersectBitmapWords picked at startup (AVX2 when the CPU
  // has it) must agree with the scalar reference on every width incl. tails.
  std::mt19937_64 rng(13);
  for (std::size_t words = 0; words <= 19; ++words) {
    std::vector<std::uint64_t> a(words + 1);
    std::vector<std::uint64_t> b(words + 1);
    for (std::size_t i = 0; i < words; ++i) {
      a[i] = rng();
      b[i] = rng();
    }
    std::uint64_t cmp = 0;
    EXPECT_EQ(IntersectBitmapWords(a.data(), b.data(), words, &cmp),
              AndPopcountScalar(a.data(), b.data(), words))
        << "words=" << words << " avx2=" << BitmapKernelUsesAvx2();
  }
}

// ---------------------------------------------------------------------------
// GraphSnapshot
// ---------------------------------------------------------------------------

TEST(GraphSnapshotTest, DegreeOrderedOrientedCsr) {
  auto cloud = NewCloud(2);
  graph::Graph graph(cloud.get());
  // Star around 10 plus a triangle 1-2-3: degrees 10:4, 1:3, 2:3, 3:2, 4:1.
  LoadEdges(&graph,
            {{10, 1}, {10, 2}, {10, 3}, {10, 4}, {1, 2}, {2, 3}, {3, 1}});
  std::vector<GraphSnapshot> views;
  ASSERT_TRUE(SnapshotBuilder::Build(&graph, &views).ok());
  ASSERT_EQ(views.size(), 2u);
  for (const GraphSnapshot& view : views) {
    ASSERT_TRUE(view.Validate().ok());
    // Load materializes every id in [0, 11): 5 connected + 6 isolated nodes.
    ASSERT_EQ(view.num_vertices(), 11u);
    // Rank order: degree desc, id asc. Degrees: 10→4, 1→3, 2→3, 3→3, 4→1.
    EXPECT_EQ(view.id_by_rank[0], 10u);
    EXPECT_EQ(view.degree_by_rank[0], 4u);
    EXPECT_EQ(view.id_by_rank[1], 1u);
    EXPECT_EQ(view.id_by_rank[2], 2u);
    EXPECT_EQ(view.id_by_rank[3], 3u);
    EXPECT_EQ(view.id_by_rank[4], 4u);
    // Global tables identical across views.
    EXPECT_EQ(view.id_by_rank, views[0].id_by_rank);
    EXPECT_EQ(view.degree_by_rank, views[0].degree_by_rank);
    EXPECT_EQ(view.owner_by_rank, views[0].owner_by_rank);
  }
  // Each undirected edge appears exactly once across all views.
  std::uint64_t oriented = 0;
  for (const GraphSnapshot& view : views) oriented += view.oriented_edges();
  EXPECT_EQ(oriented, 7u);
}

TEST(GraphSnapshotTest, GlobalGatherCoversEveryVertex) {
  auto cloud = NewCloud(4);
  graph::Graph graph(cloud.get());
  ASSERT_TRUE(graph::Generators::LoadRmat(&graph, 300, 4.0, 11).ok());
  GraphSnapshot snapshot;
  ASSERT_TRUE(SnapshotBuilder::BuildGlobal(&graph, &snapshot).ok());
  ASSERT_TRUE(snapshot.Validate().ok());
  EXPECT_EQ(snapshot.num_local(), snapshot.num_vertices());
  std::vector<GraphSnapshot> views;
  ASSERT_TRUE(SnapshotBuilder::Build(&graph, &views).ok());
  std::uint64_t distributed_edges = 0;
  for (const GraphSnapshot& view : views) {
    distributed_edges += view.oriented_edges();
  }
  EXPECT_EQ(snapshot.oriented_edges(), distributed_edges);
}

TEST(GraphSnapshotTest, RequiresInlinkTracking) {
  auto cloud = NewCloud(2);
  graph::Graph::Options options;
  options.track_inlinks = false;
  graph::Graph graph(cloud.get(), options);
  ASSERT_TRUE(graph.AddNode(1, Slice()).ok());
  std::vector<GraphSnapshot> views;
  EXPECT_TRUE(SnapshotBuilder::Build(&graph, &views).IsInvalidArgument());
}

TEST(GraphSnapshotTest, ImmutableUnderConcurrentWriters) {
  auto cloud = NewCloud(4);
  graph::Graph graph(cloud.get());
  const std::uint64_t base_nodes = 200;
  ASSERT_TRUE(graph::Generators::LoadRmat(&graph, base_nodes, 3.0, 5).ok());

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::mt19937_64 rng(99);
    CellId next = base_nodes;
    while (!stop.load(std::memory_order_relaxed)) {
      const CellId id = next++;
      (void)graph.AddNode(id, Slice("w"));
      (void)graph.AddEdge(id, rng() % base_nodes);
      (void)graph.AddEdge(rng() % base_nodes, id);
    }
  });

  // Views built *while* the writer mutates cells must still be internally
  // consistent, and rebuilding from a frozen view must not observe later
  // writes (the vectors are plain data; nothing aliases trunk memory).
  for (int round = 0; round < 5; ++round) {
    std::vector<GraphSnapshot> views;
    ASSERT_TRUE(SnapshotBuilder::Build(&graph, &views).ok());
    for (const GraphSnapshot& view : views) {
      ASSERT_TRUE(view.Validate().ok());
    }
    const std::uint64_t before = views[0].num_vertices();
    TriangleCounter counter(&graph, TriangleOptions{});
    TriangleStats stats;
    ASSERT_TRUE(counter.Count(views, &stats).ok());
    EXPECT_EQ(views[0].num_vertices(), before);
  }
  stop.store(true);
  writer.join();

  // Quiescent rebuild agrees with the naive anchor.
  std::vector<GraphSnapshot> views;
  ASSERT_TRUE(SnapshotBuilder::Build(&graph, &views).ok());
  TriangleCounter counter(&graph, TriangleOptions{});
  TriangleStats stats;
  ASSERT_TRUE(counter.Count(views, &stats).ok());
  std::uint64_t naive = 0;
  ASSERT_TRUE(CountTrianglesNaive(&graph, &naive).ok());
  EXPECT_EQ(stats.triangles, naive);
}

TEST(GraphSnapshotTest, ParallelBuildIsDeterministic) {
  // Machines scan and materialize in parallel; the views, the exchange
  // traffic and the global gather must not depend on the interleaving.
  auto cloud = NewCloud(8);
  graph::Graph graph(cloud.get());
  ASSERT_TRUE(graph::Generators::Load(
                  &graph, graph::Generators::PowerLaw(1500, 8.0, 2.0, 17),
                  false)
                  .ok());
  std::vector<GraphSnapshot> first;
  SnapshotBuilder::BuildStats first_stats;
  ASSERT_TRUE(SnapshotBuilder::Build(&graph, &first, &first_stats).ok());
  ASSERT_EQ(first.size(), 8u);
  EXPECT_GT(first_stats.exchange_messages, 0u);
  for (int round = 0; round < 20; ++round) {
    std::vector<GraphSnapshot> views;
    SnapshotBuilder::BuildStats stats;
    ASSERT_TRUE(SnapshotBuilder::Build(&graph, &views, &stats).ok());
    ASSERT_EQ(views.size(), first.size());
    for (std::size_t m = 0; m < views.size(); ++m) {
      ASSERT_TRUE(views[m].Validate().ok());
      EXPECT_EQ(views[m].id_by_rank, first[m].id_by_rank) << "m=" << m;
      EXPECT_EQ(views[m].owner_by_rank, first[m].owner_by_rank) << "m=" << m;
      EXPECT_EQ(views[m].local_ranks, first[m].local_ranks) << "m=" << m;
      EXPECT_EQ(views[m].offsets, first[m].offsets) << "m=" << m;
      EXPECT_EQ(views[m].adjacency, first[m].adjacency) << "m=" << m;
    }
    EXPECT_EQ(stats.exchange_messages, first_stats.exchange_messages);
    EXPECT_EQ(stats.exchange_bytes, first_stats.exchange_bytes);
  }

  // BuildGlobal's rows are exactly the per-machine rows.
  GraphSnapshot global;
  ASSERT_TRUE(SnapshotBuilder::BuildGlobal(&graph, &global).ok());
  ASSERT_TRUE(global.Validate().ok());
  ASSERT_EQ(global.id_by_rank, first[0].id_by_rank);
  std::size_t rows = 0;
  for (const GraphSnapshot& view : first) {
    for (std::size_t i = 0; i < view.num_local(); ++i) {
      const std::span<const std::uint32_t> local = view.List(i);
      const std::span<const std::uint32_t> gathered =
          global.List(view.local_ranks[i]);
      EXPECT_TRUE(std::equal(local.begin(), local.end(), gathered.begin(),
                             gathered.end()))
          << "rank " << view.local_ranks[i];
      ++rows;
    }
  }
  EXPECT_EQ(rows, global.num_vertices());
}

// ---------------------------------------------------------------------------
// Triangle counting
// ---------------------------------------------------------------------------

TEST(TriangleTest, KnownSmallGraphs) {
  struct Case {
    std::vector<std::pair<CellId, CellId>> edges;
    std::uint64_t triangles;
  };
  const std::vector<Case> cases = {
      {{{1, 2}, {2, 3}}, 0},                              // Path.
      {{{1, 2}, {2, 3}, {3, 1}}, 1},                      // Triangle.
      {{{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}}, 4},  // K4.
      {{{1, 2}, {2, 3}, {3, 1}, {3, 4}, {4, 5}, {5, 3}}, 2},  // Two joined.
  };
  for (const Case& c : cases) {
    for (int slaves : {1, 3}) {
      auto cloud = NewCloud(slaves);
      graph::Graph graph(cloud.get());
      LoadEdges(&graph, c.edges);
      TriangleCounter counter(&graph, TriangleOptions{});
      TriangleStats stats;
      ASSERT_TRUE(counter.CountFromCells(&stats).ok());
      EXPECT_EQ(stats.triangles, c.triangles) << "slaves=" << slaves;
    }
  }
}

TEST(TriangleTest, AllKernelsMatchNaiveOnRmatAndPowerLaw) {
  // The acceptance gate: adaptive (and every fixed kernel) bit-matches the
  // cell-at-a-time naive counter on skewed graphs, on 1 and 8 machines.
  for (const std::uint64_t seed : {3u, 17u}) {
    for (const int slaves : {1, 8}) {
      for (const bool powerlaw : {false, true}) {
        auto cloud = NewCloud(slaves);
        graph::Graph graph(cloud.get());
        graph::Generators::EdgeList list =
            powerlaw ? graph::Generators::PowerLaw(400, 5.0, 2.2, seed)
                     : graph::Generators::Rmat(400, 5.0, seed);
        ASSERT_TRUE(graph::Generators::Load(&graph, list, false).ok());
        std::uint64_t naive = 0;
        std::uint64_t fetched = 0;
        ASSERT_TRUE(CountTrianglesNaive(&graph, &naive, &fetched).ok());
        EXPECT_GT(fetched, 0u);

        std::vector<GraphSnapshot> views;
        ASSERT_TRUE(SnapshotBuilder::Build(&graph, &views).ok());
        for (const IntersectKernel kernel :
             {IntersectKernel::kMerge, IntersectKernel::kGalloping,
              IntersectKernel::kBitmap, IntersectKernel::kAdaptive}) {
          TriangleOptions options;
          options.kernel = kernel;
          options.hub_ranks = 64;  // Force mixed resident/non-resident pairs.
          TriangleCounter counter(&graph, options);
          TriangleStats stats;
          ASSERT_TRUE(counter.Count(views, &stats).ok());
          EXPECT_EQ(stats.triangles, naive)
              << "kernel=" << static_cast<int>(kernel) << " slaves=" << slaves
              << " seed=" << seed << " powerlaw=" << powerlaw;
        }
      }
    }
  }
}

TEST(TriangleTest, AdaptiveBeatsMergeOnSkewedGraph) {
  auto cloud = NewCloud(1);
  graph::Graph graph(cloud.get());
  ASSERT_TRUE(graph::Generators::Load(
                  &graph, graph::Generators::PowerLaw(2000, 8.0, 2.1, 42),
                  false)
                  .ok());
  GraphSnapshot snapshot;
  ASSERT_TRUE(SnapshotBuilder::BuildGlobal(&graph, &snapshot).ok());

  TriangleOptions merge_only;
  merge_only.kernel = IntersectKernel::kMerge;
  TriangleCounter merge_counter(&graph, merge_only);
  TriangleStats merge_stats;
  ASSERT_TRUE(merge_counter.CountLocal(snapshot, &merge_stats).ok());

  TriangleCounter adaptive_counter(&graph, TriangleOptions{});
  TriangleStats adaptive_stats;
  ASSERT_TRUE(adaptive_counter.CountLocal(snapshot, &adaptive_stats).ok());

  EXPECT_EQ(adaptive_stats.triangles, merge_stats.triangles);
  // Comparisons are the hardware-independent scoreboard (1-core CI box):
  // bitmap builds included, adaptive must still do strictly less work.
  EXPECT_LT(adaptive_stats.total_comparisons(),
            merge_stats.total_comparisons());
  // And it actually routed pairs away from merge.
  EXPECT_GT(adaptive_stats.bitmap_and.intersections +
                adaptive_stats.probe.intersections +
                adaptive_stats.gallop.intersections,
            0u);
}

TEST(TriangleTest, BoundaryAdjacencyShippedOncePerMachinePair) {
  const int slaves = 4;
  auto cloud = NewCloud(slaves);
  graph::Graph graph(cloud.get());
  ASSERT_TRUE(graph::Generators::LoadRmat(&graph, 500, 6.0, 23).ok());
  std::vector<GraphSnapshot> views;
  ASSERT_TRUE(SnapshotBuilder::Build(&graph, &views).ok());

  TriangleCounter counter(&graph, TriangleOptions{});
  const std::uint64_t sync_before = cloud->fabric().stats().sync_calls;
  TriangleStats stats;
  ASSERT_TRUE(counter.Count(views, &stats).ok());
  const std::uint64_t sync_after = cloud->fabric().stats().sync_calls;

  // At most one pull per ordered machine pair, and the fabric agrees the
  // count() pass issued exactly those calls.
  EXPECT_LE(stats.boundary_calls,
            static_cast<std::uint64_t>(slaves) * (slaves - 1));
  EXPECT_EQ(sync_after - sync_before, stats.boundary_calls);
  EXPECT_GT(stats.boundary_bytes, 0u);

  // Re-running over the same frozen views ships exactly the same bytes —
  // nothing is re-fetched incrementally or cached stalely.
  TriangleStats stats2;
  ASSERT_TRUE(counter.Count(views, &stats2).ok());
  EXPECT_EQ(stats2.boundary_calls, stats.boundary_calls);
  EXPECT_EQ(stats2.boundary_bytes, stats.boundary_bytes);
  EXPECT_EQ(stats2.triangles, stats.triangles);
}

// ---------------------------------------------------------------------------
// k-truss
// ---------------------------------------------------------------------------

/// Brute-force reference: for each k, iteratively delete edges whose
/// remaining support is below k-2; survivors have trussness >= k.
std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t>
ReferenceTruss(const std::vector<std::pair<std::uint32_t, std::uint32_t>>&
                   undirected_edges) {
  std::set<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (auto [a, b] : undirected_edges) {
    if (a == b) continue;
    edges.insert({std::min(a, b), std::max(a, b)});
  }
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> truss;
  for (const auto& e : edges) truss[e] = 2;
  for (std::uint32_t k = 3; !edges.empty(); ++k) {
    std::set<std::pair<std::uint32_t, std::uint32_t>> current = edges;
    std::map<std::uint32_t, std::set<std::uint32_t>> adj;
    for (const auto& [a, b] : current) {
      adj[a].insert(b);
      adj[b].insert(a);
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (auto it = current.begin(); it != current.end();) {
        // Support: the w adjacent to both endpoints among current edges.
        const auto [a, b] = *it;
        std::uint32_t support = 0;
        for (const std::uint32_t w : adj[a]) support += adj[b].count(w);
        if (support < k - 2) {
          adj[a].erase(b);
          adj[b].erase(a);
          it = current.erase(it);
          changed = true;
        } else {
          ++it;
        }
      }
    }
    for (const auto& e : current) truss[e] = k;
    edges = current;
  }
  return truss;
}

/// Decomposes `list` loaded on `machines` slaves and checks every edge's
/// trussness against ReferenceTruss.
void ExpectMatchesReference(const graph::Generators::EdgeList& list,
                            int machines, KTrussStats* stats = nullptr) {
  auto cloud = NewCloud(machines);
  graph::Graph graph(cloud.get());
  ASSERT_TRUE(graph::Generators::Load(&graph, list, false).ok());
  GraphSnapshot snapshot;
  ASSERT_TRUE(SnapshotBuilder::BuildGlobal(&graph, &snapshot).ok());
  KTrussResult result;
  ASSERT_TRUE(KTrussDecompose(snapshot, &result, stats).ok());

  // Reference works on ranks so the edge keys line up.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::size_t e = 0; e < result.num_edges(); ++e) {
    edges.push_back({result.src[e], result.dst[e]});
  }
  const auto reference = ReferenceTruss(edges);
  ASSERT_EQ(reference.size(), result.num_edges());
  for (std::size_t e = 0; e < result.num_edges(); ++e) {
    const std::uint32_t a = result.src[e];
    const std::uint32_t b = result.dst[e];
    const auto key = std::make_pair(std::min(a, b), std::max(a, b));
    EXPECT_EQ(result.trussness[e], reference.at(key))
        << "edge " << a << "-" << b;
    EXPECT_EQ(result.TrussnessOf(a, b), result.trussness[e]);
    EXPECT_EQ(result.TrussnessOf(b, a), result.trussness[e]);
  }
}

TEST(KTrussTest, KnownSmallGraphs) {
  // K4: every edge in the 4-truss. Appended pendant edge stays at 2.
  auto cloud = NewCloud(2);
  graph::Graph graph(cloud.get());
  LoadEdges(&graph,
            {{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}, {4, 5}});
  GraphSnapshot snapshot;
  ASSERT_TRUE(SnapshotBuilder::BuildGlobal(&graph, &snapshot).ok());
  KTrussResult result;
  ASSERT_TRUE(KTrussDecompose(snapshot, &result).ok());
  EXPECT_EQ(result.num_edges(), 7u);
  EXPECT_EQ(result.max_trussness, 4u);
  EXPECT_EQ(result.triangles, 4u);

  std::map<CellId, std::uint32_t> rank_of;
  for (std::uint32_t r = 0; r < snapshot.num_vertices(); ++r) {
    rank_of[snapshot.id_by_rank[r]] = r;
  }
  for (auto [a, b] : std::vector<std::pair<CellId, CellId>>{
           {1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}}) {
    EXPECT_EQ(result.TrussnessOf(rank_of[a], rank_of[b]), 4u)
        << a << "-" << b;
  }
  EXPECT_EQ(result.TrussnessOf(rank_of[4], rank_of[5]), 2u);
}

TEST(KTrussTest, MatchesBruteForceReference) {
  for (const bool powerlaw : {false, true}) {
    for (const int machines : {1, 8}) {
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(::testing::Message()
                     << (powerlaw ? "powerlaw" : "rmat") << " machines="
                     << machines << " seed=" << seed);
        ExpectMatchesReference(
            powerlaw ? graph::Generators::PowerLaw(40, 4.0, 2.0, seed)
                     : graph::Generators::Rmat(40, 3.0, seed),
            machines);
      }
    }
  }
}

TEST(KTrussTest, MatchesBruteForceReferenceOnHubRows) {
  // Rows of degree >= 64 take the peel's bitmap path. Two adjacent hubs
  // fan out over cliques of 3..8 leaves: hub 1 reaches every leaf, hub 2
  // every other one, so edges between two hubs, hub and leaf, and two
  // leaves all close triangles at several trussness levels.
  graph::Generators::EdgeList fan;
  fan.edges = {{1, 2}};
  std::uint64_t leaf = 10;
  for (int clique = 0; leaf < 110; ++clique) {
    const std::uint64_t first = leaf;
    const std::uint64_t size = 3 + clique % 6;
    for (std::uint64_t a = first; a < first + size; ++a) {
      fan.edges.push_back({1, a});
      if (a % 2 == 0) fan.edges.push_back({a, 2});
      for (std::uint64_t b = a + 1; b < first + size; ++b) {
        fan.edges.push_back({a, b});
      }
    }
    leaf += size;
  }
  fan.num_nodes = leaf;
  // A few hundred vertices from each generator reach degree 64 too.
  const std::vector<std::pair<const char*, graph::Generators::EdgeList>>
      cases = {{"hub fan", fan},
               {"rmat", graph::Generators::Rmat(400, 6.0, 4)},
               {"powerlaw", graph::Generators::PowerLaw(400, 6.0, 2.0, 5)}};
  for (const auto& [name, list] : cases) {
    for (const int machines : {1, 8}) {
      SCOPED_TRACE(::testing::Message() << name << " machines=" << machines);
      KTrussStats stats;
      ExpectMatchesReference(list, machines, &stats);
      // A hub row has degree >= 64, so the bitmap path ran.
      EXPECT_GT(stats.hub_rows, 0u);
      EXPECT_GT(stats.bitmap_bytes, 0u);
    }
  }
}

TEST(KTrussTest, MidSizeSupportAndTrussInvariants) {
  auto cloud = NewCloud(8);
  graph::Graph graph(cloud.get());
  ASSERT_TRUE(graph::Generators::LoadRmat(&graph, 2000, 8.0, 23).ok());
  GraphSnapshot snapshot;
  ASSERT_TRUE(SnapshotBuilder::BuildGlobal(&graph, &snapshot).ok());
  TriangleCounter counter(&graph);
  TriangleStats local;
  ASSERT_TRUE(counter.CountLocal(snapshot, &local).ok());
  ASSERT_GT(local.triangles, 0u);

  // Σ support = 3 × triangles, and per-edge support is the common
  // neighbourhood of the edge's endpoints.
  std::vector<std::uint32_t> support;
  ASSERT_TRUE(CountEdgeSupport(snapshot, TriangleOptions(), &support).ok());
  ASSERT_EQ(support.size(), snapshot.oriented_edges());
  std::uint64_t sum = 0;
  for (const std::uint32_t x : support) sum += x;
  EXPECT_EQ(sum, 3 * local.triangles);

  KTrussResult result;
  KTrussStats stats;
  ASSERT_TRUE(KTrussDecompose(snapshot, &result, &stats).ok());
  EXPECT_EQ(result.triangles, local.triangles);
  EXPECT_GE(result.max_trussness, 4u);
  EXPECT_GE(stats.adjacency_ms, 0.0);
  EXPECT_GT(stats.support_ms + stats.peel_ms, 0.0);

  const std::uint32_t n = snapshot.num_vertices();
  std::vector<std::vector<std::uint32_t>> adj(n);
  for (std::size_t e = 0; e < result.num_edges(); ++e) {
    adj[result.src[e]].push_back(result.dst[e]);
    adj[result.dst[e]].push_back(result.src[e]);
  }
  for (auto& list : adj) std::sort(list.begin(), list.end());
  for (std::size_t e = 0; e < result.num_edges(); ++e) {
    const std::uint32_t a = result.src[e];
    const std::uint32_t b = result.dst[e];
    const std::uint32_t t = result.trussness[e];
    std::uint32_t common = 0;
    std::uint32_t closed_at_t = 0;
    for (const std::uint32_t w : adj[a]) {
      if (!std::binary_search(adj[b].begin(), adj[b].end(), w)) continue;
      ++common;
      if (result.TrussnessOf(a, w) >= t && result.TrussnessOf(b, w) >= t) {
        ++closed_at_t;
      }
    }
    ASSERT_EQ(support[e], common) << "edge " << a << "-" << b;
    // An edge of trussness t closes ≥ t-2 triangles inside the t-truss.
    EXPECT_GE(closed_at_t + 2, t) << "edge " << a << "-" << b;
  }
}

TEST(KTrussTest, RejectsPartialView) {
  auto cloud = NewCloud(2);
  graph::Graph graph(cloud.get());
  LoadEdges(&graph, {{1, 2}, {2, 3}, {3, 1}});
  std::vector<GraphSnapshot> views;
  ASSERT_TRUE(SnapshotBuilder::Build(&graph, &views).ok());
  bool any_partial = false;
  for (const GraphSnapshot& view : views) {
    if (view.num_local() < view.num_vertices()) {
      any_partial = true;
      KTrussResult result;
      EXPECT_TRUE(KTrussDecompose(view, &result).IsInvalidArgument());
    }
  }
  EXPECT_TRUE(any_partial);
}


// perfbench's analytics graph: R-MAT(16,384, degree 8, seed 1) on 8 slaves
// with p_bits 6, decomposed as the analytics job does. The triangle count,
// maximum trussness and trussness digest were recorded on the peel that
// galloped into every row; hub bitmaps must reproduce them exactly.
TEST(KTrussGoldenTest, PerfbenchGraphMatchesRecordedTrussness) {
  cloud::MemoryCloud::Options options;
  options.num_slaves = 8;
  options.p_bits = 6;
  std::unique_ptr<cloud::MemoryCloud> cloud;
  ASSERT_TRUE(cloud::MemoryCloud::Create(options, &cloud).ok());
  graph::Graph graph(cloud.get());
  ASSERT_TRUE(graph::Generators::Load(
                  &graph, graph::Generators::Rmat(16384, 8.0, 1),
                  /*with_names=*/false, 1)
                  .ok());
  GraphSnapshot snapshot;
  ASSERT_TRUE(SnapshotBuilder::BuildGlobal(&graph, &snapshot).ok());
  KTrussResult result;
  ASSERT_TRUE(KTrussDecompose(snapshot, &result).ok());
  // Digest over (smaller id, larger id, trussness) in id order, so it does
  // not depend on how the snapshot ranks vertices.
  std::vector<std::array<std::uint64_t, 3>> image;
  for (std::size_t e = 0; e < result.num_edges(); ++e) {
    const CellId a = snapshot.id_by_rank[result.src[e]];
    const CellId b = snapshot.id_by_rank[result.dst[e]];
    image.push_back({std::min(a, b), std::max(a, b), result.trussness[e]});
  }
  std::sort(image.begin(), image.end());
  const std::uint64_t digest =
      HashBytes(image.data(), image.size() * sizeof(image[0]));
  EXPECT_EQ(result.triangles, 754778u);
  EXPECT_EQ(result.max_trussness, 48u);
  EXPECT_EQ(digest, 10895859510345043636ULL);
}

}  // namespace
}  // namespace trinity::analytics
