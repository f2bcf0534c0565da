// Triangle counting + k-truss over degree-ordered CSR snapshots: per-kernel
// ablation (merge-only vs galloping vs adaptive dispatch) on R-MAT and
// power-law graphs, 1 and 8 machines. The scoreboard is comparison counts
// (hardware-independent; the CI box has one core) plus boundary bytes
// shipped by the distributed exchange. `--json` writes BENCH_triangles.json.

#include <cstdio>
#include <string>

#include "analytics/graph_snapshot.h"
#include "analytics/ktruss.h"
#include "analytics/triangles.h"
#include "bench_util.h"
#include "common/logging.h"

namespace trinity {
namespace {

using analytics::GraphSnapshot;
using analytics::IntersectKernel;
using analytics::KernelStats;
using analytics::SnapshotBuilder;
using analytics::TriangleCounter;
using analytics::TriangleOptions;
using analytics::TriangleStats;

const char* KernelName(IntersectKernel kernel) {
  switch (kernel) {
    case IntersectKernel::kMerge:
      return "merge";
    case IntersectKernel::kGalloping:
      return "galloping";
    case IntersectKernel::kBitmap:
      return "bitmap";
    case IntersectKernel::kAdaptive:
      return "adaptive";
  }
  return "?";
}

void AddKernelStats(bench::JsonEmitter& json, const char* prefix,
                    const KernelStats& stats) {
  const std::string p(prefix);
  json.Add((p + "_intersections").c_str(), stats.intersections);
  json.Add((p + "_comparisons").c_str(), stats.comparisons);
  json.Add((p + "_len_p50").c_str(), stats.smaller_len.Percentile(50));
  json.Add((p + "_len_p99").c_str(), stats.smaller_len.Percentile(99));
}

void RunConfig(bench::JsonEmitter& json, const char* graph_name,
               const graph::Generators::EdgeList& edges, int slaves) {
  auto cloud = bench::NewCloud(slaves);
  auto graph = bench::LoadGraph(cloud.get(), edges);

  std::uint64_t naive = 0;
  std::uint64_t naive_cells = 0;
  Stopwatch naive_watch;
  TRINITY_CHECK(
      analytics::CountTrianglesNaive(graph.get(), &naive, &naive_cells).ok(),
      "naive count failed");
  const double naive_ms = naive_watch.ElapsedMillis();

  SnapshotBuilder::BuildStats build;
  std::vector<GraphSnapshot> views;
  TRINITY_CHECK(SnapshotBuilder::Build(graph.get(), &views, &build).ok(),
                "snapshot build failed");
  std::uint64_t oriented = 0;
  for (const GraphSnapshot& view : views) oriented += view.oriented_edges();

  std::printf(
      "%-10s m=%d nodes=%llu edges=%llu oriented=%llu triangles=%llu "
      "(naive %.1f ms, %llu cell fetches; snapshot scan %.1f + exch %.1f + "
      "csr %.1f ms, %llu exch bytes)\n",
      graph_name, slaves,
      static_cast<unsigned long long>(edges.num_nodes),
      static_cast<unsigned long long>(edges.edges.size()),
      static_cast<unsigned long long>(oriented),
      static_cast<unsigned long long>(naive), naive_ms,
      static_cast<unsigned long long>(naive_cells), build.scan_ms,
      build.exchange_ms, build.csr_ms,
      static_cast<unsigned long long>(build.exchange_bytes));

  json.BeginRow("snapshot");
  json.Add("graph", std::string(graph_name));
  json.Add("machines", slaves);
  json.Add("nodes", edges.num_nodes);
  json.Add("edges", static_cast<std::uint64_t>(edges.edges.size()));
  json.Add("oriented_edges", oriented);
  json.Add("scan_ms", build.scan_ms);
  json.Add("exchange_ms", build.exchange_ms);
  json.Add("csr_ms", build.csr_ms);
  json.Add("exchange_bytes", build.exchange_bytes);
  json.Add("exchange_messages", build.exchange_messages);
  json.Add("naive_ms", naive_ms);
  json.Add("naive_cell_fetches", naive_cells);
  json.Add("triangles", naive);

  double merge_comparisons = 0;
  for (const IntersectKernel kernel :
       {IntersectKernel::kMerge, IntersectKernel::kGalloping,
        IntersectKernel::kBitmap, IntersectKernel::kAdaptive}) {
    TriangleOptions options;
    options.kernel = kernel;
    TriangleCounter counter(graph.get(), options);
    TriangleStats stats;
    TRINITY_CHECK(counter.Count(views, &stats).ok(), "count failed");
    TRINITY_CHECK(stats.triangles == naive, "kernel disagrees with naive");

    const double wall_ms = stats.exchange_ms + stats.count_ms;
    const double per_sec =
        stats.count_ms > 0
            ? stats.total_intersections() / (stats.count_ms / 1000.0)
            : 0;
    if (kernel == IntersectKernel::kMerge) {
      merge_comparisons = static_cast<double>(stats.total_comparisons());
    }
    const double vs_merge =
        merge_comparisons > 0
            ? merge_comparisons / stats.total_comparisons()
            : 0;
    std::printf(
        "  %-9s %8.1f ms  %12llu cmp (%.2fx vs merge)  %9.0f isect/s  "
        "boundary %llu calls / %llu bytes\n",
        KernelName(kernel), wall_ms,
        static_cast<unsigned long long>(stats.total_comparisons()), vs_merge,
        per_sec, static_cast<unsigned long long>(stats.boundary_calls),
        static_cast<unsigned long long>(stats.boundary_bytes));

    json.BeginRow("kernel");
    json.Add("graph", std::string(graph_name));
    json.Add("machines", slaves);
    json.Add("kernel", std::string(KernelName(kernel)));
    json.Add("triangles", stats.triangles);
    json.Add("wall_ms", wall_ms);
    json.Add("count_ms", stats.count_ms);
    json.Add("exchange_ms", stats.exchange_ms);
    json.Add("comparisons", stats.total_comparisons());
    json.Add("comparisons_vs_merge", vs_merge);
    json.Add("intersections", stats.total_intersections());
    json.Add("intersections_per_sec", per_sec);
    json.Add("bitmap_builds", stats.bitmap_builds);
    json.Add("bitmap_build_ops", stats.bitmap_build_ops);
    json.Add("boundary_calls", stats.boundary_calls);
    json.Add("boundary_lists", stats.boundary_lists);
    json.Add("boundary_bytes", stats.boundary_bytes);
    AddKernelStats(json, "merge", stats.merge);
    AddKernelStats(json, "gallop", stats.gallop);
    AddKernelStats(json, "probe", stats.probe);
    AddKernelStats(json, "bitmap_and", stats.bitmap_and);
  }

  // k-truss on the gathered snapshot (single-machine decomposition).
  GraphSnapshot global;
  TRINITY_CHECK(SnapshotBuilder::BuildGlobal(graph.get(), &global).ok(),
                "global snapshot failed");
  Stopwatch truss_watch;
  analytics::KTrussResult truss;
  analytics::KTrussStats truss_stats;
  TRINITY_CHECK(analytics::KTrussDecompose(global, &truss, &truss_stats).ok(),
                "k-truss failed");
  const double truss_ms = truss_watch.ElapsedMillis();
  TRINITY_CHECK(truss.triangles == naive, "k-truss triangle total mismatch");
  std::printf(
      "  k-truss   %8.1f ms  max k=%u over %zu edges  (adjacency %.1f, "
      "support %.1f, peel %.1f ms; %llu hub rows, %.2f MB bitmaps)\n",
      truss_ms, truss.max_trussness, truss.num_edges(),
      truss_stats.adjacency_ms, truss_stats.support_ms, truss_stats.peel_ms,
      static_cast<unsigned long long>(truss_stats.hub_rows),
      static_cast<double>(truss_stats.bitmap_bytes) / (1 << 20));
  json.BeginRow("ktruss");
  json.Add("graph", std::string(graph_name));
  json.Add("machines", slaves);
  json.Add("wall_ms", truss_ms);
  json.Add("adjacency_ms", truss_stats.adjacency_ms);
  json.Add("support_ms", truss_stats.support_ms);
  json.Add("peel_ms", truss_stats.peel_ms);
  json.Add("hub_rows", truss_stats.hub_rows);
  json.Add("bitmap_bytes", truss_stats.bitmap_bytes);
  json.Add("max_trussness", static_cast<std::uint64_t>(truss.max_trussness));
  json.Add("edges", static_cast<std::uint64_t>(truss.num_edges()));
}

int Main(int argc, char** argv) {
  bench::JsonEmitter json("triangles", argc, argv);
  bench::PrintHeader("Analytics",
                     "degree-ordered CSR triangle counting (kernel ablation)");

  const std::uint64_t nodes = 20000;
  const auto rmat = graph::Generators::Rmat(nodes, 8.0, 42);
  const auto powerlaw = graph::Generators::PowerLaw(nodes, 16.0, 2.0, 42);
  for (const int slaves : {1, 8}) {
    RunConfig(json, "rmat", rmat, slaves);
    RunConfig(json, "powerlaw", powerlaw, slaves);
  }
  bench::PrintFooter();
  return 0;
}

}  // namespace
}  // namespace trinity

int main(int argc, char** argv) { return trinity::Main(argc, argv); }
