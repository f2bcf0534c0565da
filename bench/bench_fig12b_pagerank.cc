// Reproduces Fig 12(b): one PageRank iteration (synchronous vertex-centric
// BSP) on R-MAT graphs, sweeping node count and machine count. The paper's
// shape: time per iteration grows linearly with graph size and shrinks as
// machines are added (1B nodes, 8 machines: < 60 s per iteration).
//
// A second sweep runs the same computation on a fixed 8-slave cluster with
// 1 vs 8 pool threads to measure the wall-clock effect of parallel
// superstep execution (§5.3) and to verify that the parallel run produces
// bit-identical ranks. Note the wall-clock speedup only manifests on a
// host with enough cores; the bit-identical check holds everywhere.
// Every JSON row also carries the wall milliseconds of the superstep's
// compute, drain and finalize phases (BspEngine::RunStats).

#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>

#include "algos/pagerank.h"
#include "bench_util.h"
#include "common/histogram.h"

namespace trinity {
namespace {

/// Wall time of the superstep's three barrier phases, summed over the run.
void AddPhaseTimes(bench::JsonEmitter* json,
                   const compute::BspEngine::RunStats& stats) {
  json->Add("compute_ms", stats.compute_ms);
  json->Add("drain_ms", stats.drain_ms);
  json->Add("finalize_ms", stats.finalize_ms);
}

void Run(bench::JsonEmitter* json) {
  bench::PrintHeader("Figure 12(b)",
                     "PageRank seconds/iteration, R-MAT, degree 13");
  const int machine_counts[] = {8, 10, 12, 14};
  const std::uint64_t node_counts[] = {8192, 16384, 32768, 65536};
  std::printf("%10s", "nodes");
  for (int m : machine_counts) std::printf(" %11s%02d", "machines_", m);
  std::printf("\n");
  for (std::uint64_t nodes : node_counts) {
    const auto edges = graph::Generators::Rmat(nodes, 13.0, 42);
    std::printf("%10llu", static_cast<unsigned long long>(nodes));
    for (int machines : machine_counts) {
      auto cloud = bench::NewCloud(machines);
      auto graph = bench::LoadGraph(cloud.get(), edges, false,
                                    /*track_inlinks=*/false);
      algos::PageRankOptions options;
      options.iterations = 2;
      algos::PageRankResult result;
      Stopwatch watch;
      Status s = algos::RunPageRank(graph.get(), options, &result);
      const double wall_seconds = watch.ElapsedMicros() / 1e6;
      TRINITY_CHECK(s.ok(), "pagerank failed");
      std::printf(" %13.4f", result.seconds_per_iteration);
      json->BeginRow("fig12b");
      json->Add("nodes", nodes);
      json->Add("machines", machines);
      json->Add("modeled_seconds_per_iteration",
                result.seconds_per_iteration);
      json->Add("modeled_seconds", result.stats.modeled_seconds);
      json->Add("wall_seconds", wall_seconds);
      json->Add("messages", result.stats.messages);
      json->Add("transfers", result.stats.transfers);
      json->Add("bytes", result.stats.bytes);
      AddPhaseTimes(json, result.stats);
    }
    std::printf("\n");
  }
  std::printf(
      "(modeled cluster seconds; paper: 1B nodes / 8 machines ~51 s per "
      "iteration, decreasing with machine count)\n");
  bench::PrintFooter();
}

/// 1 vs 8 pool threads on a fixed 8-slave cluster. Ranks must be
/// bit-identical (the parallel barrier merges inboxes in canonical order);
/// wall-clock speedup depends on host core count and is reported, not
/// asserted.
void RunThreadSweep(bench::JsonEmitter* json) {
  bench::PrintHeader("Superstep parallelism",
                     "PageRank wall-clock, 8 slaves, 1 vs 8 pool threads");
  const std::uint64_t nodes = 65536;
  const auto edges = graph::Generators::Rmat(nodes, 13.0, 42);
  std::printf("%8s %13s %13s %11s %13s\n", "threads", "wall_s", "modeled_s",
              "messages", "identical");
  std::string baseline_image;
  double baseline_wall = 0;
  for (int threads : {1, 8}) {
    auto cloud = bench::NewCloud(8);
    auto graph = bench::LoadGraph(cloud.get(), edges, false,
                                  /*track_inlinks=*/false);
    algos::PageRankOptions options;
    options.iterations = 4;
    options.bsp.num_threads = threads;
    algos::PageRankResult result;
    Stopwatch watch;
    Status s = algos::RunPageRank(graph.get(), options, &result);
    const double wall_seconds = watch.ElapsedMicros() / 1e6;
    TRINITY_CHECK(s.ok(), "pagerank failed");
    // Serialize the ranks in sorted vertex order and compare the raw
    // double bytes — bit-identical, not just approximately equal.
    std::map<CellId, double> sorted(result.ranks.begin(),
                                    result.ranks.end());
    std::string image;
    image.reserve(sorted.size() * 16);
    for (const auto& [v, rank] : sorted) {
      image.append(reinterpret_cast<const char*>(&v), sizeof(v));
      image.append(reinterpret_cast<const char*>(&rank), sizeof(rank));
    }
    bool identical = true;
    if (baseline_image.empty()) {
      baseline_image = std::move(image);
      baseline_wall = wall_seconds;
    } else {
      identical = image.size() == baseline_image.size() &&
                  std::memcmp(image.data(), baseline_image.data(),
                              image.size()) == 0;
      TRINITY_CHECK(identical, "parallel ranks diverge from sequential");
    }
    std::printf("%8d %13.4f %13.4f %11llu %13s\n", threads, wall_seconds,
                result.stats.modeled_seconds,
                static_cast<unsigned long long>(result.stats.messages),
                identical ? "yes" : "NO");
    json->BeginRow("thread_sweep");
    json->Add("threads", threads);
    json->Add("nodes", nodes);
    json->Add("machines", 8);
    json->Add("wall_seconds", wall_seconds);
    json->Add("modeled_seconds", result.stats.modeled_seconds);
    json->Add("messages", result.stats.messages);
    json->Add("bytes", result.stats.bytes);
    json->Add("ranks_bit_identical", identical);
    AddPhaseTimes(json, result.stats);
    if (threads != 1) {
      json->Add("speedup_vs_1_thread", baseline_wall / wall_seconds);
      std::printf("(speedup with 8 threads: %.2fx; expect >3x on an 8-core "
                  "host, ~1x on a single-core container)\n",
                  baseline_wall / wall_seconds);
    }
  }
  bench::PrintFooter();
}

}  // namespace
}  // namespace trinity

int main(int argc, char** argv) {
  trinity::bench::JsonEmitter json("fig12b_pagerank", argc, argv);
  trinity::Run(&json);
  trinity::RunThreadSweep(&json);
  return 0;
}
