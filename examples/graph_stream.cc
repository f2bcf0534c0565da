// Graph streams (paper §6.1): "For certain applications (e.g., graph
// generation, graph streams, etc.), the size of key-value pairs keep
// increasing (as new edges are added to the node cells)." This example
// ingests a continuous edge stream into a live memory cloud while the
// background defragmentation daemons run, and prints the storage-engine
// mechanics as they happen: in-place expansions riding the short-lived
// reservations vs. relocations, dead bytes accumulating, and defrag passes
// reclaiming them.
//
// Build & run:  ./build/examples/graph_stream

#include <chrono>
#include <cstdio>
#include <thread>

#include "common/random.h"
#include "graph/graph.h"

int main() {
  using namespace trinity;

  cloud::MemoryCloud::Options options;
  options.num_slaves = 4;
  options.p_bits = 4;
  options.storage.trunk.capacity = 16 << 20;
  options.storage.defrag_threshold = 0.2;
  std::unique_ptr<cloud::MemoryCloud> cloud;
  Status s = cloud::MemoryCloud::Create(options, &cloud);
  if (!s.ok()) {
    std::fprintf(stderr, "cloud error: %s\n", s.ToString().c_str());
    return 1;
  }
  graph::Graph::Options graph_options;
  graph_options.track_inlinks = false;
  graph::Graph graph(cloud.get(), graph_options);

  const std::uint64_t kNodes = 5000;
  for (CellId v = 0; v < kNodes; ++v) {
    (void)graph.AddNode(v, Slice());
  }
  // Start the §6.1 background defragmentation daemons on every slave.
  for (MachineId m = 0; m < cloud->num_slaves(); ++m) {
    cloud->storage(m)->StartDefragDaemon(std::chrono::milliseconds(20));
  }

  std::printf(
      "streaming edges into %llu node cells (preferential attachment)...\n\n",
      static_cast<unsigned long long>(kNodes));
  std::printf("%10s %10s %10s %10s %10s %10s %9s\n", "edges", "live_KB",
              "slack_KB", "dead_KB", "commit_KB", "in_place", "relocate");
  Random rng(99);
  std::uint64_t edges = 0;
  for (int batch = 0; batch < 10; ++batch) {
    for (int i = 0; i < 20000; ++i) {
      // Preferential attachment: hubs keep growing — the worst case for a
      // storage engine without reservations.
      const double u = rng.NextDouble();
      const CellId from = static_cast<CellId>(
          static_cast<double>(kNodes) * u * u);
      const CellId to = rng.Uniform(kNodes);
      if (graph.AddEdge(std::min(from, kNodes - 1), to).ok()) ++edges;
    }
    const auto t = cloud->AggregateTrunkStats();
    std::printf("%10llu %10.1f %10.1f %10.1f %10.1f %10llu %9llu\n",
                static_cast<unsigned long long>(edges),
                static_cast<double>(t.live_bytes) / 1024.0,
                static_cast<double>(t.reserved_slack) / 1024.0,
                static_cast<double>(t.dead_bytes) / 1024.0,
                static_cast<double>(t.committed_bytes) / 1024.0,
                static_cast<unsigned long long>(t.expansions_in_place),
                static_cast<unsigned long long>(t.expansions_relocated));
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  for (MachineId m = 0; m < cloud->num_slaves(); ++m) {
    cloud->storage(m)->StopDefragDaemon();
  }
  const auto final_stats = cloud->AggregateTrunkStats();
  std::printf(
      "\nfinal: %llu defrag passes reclaimed the stream's garbage; "
      "%.1f%% of expansions were in-place thanks to reservations\n",
      static_cast<unsigned long long>(final_stats.defrag_passes),
      100.0 * static_cast<double>(final_stats.expansions_in_place) /
          static_cast<double>(final_stats.expansions_in_place +
                              final_stats.expansions_relocated));

  // The stream stays queryable throughout.
  std::vector<CellId> out;
  (void)graph.GetOutlinks(0, &out);
  std::printf("node 0 accumulated %zu outgoing edges while streaming\n",
              out.size());
  return 0;
}
