// Fault tolerance walkthrough (paper §6.2): snapshot to TFS, RAMCloud-style
// buffered logging for post-snapshot updates, heartbeat failure detection,
// leader election with a TFS fencing flag, and trunk recovery onto the
// surviving machines — all while the workload keeps running.
//
// Build & run:  ./build/examples/fault_tolerance

#include <cstdio>
#include <filesystem>

#include "graph/generators.h"
#include "graph/graph.h"

int main() {
  using namespace trinity;

  const std::string tfs_root = "/tmp/trinity_ft_example";
  std::filesystem::remove_all(tfs_root);
  tfs::Tfs::Options tfs_options;
  tfs_options.root = tfs_root;
  tfs_options.num_datanodes = 3;
  tfs_options.replication = 2;
  std::unique_ptr<tfs::Tfs> tfs;
  Status s = tfs::Tfs::Open(tfs_options, &tfs);
  if (!s.ok()) {
    std::fprintf(stderr, "tfs error: %s\n", s.ToString().c_str());
    return 1;
  }

  cloud::MemoryCloud::Options options;
  options.num_slaves = 4;
  options.p_bits = 4;
  options.storage.trunk.capacity = 16 << 20;
  options.tfs = tfs.get();
  options.buffered_logging = true;
  std::unique_ptr<cloud::MemoryCloud> cloud;
  s = cloud::MemoryCloud::Create(options, &cloud);
  if (!s.ok()) {
    std::fprintf(stderr, "cloud error: %s\n", s.ToString().c_str());
    return 1;
  }

  graph::Graph graph(cloud.get());
  std::printf("loading a 5000-node graph on 4 slaves...\n");
  (void)graph::Generators::LoadRmat(&graph, 5000, 6.0, 11);

  std::printf("persisting all memory trunks to TFS (snapshot)...\n");
  s = cloud->SaveSnapshot();
  if (!s.ok()) {
    std::fprintf(stderr, "snapshot error: %s\n", s.ToString().c_str());
    return 1;
  }

  std::printf(
      "writing post-snapshot updates (covered only by buffered logging)...\n");
  (void)graph.AddNode(777777, Slice("critical late write"));
  (void)graph.AddEdge(777777, 1);

  const MachineId victim = 1;
  std::printf(
      "\n*** machine %d crashes (RAM contents and its backup logs lost) "
      "***\n\n",
      victim);
  (void)cloud->FailMachine(victim);

  std::printf("leader runs a heartbeat sweep and recovers: %d machine(s)\n",
              cloud->DetectAndRecover());
  std::printf("trunks of machine %d now hosted elsewhere: %s\n", victim,
              cloud->table()->trunks_of(victim).empty() ? "yes" : "no");

  // Verify nothing was lost — including the post-snapshot write.
  std::string data;
  s = graph.GetNodeData(777777, &data);
  std::printf("post-snapshot cell after recovery: %s (\"%s\")\n",
              s.ToString().c_str(), data.c_str());
  std::uint64_t intact = 0;
  std::vector<CellId> out;
  for (CellId v = 0; v < 5000; ++v) {
    if (graph.GetOutlinks(v, &out).ok()) ++intact;
  }
  std::printf("graph nodes readable after recovery: %llu / 5000\n",
              static_cast<unsigned long long>(intact));

  std::printf("\n*** the leader (machine 0) crashes too ***\n\n");
  (void)cloud->FailMachine(0);
  (void)cloud->DetectAndRecover();
  std::printf("new leader elected: machine %d (fenced via TFS flag file)\n",
              cloud->leader());
  intact = 0;
  for (CellId v = 0; v < 5000; ++v) {
    if (graph.GetOutlinks(v, &out).ok()) ++intact;
  }
  std::printf("graph nodes readable after second failure: %llu / 5000\n",
              static_cast<unsigned long long>(intact));

  std::printf("\nmachine %d restarts and rejoins the memory cloud\n", victim);
  (void)cloud->RestartMachine(victim);
  (void)cloud->AddCellFrom(victim, 888888, Slice("issued from rejoined"));
  std::string check;
  (void)cloud->GetCell(888888, &check);
  std::printf("write issued from rejoined machine readable: \"%s\"\n",
              check.c_str());
  return 0;
}
