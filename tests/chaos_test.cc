// Chaos suite: randomized crash/recover schedules driven by the seeded
// fault injector, asserting the paper's §6.2 fault-tolerance claims end to
// end. Every test prints (via SCOPED_TRACE / assertion messages) the seed it
// ran under, and every source of randomness derives from that seed, so any
// failure replays exactly with the same seed.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "compute/async_engine.h"
#include "compute/bsp.h"
#include "graph/graph.h"
#include "net/fault_injector.h"

namespace trinity {
namespace {

// Sweep hook: scripts/check.sh --chaos-sweep N reruns the chaos label with
// TRINITY_CHAOS_SEED_OFFSET=1000, 2000, ... so the same assertions execute
// against N disjoint fault schedules. Every test derives its seed as
// GetParam() (or loop index) + SeedOffset(), keeping single-seed replay
// (offset 0 by default) byte-identical.
std::uint64_t SeedOffset() {
  static const std::uint64_t offset = [] {
    const char* env = std::getenv("TRINITY_CHAOS_SEED_OFFSET");
    return env == nullptr ? 0ULL : std::strtoull(env, nullptr, 10);
  }();
  return offset;
}

std::string FreshTfsRoot(const std::string& tag, std::uint64_t seed) {
  // The pid keeps roots disjoint when the suite runs concurrently from two
  // build trees (e.g. the default and TSan presets) — a shared path would
  // let one process clobber the other's snapshot and log files mid-test.
  const std::string root = ::testing::TempDir() + "/chaos_" + tag + "_" +
                           std::to_string(seed) + "_" +
                           std::to_string(::getpid());
  std::filesystem::remove_all(root);
  return root;
}

// Cluster under chaos: the injector must outlive the cloud (the fabric keeps
// a raw pointer), hence the declaration order.
struct ChaosCluster {
  std::unique_ptr<tfs::Tfs> tfs;
  std::unique_ptr<net::FaultInjector> injector;
  std::unique_ptr<cloud::MemoryCloud> cloud;
};

ChaosCluster NewCluster(const std::string& tag, std::uint64_t seed,
                        int slaves = 4) {
  ChaosCluster c;
  tfs::Tfs::Options tfs_options;
  tfs_options.root = FreshTfsRoot(tag, seed);
  EXPECT_TRUE(tfs::Tfs::Open(tfs_options, &c.tfs).ok());
  c.injector = std::make_unique<net::FaultInjector>(seed);
  cloud::MemoryCloud::Options options;
  options.num_slaves = slaves;
  options.p_bits = 4;
  options.storage.trunk.capacity = 256 * 1024;
  options.tfs = c.tfs.get();
  options.buffered_logging = true;
  EXPECT_TRUE(cloud::MemoryCloud::Create(options, &c.cloud).ok());
  c.cloud->fabric().SetFaultInjector(c.injector.get());
  return c;
}

// Drives the pending CrashAfter schedule to completion: each heartbeat is
// one logical message touching the victim, so a countdown that did not
// expire during the workload expires here, never in a later round.
void DrainCrashSchedule(ChaosCluster& c, MachineId victim) {
  for (int i = 0; i < 128 && c.cloud->fabric().IsMachineUp(victim); ++i) {
    std::string pong;
    c.cloud->fabric().Call(c.cloud->client_id(), victim,
                           cloud::kHeartbeatHandler, Slice(), &pong);
  }
}

void HealCluster(ChaosCluster& c) {
  c.cloud->DetectAndRecover();
  for (MachineId m = 0; m < c.cloud->num_slaves(); ++m) {
    if (!c.cloud->fabric().IsMachineUp(m)) {
      ASSERT_TRUE(c.cloud->RestartMachine(m).ok());
    }
  }
}

// Hot-standby variant: k in-memory replica trunks instead of buffered logs.
ChaosCluster NewReplicatedCluster(const std::string& tag, std::uint64_t seed,
                                  int replication_factor, int slaves = 4) {
  ChaosCluster c;
  tfs::Tfs::Options tfs_options;
  tfs_options.root = FreshTfsRoot(tag, seed);
  EXPECT_TRUE(tfs::Tfs::Open(tfs_options, &c.tfs).ok());
  c.injector = std::make_unique<net::FaultInjector>(seed);
  cloud::MemoryCloud::Options options;
  options.num_slaves = slaves;
  options.p_bits = 4;
  options.storage.trunk.capacity = 256 * 1024;
  options.tfs = c.tfs.get();
  options.replication_factor = replication_factor;
  EXPECT_TRUE(cloud::MemoryCloud::Create(options, &c.cloud).ok());
  c.cloud->fabric().SetFaultInjector(c.injector.get());
  return c;
}

// Heal for replicated clusters, asserting the core promotion property along
// the way: failover is a metadata flip over in-memory replicas — the sweep
// must not read one byte of trunk data back from TFS.
void HealReplicated(ChaosCluster& c) {
  const tfs::Tfs::Stats before = c.tfs->stats();
  c.cloud->DetectAndRecover();
  const tfs::Tfs::Stats after = c.tfs->stats();
  EXPECT_EQ(after.files_read, before.files_read)
      << "promotion hot path read trunk data from TFS";
  // A trunk restarted empty reads no file, so the check above cannot see
  // it; the loss counter can.
  EXPECT_EQ(c.cloud->recovery_stats().trunks_lost, 0u)
      << "recovery restarted a trunk empty";
  for (MachineId m = 0; m < c.cloud->num_slaves(); ++m) {
    if (!c.cloud->fabric().IsMachineUp(m)) {
      ASSERT_TRUE(c.cloud->RestartMachine(m).ok());
    }
  }
  // Second sweep re-replicates onto the restarted machines.
  c.cloud->DetectAndRecover();
}

// ------------------------------------------------------------------- KV

class KvChaosTest : public ::testing::TestWithParam<std::uint64_t> {};

// The §6.2 durability claim under buffered logging: once a write is
// acknowledged, no sequence of (sequential) machine crashes and recoveries
// may lose it — the backup's log or the committed snapshot always covers it.
TEST_P(KvChaosTest, AcknowledgedWritesSurviveCrashes) {
  const std::uint64_t seed = GetParam() + SeedOffset();
  SCOPED_TRACE("chaos seed " + std::to_string(seed));
  ChaosCluster c = NewCluster("kv", seed);
  Random rng(seed * 0x9e3779b97f4a7c15ULL + 1);

  net::FaultInjector::Policy wire;
  wire.call_fail_prob = 0.03;
  wire.call_timeout_prob = 0.03;
  wire.drop_prob = 0.05;       // Async traffic: table broadcasts etc.
  wire.delay_flush_prob = 0.2;

  std::map<CellId, std::string> reference;  // Acknowledged state.
  const int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    c.injector->SetDefaultPolicy(wire);
    const MachineId victim =
        static_cast<MachineId>(rng.Uniform(c.cloud->num_slaves()));
    c.injector->CrashAfter(victim, 1 + rng.Uniform(60));

    for (int op = 0; op < 60; ++op) {
      const CellId id = static_cast<CellId>(rng.Uniform(64));
      if (!reference.empty() && rng.Bernoulli(0.15)) {
        auto it = reference.begin();
        std::advance(it, rng.Uniform(reference.size()));
        const CellId dead_id = it->first;
        if (c.cloud->RemoveCell(dead_id).ok()) reference.erase(dead_id);
      } else {
        const std::string value = "v" + std::to_string(id) + "." +
                                  std::to_string(round) + "." +
                                  std::to_string(op);
        if (c.cloud->PutCell(id, Slice(value)).ok()) reference[id] = value;
      }
    }

    // Calm the wire for the audit; the crash schedule stays armed and is
    // forced to fire now so failures never overlap across rounds (the §6.2
    // model recovers one machine at a time).
    c.injector->ClearPolicies();
    DrainCrashSchedule(c, victim);
    HealCluster(c);

    for (const auto& [id, value] : reference) {
      std::string out;
      ASSERT_TRUE(c.cloud->GetCell(id, &out).ok())
          << "seed " << seed << ": acknowledged cell " << id
          << " lost after crash of machine " << victim;
      ASSERT_EQ(out, value) << "seed " << seed << ": cell " << id;
    }
    ASSERT_EQ(c.cloud->TotalCellCount(), reference.size())
        << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvChaosTest,
                         ::testing::Range<std::uint64_t>(1, 21));

// ------------------------------------------------------------------- BSP

constexpr int kPrVertices = 48;
constexpr int kPrSupersteps = 10;

void BuildPageRankGraph(graph::Graph* graph) {
  for (CellId v = 0; v < kPrVertices; ++v) {
    ASSERT_TRUE(graph->AddNode(v, Slice()).ok());
  }
  for (CellId v = 0; v < kPrVertices; ++v) {
    ASSERT_TRUE(graph->AddEdge(v, (v + 1) % kPrVertices).ok());
    ASSERT_TRUE(graph->AddEdge(v, (v * 7 + 3) % kPrVertices).ok());
  }
}

compute::BspEngine::Program PageRankProgram() {
  return [](compute::BspEngine::VertexContext& ctx) {
    double rank = 1.0;
    if (ctx.superstep() > 0) {
      double sum = 0;
      for (Slice m : ctx.messages()) {
        double v = 0;
        std::memcpy(&v, m.data(), 8);
        sum += v;
      }
      rank = 0.15 + 0.85 * sum;
    }
    ctx.value().assign(reinterpret_cast<const char*>(&rank), 8);
    if (ctx.out_count() > 0) {
      const double share = rank / static_cast<double>(ctx.out_count());
      char buf[8];
      std::memcpy(buf, &share, 8);
      ctx.SendToAllOut(Slice(buf, 8));
    }
    // Never halt: the superstep limit bounds the run, so every run executes
    // exactly kPrSupersteps supersteps and results are comparable.
  };
}

std::map<CellId, double> RunPageRank(graph::Graph* graph, Status* status) {
  compute::BspEngine::Options options;
  options.superstep_limit = kPrSupersteps;
  compute::BspEngine engine(graph, options);
  compute::BspEngine::RunStats stats;
  *status = engine.Run(PageRankProgram(), &stats);
  std::map<CellId, double> ranks;
  if (status->ok()) {
    engine.ForEachValue([&](CellId v, const std::string& value) {
      double r = 0;
      std::memcpy(&r, value.data(), 8);
      ranks[v] = r;
    });
  }
  return ranks;
}

class BspChaosTest : public ::testing::TestWithParam<std::uint64_t> {};

// §6.2 for synchronous computation: a crash mid-run surfaces cleanly, the
// cloud recovers the lost partition from snapshot + buffered logs, and the
// recomputed result matches the fault-free run.
TEST_P(BspChaosTest, PageRankSurvivesMidRunCrash) {
  const std::uint64_t seed = GetParam() + SeedOffset();
  SCOPED_TRACE("chaos seed " + std::to_string(seed));

  // Fault-free baseline.
  ChaosCluster base = NewCluster("bsp_base", seed);
  graph::Graph::Options gopts;
  gopts.track_inlinks = false;
  graph::Graph base_graph(base.cloud.get(), gopts);
  BuildPageRankGraph(&base_graph);
  Status base_status;
  const std::map<CellId, double> expected =
      RunPageRank(&base_graph, &base_status);
  ASSERT_TRUE(base_status.ok()) << base_status.message();
  ASSERT_EQ(expected.size(), static_cast<std::size_t>(kPrVertices));

  // Chaos run: same graph, one crash scheduled somewhere inside the run.
  ChaosCluster c = NewCluster("bsp", seed);
  graph::Graph graph(c.cloud.get(), gopts);
  BuildPageRankGraph(&graph);
  ASSERT_TRUE(c.cloud->SaveSnapshot().ok());
  Random rng(seed * 0x2545f4914f6cdd1dULL + 7);
  const MachineId victim =
      static_cast<MachineId>(rng.Uniform(c.cloud->num_slaves()));
  c.injector->CrashAfter(victim, 1 + rng.Uniform(400));

  std::map<CellId, double> got;
  bool done = false;
  for (int attempt = 0; attempt < 6 && !done; ++attempt) {
    Status s;
    got = RunPageRank(&graph, &s);
    if (s.ok()) {
      done = true;
      break;
    }
    // The only acceptable failure is the clean crash report.
    ASSERT_TRUE(s.IsUnavailable())
        << "seed " << seed << ": " << s.message();
    HealCluster(c);
  }
  ASSERT_TRUE(done) << "seed " << seed << ": run never completed";
  ASSERT_EQ(got.size(), expected.size()) << "seed " << seed;
  for (const auto& [v, rank] : expected) {
    auto it = got.find(v);
    ASSERT_NE(it, got.end()) << "seed " << seed << ": vertex " << v;
    EXPECT_NEAR(it->second, rank, 1e-9)
        << "seed " << seed << ": vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BspChaosTest,
                         ::testing::Range<std::uint64_t>(1, 21));

// ------------------------------------------------------------------ Async

class AsyncChaosTest : public ::testing::TestWithParam<std::uint64_t> {};

// The asynchronous engine's crash handling: a mid-run crash surfaces as a
// clean Unavailable at the next scheduling sweep, and a fresh run on the
// recovered cloud converges to the fault-free fixpoint (max-label
// propagation has a unique one, independent of update order).
TEST_P(AsyncChaosTest, MaxLabelPropagationSurvivesCrash) {
  const std::uint64_t seed = GetParam() + SeedOffset();
  SCOPED_TRACE("chaos seed " + std::to_string(seed));
  ChaosCluster c = NewCluster("async", seed);
  graph::Graph::Options gopts;
  gopts.track_inlinks = false;
  graph::Graph graph(c.cloud.get(), gopts);
  BuildPageRankGraph(&graph);  // Ring + chords: everything reachable from 0.
  ASSERT_TRUE(c.cloud->SaveSnapshot().ok());

  Random rng(seed * 0xd1342543de82ef95ULL + 3);
  const MachineId victim =
      static_cast<MachineId>(rng.Uniform(c.cloud->num_slaves()));
  c.injector->CrashAfter(victim, 1 + rng.Uniform(200));

  const std::uint64_t kLabel = 1000;
  auto handler = [](compute::AsyncEngine::Context& ctx, Slice message) {
    std::uint64_t label = 0;
    std::memcpy(&label, message.data(), 8);
    std::uint64_t current = 0;
    if (ctx.value().size() == 8) {
      std::memcpy(&current, ctx.value().data(), 8);
    }
    if (label <= current) return;
    ctx.value().assign(reinterpret_cast<const char*>(&label), 8);
    char buf[8];
    std::memcpy(buf, &label, 8);
    for (std::size_t i = 0; i < ctx.out_count(); ++i) {
      ctx.Send(ctx.out()[i], Slice(buf, 8));
    }
  };

  bool done = false;
  for (int attempt = 0; attempt < 6 && !done; ++attempt) {
    compute::AsyncEngine engine(&graph, compute::AsyncEngine::Options{});
    char buf[8];
    std::memcpy(buf, &kLabel, 8);
    ASSERT_TRUE(engine.Seed(0, Slice(buf, 8)).ok());
    compute::AsyncEngine::RunStats stats;
    Status s = engine.Run(handler, &stats);
    if (s.ok()) {
      int labeled = 0;
      engine.ForEachValue([&](CellId, const std::string& value) {
        std::uint64_t label = 0;
        ASSERT_EQ(value.size(), 8u);
        std::memcpy(&label, value.data(), 8);
        if (label == kLabel) ++labeled;
      });
      EXPECT_EQ(labeled, kPrVertices) << "seed " << seed;
      done = true;
      break;
    }
    ASSERT_TRUE(s.IsUnavailable()) << "seed " << seed << ": " << s.message();
    HealCluster(c);
  }
  ASSERT_TRUE(done) << "seed " << seed << ": run never completed";
}

INSTANTIATE_TEST_SUITE_P(Seeds, AsyncChaosTest,
                         ::testing::Range<std::uint64_t>(1, 9));

// Prioritized-delta crash hygiene: an aborted prioritized run leaves work
// in the delta caches / priority indexes and packed updates in the fabric
// pair buffers. The next engine's constructor must drain and Clear ALL of
// it — if any stale delta survived, the post-heal run would replay it and
// its update count would drift from the fault-free baseline pinned here
// (the engine is deterministic for a fixed seed + scheduler, so the counts
// must match exactly).
TEST_P(AsyncChaosTest, PrioritizedDeltaCrashLeavesNoStaleDeltas) {
  const std::uint64_t seed = GetParam() + SeedOffset();
  SCOPED_TRACE("chaos seed " + std::to_string(seed));

  const std::uint64_t kLabel = 1000;
  compute::AsyncEngine::Options aopts;
  aopts.scheduler = compute::SchedulerMode::kPriority;
  // Concurrent label candidates coalesce into the strongest one; the
  // strongest pending label is the most urgent work.
  aopts.combiner = [](std::string* accumulated, Slice message) {
    std::uint64_t acc = 0, candidate = 0;
    std::memcpy(&acc, accumulated->data(), 8);
    std::memcpy(&candidate, message.data(), 8);
    if (candidate > acc) std::memcpy(accumulated->data(), &candidate, 8);
  };
  aopts.priority = [](CellId, Slice delta, Slice) {
    std::uint64_t label = 0;
    std::memcpy(&label, delta.data(), 8);
    return static_cast<double>(label);
  };
  auto handler = [](compute::AsyncEngine::Context& ctx, Slice message) {
    std::uint64_t label = 0;
    std::memcpy(&label, message.data(), 8);
    std::uint64_t current = 0;
    if (ctx.value().size() == 8) {
      std::memcpy(&current, ctx.value().data(), 8);
    }
    if (label <= current) return;
    ctx.value().assign(reinterpret_cast<const char*>(&label), 8);
    char buf[8];
    std::memcpy(buf, &label, 8);
    for (std::size_t i = 0; i < ctx.out_count(); ++i) {
      ctx.Send(ctx.out()[i], Slice(buf, 8));
    }
  };

  // Fault-free baseline on an identical, uninjected cluster.
  compute::AsyncEngine::RunStats baseline;
  {
    ChaosCluster quiet = NewCluster("delta_base", seed);
    graph::Graph::Options gopts;
    gopts.track_inlinks = false;
    graph::Graph graph(quiet.cloud.get(), gopts);
    BuildPageRankGraph(&graph);
    compute::AsyncEngine engine(&graph, aopts);
    char buf[8];
    std::memcpy(buf, &kLabel, 8);
    ASSERT_TRUE(engine.Seed(0, Slice(buf, 8)).ok());
    ASSERT_TRUE(engine.Run(handler, &baseline).ok());
  }

  ChaosCluster c = NewCluster("delta_chaos", seed);
  graph::Graph::Options gopts;
  gopts.track_inlinks = false;
  graph::Graph graph(c.cloud.get(), gopts);
  BuildPageRankGraph(&graph);
  ASSERT_TRUE(c.cloud->SaveSnapshot().ok());

  Random rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  const MachineId victim =
      static_cast<MachineId>(rng.Uniform(c.cloud->num_slaves()));
  c.injector->CrashAfter(victim, 1 + rng.Uniform(60));

  bool done = false;
  for (int attempt = 0; attempt < 6 && !done; ++attempt) {
    compute::AsyncEngine engine(&graph, aopts);
    char buf[8];
    std::memcpy(buf, &kLabel, 8);
    ASSERT_TRUE(engine.Seed(0, Slice(buf, 8)).ok());
    compute::AsyncEngine::RunStats stats;
    Status s = engine.Run(handler, &stats);
    if (s.ok()) {
      int labeled = 0;
      engine.ForEachValue([&](CellId, const std::string& value) {
        std::uint64_t label = 0;
        ASSERT_EQ(value.size(), 8u);
        std::memcpy(&label, value.data(), 8);
        if (label == kLabel) ++labeled;
      });
      EXPECT_EQ(labeled, kPrVertices) << "seed " << seed;
      // Two stale-delta detectors. Conservation: every update the engine
      // processed must trace back to a message offered during THIS run — a
      // stale entry surviving the constructor's Clear would be popped
      // without ever being offered, breaking the identity. Totals: with a
      // fresh value map every vertex improves exactly once, so the offered
      // total is graph-determined (1 seed + each labeled vertex fanning out
      // once); replayed stale deltas would re-propagate and inflate it.
      // (Exact per-meter equality is deliberately NOT asserted: recovery
      // may move trunks, which legally reshapes the coalescing pattern.)
      EXPECT_EQ(stats.updates + stats.coalesced_updates +
                    stats.epsilon_dropped,
                stats.messages)
          << "seed " << seed;
      EXPECT_EQ(stats.messages, baseline.messages) << "seed " << seed;
      done = true;
      break;
    }
    ASSERT_TRUE(s.IsUnavailable()) << "seed " << seed << ": " << s.message();
    HealCluster(c);
  }
  ASSERT_TRUE(done) << "seed " << seed << ": run never completed";
}

// ------------------------------------------------------- Replication: KV

class ReplicatedKvChaosTest : public ::testing::TestWithParam<std::uint64_t> {
};

// Kill-during-replication: faults aimed squarely at the replication handler
// range (replica applies, installs, degraded reads, ISR shrinks) while a
// crash countdown runs against a random victim. Once a write is acked it
// must survive the failover — and the failover must never touch TFS.
TEST_P(ReplicatedKvChaosTest, AckedWritesSurviveKillDuringReplication) {
  const std::uint64_t seed = GetParam() + SeedOffset();
  SCOPED_TRACE("chaos seed " + std::to_string(seed));
  ChaosCluster c = NewReplicatedCluster("rkv", seed, /*replication_factor=*/2);
  Random rng(seed * 0x9e3779b97f4a7c15ULL + 11);

  net::FaultInjector::Policy flaky;
  flaky.call_fail_prob = 0.05;
  flaky.call_timeout_prob = 0.03;

  // Unique key per op: an unacked write's outcome is indeterminate (it may
  // have applied on the primary before the wire fault), so keys are never
  // reused and the audit only asserts on acknowledged ones.
  std::set<CellId> acked;
  CellId next_id = 0;
  const int kRounds = 4;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    c.injector->SetHandlerRangePolicy(cloud::kReplicaApplyHandler,
                                      cloud::kIsrShrinkHandler, flaky);
    const MachineId victim =
        static_cast<MachineId>(rng.Uniform(c.cloud->num_slaves()));
    c.injector->CrashAfter(victim, 1 + rng.Uniform(80));

    for (int op = 0; op < 60; ++op) {
      const CellId id = next_id++;
      const std::string value = "w" + std::to_string(id);
      if (c.cloud->PutCell(id, Slice(value)).ok()) acked.insert(id);
    }

    c.injector->ClearPolicies();
    DrainCrashSchedule(c, victim);
    HealReplicated(c);

    for (CellId id : acked) {
      std::string out;
      ASSERT_TRUE(c.cloud->GetCell(id, &out).ok())
          << "seed " << seed << ": acked cell " << id
          << " lost after crash of machine " << victim;
      ASSERT_EQ(out, "w" + std::to_string(id)) << "seed " << seed;
    }
  }
  // Every failover in this test was absorbed by in-memory replicas.
  EXPECT_EQ(c.cloud->recovery_stats().tfs_fallback_reloads, 0u)
      << "seed " << seed;
  EXPECT_GT(c.cloud->recovery_stats().promotions, 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicatedKvChaosTest,
                         ::testing::Range<std::uint64_t>(1, 21));

// -------------------------------------- Replication: simultaneous failures

// k=2 places every trunk on three distinct machines of four, so any two
// simultaneous deaths leave at least one in-memory copy: one sweep promotes
// everything with zero TFS reads, then failback restores the full factor.
TEST(ReplicatedChaosTest, DoubleFailureThenFailbackRestoresFactor) {
  for (std::uint64_t s = 1; s <= 8; ++s) {
    const std::uint64_t seed = s + SeedOffset();
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    ChaosCluster c =
        NewReplicatedCluster("double", seed, /*replication_factor=*/2);
    for (CellId id = 0; id < 96; ++id) {
      ASSERT_TRUE(c.cloud->PutCell(id, Slice("d" + std::to_string(id))).ok());
    }
    Random rng(seed * 0xd1342543de82ef95ULL + 5);
    const int n = c.cloud->num_slaves();
    const MachineId a = static_cast<MachineId>(rng.Uniform(n));
    MachineId b = static_cast<MachineId>(rng.Uniform(n - 1));
    if (b >= a) ++b;
    ASSERT_TRUE(c.cloud->FailMachine(a).ok());
    ASSERT_TRUE(c.cloud->FailMachine(b).ok());

    const tfs::Tfs::Stats before = c.tfs->stats();
    cloud::MemoryCloud::SweepReport report;
    EXPECT_EQ(c.cloud->DetectAndRecover(&report), 2) << "seed " << seed;
    EXPECT_TRUE(report.failed.empty()) << "seed " << seed;
    EXPECT_EQ(c.tfs->stats().files_read, before.files_read)
        << "seed " << seed << ": double-failure promotion read from TFS";
    EXPECT_EQ(c.cloud->recovery_stats().tfs_fallback_reloads, 0u);

    auto table = c.cloud->table();
    for (CellId id = 0; id < 96; ++id) {
      std::string out;
      ASSERT_TRUE(c.cloud->GetCell(id, &out).ok())
          << "seed " << seed << ": cell " << id << " lost (victims " << a
          << "," << b << ")";
      ASSERT_EQ(out, "d" + std::to_string(id));
    }
    // Two survivors can host only one replica per trunk: graceful degraded
    // factor, never zero.
    for (TrunkId t = 0; t < table->num_slots(); ++t) {
      EXPECT_EQ(table->replicas_of_trunk(t).size(), 1u) << "trunk " << t;
    }

    // Failback: the restarted machines rejoin, primaries rebalance onto
    // them, and re-replication converges the factor back to exactly k.
    ASSERT_TRUE(c.cloud->RestartMachine(a).ok());
    ASSERT_TRUE(c.cloud->RestartMachine(b).ok());
    c.cloud->RebalanceTrunks();
    c.cloud->DetectAndRecover();
    table = c.cloud->table();
    for (TrunkId t = 0; t < table->num_slots(); ++t) {
      const auto& replicas = table->replicas_of_trunk(t);
      ASSERT_EQ(replicas.size(), 2u)
          << "seed " << seed << ": trunk " << t << " not back to factor 2";
      std::set<MachineId> holders(replicas.begin(), replicas.end());
      holders.insert(table->machine_of_trunk(t));
      EXPECT_EQ(holders.size(), 3u) << "trunk " << t;
    }
    for (CellId id = 0; id < 96; ++id) {
      std::string out;
      ASSERT_TRUE(c.cloud->GetCell(id, &out).ok()) << "after failback";
      ASSERT_EQ(out, "d" + std::to_string(id));
    }
    ASSERT_TRUE(c.cloud->PutCell(0, Slice("post-failback")).ok());
  }
}

// ------------------------------------------- Replication: fencing (split)

// Split-brain: a primary partitioned away from the whole cluster is deposed
// in absentia (epoch bump). When the partition heals, the stale primary
// still holds its pre-promotion table — its next write self-routes, applies
// to its ghost image, and the replication fan-out reaches a machine with a
// newer epoch, which must fence it. The acked state of the new primary is
// never perturbed.
TEST(ReplicatedChaosTest, StalePrimaryIsFencedAfterPartitionPromotion) {
  const std::uint64_t seed = 77001 + SeedOffset();
  SCOPED_TRACE("chaos seed " + std::to_string(seed));
  ChaosCluster c =
      NewReplicatedCluster("split", seed, /*replication_factor=*/2);
  for (CellId id = 0; id < 64; ++id) {
    ASSERT_TRUE(c.cloud->PutCell(id, Slice("s" + std::to_string(id))).ok());
  }
  // A non-leader victim: the leader side keeps quorum and promotes.
  const MachineId victim = 2;
  const CellId contested = [&] {
    for (CellId id = 0; id < 64; ++id) {
      if (c.cloud->MachineOf(id) == victim) return id;
    }
    ADD_FAILURE() << "no cell owned by victim";
    return CellId{0};
  }();

  std::vector<MachineId> minority{victim};
  std::vector<MachineId> majority;
  for (MachineId m = 0; m <= c.cloud->client_id(); ++m) {
    if (m != victim) majority.push_back(m);
  }
  c.injector->Partition(minority, majority);

  // The sweep cannot reach the victim and promotes its trunks. The victim's
  // endpoint never went down — it is a live, deposed zombie.
  c.cloud->DetectAndRecover();
  EXPECT_TRUE(c.cloud->fabric().IsMachineUp(victim));
  EXPECT_TRUE(c.cloud->table()->trunks_of(victim).empty())
      << "victim still owns trunks after partition promotion";

  // Heal the network. The deposed primary can reach everyone again but was
  // excluded from table broadcasts while partitioned: it still believes it
  // owns its old trunks.
  c.injector->ClearPartitions();
  const std::uint64_t fenced_before = c.cloud->recovery_stats().fenced_writes;
  Status stale = c.cloud->PutCellFrom(victim, contested, Slice("split-brain"));
  EXPECT_TRUE(stale.IsAborted())
      << "stale primary acked a write after promotion: " << stale.message();
  EXPECT_GT(c.cloud->recovery_stats().fenced_writes, fenced_before);

  // The cluster's view of the contested cell is untouched.
  std::string out;
  ASSERT_TRUE(c.cloud->GetCell(contested, &out).ok());
  EXPECT_EQ(out, "s" + std::to_string(contested));

  // The fenced zombie rejoins cleanly: restart discards its ghost image,
  // re-replication folds it back in, and writes from it route correctly.
  ASSERT_TRUE(c.cloud->RestartMachine(victim).ok());
  c.cloud->DetectAndRecover();
  ASSERT_TRUE(
      c.cloud->PutCellFrom(victim, contested, Slice("rejoined")).ok());
  ASSERT_TRUE(c.cloud->GetCell(contested, &out).ok());
  EXPECT_EQ(out, "rejoined");
}

// -------------------------------------- Replication: BSP checkpoint e2e

// Integer (fixed-point) PageRank: message folding is an exact sum, so final
// ranks are reproducible bit for bit even when a failover reshuffles vertex
// ownership mid-run (message arrival order may change; their sum cannot).
compute::BspEngine::Program FixedPointPageRankProgram() {
  return [](compute::BspEngine::VertexContext& ctx) {
    std::uint64_t rank = 1000000;  // 1.0 in micro-units.
    if (ctx.superstep() > 0) {
      std::uint64_t sum = 0;
      for (Slice m : ctx.messages()) {
        std::uint64_t v = 0;
        std::memcpy(&v, m.data(), 8);
        sum += v;
      }
      rank = 150000 + (sum * 85) / 100;
    }
    ctx.value().assign(reinterpret_cast<const char*>(&rank), 8);
    if (ctx.out_count() > 0) {
      const std::uint64_t share =
          rank / static_cast<std::uint64_t>(ctx.out_count());
      char buf[8];
      std::memcpy(buf, &share, 8);
      ctx.SendToAllOut(Slice(buf, 8));
    }
  };
}

// The full robustness story end to end: a checkpointing PageRank is killed
// mid-superstep, the cloud promotes replicas (zero TFS trunk reads — only
// the checkpoint file itself is ever read back), and a fresh engine resumes
// from the last checkpoint to ranks bit-identical to a crash-free run.
TEST(ReplicatedBspCheckpointTest, CrashMidRunRestoresBitIdentical) {
  int restored_runs = 0;
  for (std::uint64_t s = 1; s <= 6; ++s) {
    const std::uint64_t seed = s + SeedOffset();
    SCOPED_TRACE("chaos seed " + std::to_string(seed));

    compute::BspEngine::Options bopts;
    bopts.superstep_limit = kPrSupersteps;
    bopts.checkpoint_interval = 1;
    bopts.checkpoint_prefix = "ck";
    graph::Graph::Options gopts;
    gopts.track_inlinks = false;

    // Crash-free baseline, same engine configuration.
    std::map<CellId, std::string> expected;
    {
      ChaosCluster base =
          NewReplicatedCluster("bspck_base", seed, /*replication_factor=*/2);
      graph::Graph base_graph(base.cloud.get(), gopts);
      BuildPageRankGraph(&base_graph);
      compute::BspEngine::Options opts = bopts;
      opts.tfs = base.tfs.get();
      compute::BspEngine engine(&base_graph, opts);
      compute::BspEngine::RunStats stats;
      ASSERT_TRUE(engine.Run(FixedPointPageRankProgram(), &stats).ok());
      engine.ForEachValue([&](CellId v, const std::string& value) {
        expected[v] = value;
      });
    }
    ASSERT_EQ(expected.size(), static_cast<std::size_t>(kPrVertices));

    ChaosCluster c =
        NewReplicatedCluster("bspck", seed, /*replication_factor=*/2);
    graph::Graph graph(c.cloud.get(), gopts);
    BuildPageRankGraph(&graph);
    Random rng(seed * 0x2545f4914f6cdd1dULL + 13);
    const MachineId victim =
        static_cast<MachineId>(rng.Uniform(c.cloud->num_slaves()));
    // A full run touches each machine only ~100 times, so the countdown sits
    // in [20, 90): past the first checkpoint, before the final superstep.
    c.injector->CrashAfter(victim, 20 + rng.Uniform(70));

    bopts.tfs = c.tfs.get();
    std::map<CellId, std::string> got;
    bool done = false;
    for (int attempt = 0; attempt < 6 && !done; ++attempt) {
      const bool had_checkpoint = c.tfs->Exists("ck/state");
      // A fresh engine per attempt: ownership may have shifted under the
      // failover, and the engine snapshots the table at construction.
      compute::BspEngine engine(&graph, bopts);
      compute::BspEngine::RunStats stats;
      Status st = engine.Run(FixedPointPageRankProgram(), &stats);
      if (st.ok()) {
        if (had_checkpoint) {
          EXPECT_TRUE(stats.restored_from_checkpoint)
              << "seed " << seed
              << ": checkpoint existed but the run started from scratch";
        }
        if (stats.restored_from_checkpoint) ++restored_runs;
        engine.ForEachValue([&](CellId v, const std::string& value) {
          got[v] = value;
        });
        done = true;
        break;
      }
      ASSERT_TRUE(st.IsUnavailable()) << "seed " << seed << ": "
                                      << st.message();
      HealReplicated(c);  // Asserts zero TFS reads on the promotion path.
    }
    ASSERT_TRUE(done) << "seed " << seed << ": run never completed";
    EXPECT_EQ(got, expected)
        << "seed " << seed << ": ranks not bit-identical after recovery";
    EXPECT_EQ(c.cloud->recovery_stats().tfs_fallback_reloads, 0u)
        << "seed " << seed;
  }
  EXPECT_GT(restored_runs, 0)
      << "no seed in the sweep exercised a checkpoint restore";
}

// ------------------------------------ Replication: concurrent readers

class ReplicatedConcurrentReadChaosTest
    : public ::testing::TestWithParam<std::uint64_t> {};

// Readers hammer the lock-free hot path — shared trunk locks, RCU routing
// snapshots, and batched MultiGet — while the main thread kills and heals a
// seed-chosen victim each round. Cell values never change after the initial
// load, so every read must either return the exact loaded bytes or fail
// cleanly; a read that returns *wrong* bytes (torn copy, stale-routed ghost
// image) is precisely the bug this test exists to catch. The fault schedule
// is deterministic per seed; the reader interleaving is not, so every
// assertion is an invariant that holds under any interleaving.
TEST_P(ReplicatedConcurrentReadChaosTest, ReadersSurviveFailoverRounds) {
  const std::uint64_t seed = GetParam() + SeedOffset();
  SCOPED_TRACE("chaos seed " + std::to_string(seed));
  ChaosCluster c =
      NewReplicatedCluster("crdr", seed, /*replication_factor=*/1);

  constexpr CellId kCells = 96;
  auto value_of = [](CellId id) { return "r" + std::to_string(id); };
  for (CellId id = 0; id < kCells; ++id) {
    ASSERT_TRUE(c.cloud->PutCell(id, Slice(value_of(id))).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> wrong{0};
  std::atomic<std::uint64_t> ok_reads{0};
  std::atomic<int> running{0};
  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Random rng(seed * 0x9e3779b97f4a7c15ULL + 101 + t);
      running.fetch_add(1, std::memory_order_release);
      while (!stop.load(std::memory_order_acquire)) {
        if (t == 0) {
          // Batched path: one MultiGet over a contiguous window of ids.
          std::vector<CellId> ids;
          const CellId base = static_cast<CellId>(rng.Uniform(kCells));
          for (CellId i = 0; i < 16; ++i) ids.push_back((base + i) % kCells);
          std::vector<cloud::MemoryCloud::MultiGetResult> out;
          if (!c.cloud->MultiGet(ids, &out).ok()) continue;
          for (std::size_t i = 0; i < ids.size(); ++i) {
            if (!out[i].status.ok()) continue;  // Clean miss mid-failover.
            ok_reads.fetch_add(1, std::memory_order_relaxed);
            if (out[i].value != value_of(ids[i])) {
              wrong.fetch_add(1, std::memory_order_relaxed);
            }
          }
        } else {
          const CellId id = static_cast<CellId>(rng.Uniform(kCells));
          std::string v;
          if (!c.cloud->GetCell(id, &v).ok()) continue;
          ok_reads.fetch_add(1, std::memory_order_relaxed);
          if (v != value_of(id)) {
            wrong.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  // The rounds take a few milliseconds; on a loaded host the readers may
  // not be scheduled before they end, and then no read races a failover.
  while (running.load(std::memory_order_acquire) < kReaders) {
    std::this_thread::yield();
  }

  Random rng(seed * 0x2545f4914f6cdd1dULL + 17);
  const int kRounds = 4;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const MachineId victim =
        static_cast<MachineId>(rng.Uniform(c.cloud->num_slaves()));
    ASSERT_TRUE(c.cloud->FailMachine(victim).ok());
    // A degraded window: readers keep running against in-memory replicas
    // while the owner is down; the main thread joins the traffic so the
    // window is never empty even if the reader threads are descheduled.
    for (int op = 0; op < 200; ++op) {
      std::string v;
      const CellId id = static_cast<CellId>(rng.Uniform(kCells));
      if (c.cloud->GetCell(id, &v).ok()) {
        ASSERT_EQ(v, value_of(id)) << "seed " << seed << " cell " << id;
      }
    }
    HealReplicated(c);  // Asserts zero TFS reads on the promotion path.
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_EQ(wrong.load(), 0u)
      << "seed " << seed << ": a concurrent reader observed wrong bytes";
  EXPECT_GT(ok_reads.load(), 0u) << "seed " << seed;
  EXPECT_GT(c.cloud->recovery_stats().degraded_reads, 0u)
      << "seed " << seed << ": no read was ever served degraded";

  // Final audit on the healed cluster: nothing lost, nothing mutated.
  for (CellId id = 0; id < kCells; ++id) {
    std::string v;
    ASSERT_TRUE(c.cloud->GetCell(id, &v).ok())
        << "seed " << seed << ": cell " << id << " lost";
    ASSERT_EQ(v, value_of(id)) << "seed " << seed;
  }
  std::vector<CellId> all;
  for (CellId id = 0; id < kCells; ++id) all.push_back(id);
  std::vector<cloud::MemoryCloud::MultiGetResult> out;
  ASSERT_TRUE(c.cloud->MultiGet(all, &out).ok());
  for (CellId id = 0; id < kCells; ++id) {
    ASSERT_TRUE(out[id].status.ok()) << "seed " << seed << " cell " << id;
    ASSERT_EQ(out[id].value, value_of(id)) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicatedConcurrentReadChaosTest,
                         ::testing::Range<std::uint64_t>(1, 11));

// ------------------------------------------------------- Crash image

// An injected crash drops the machine's memory at once, exactly as
// FailMachine does: nothing keeps an unreachable image around. A reader
// that pinned the storage and a trunk accessor before the crash still reads
// the bytes it pinned, and recovery restores the acked write.
TEST(CrashImageChaosTest, InjectedCrashFreesStorageButNotPinnedReaders) {
  const std::uint64_t seed = 77 + SeedOffset();
  ChaosCluster c = NewCluster("image", seed);
  const MachineId victim = 1;
  CellId id = 0;
  while (c.cloud->MachineOf(id) != victim) ++id;
  ASSERT_TRUE(c.cloud->PutCell(id, Slice("pinned bytes")).ok());

  auto store = c.cloud->storage(victim);
  ASSERT_NE(store, nullptr);
  const std::weak_ptr<storage::MemoryStorage> image = store;
  const auto trunk = store->Pin()->primary_at(c.cloud->TrunkOf(id));
  ASSERT_NE(trunk, nullptr);
  storage::MemoryTrunk::ConstAccessor accessor;
  ASSERT_TRUE(trunk->Access(id, &accessor).ok());

  c.injector->CrashAfter(victim, 1);
  DrainCrashSchedule(c, victim);
  ASSERT_FALSE(c.cloud->fabric().IsMachineUp(victim)) << "seed " << seed;
  EXPECT_EQ(c.cloud->storage(victim), nullptr);
  EXPECT_EQ(accessor.data().ToString(), "pinned bytes");
  store.reset();
  EXPECT_TRUE(image.expired()) << "the crash kept the storage image";
  // The trunk pin outlives the storage that held it.
  EXPECT_EQ(accessor.data().ToString(), "pinned bytes");
  accessor = storage::MemoryTrunk::ConstAccessor();
  std::string out;
  ASSERT_TRUE(trunk->GetCell(id, &out).ok());
  EXPECT_EQ(out, "pinned bytes");

  HealCluster(c);
  ASSERT_TRUE(c.cloud->GetCell(id, &out).ok()) << "seed " << seed;
  EXPECT_EQ(out, "pinned bytes");
}

// ----------------------------------------------------------- Determinism

// The replayability contract: two clusters driven by the same seed and the
// same workload make byte-identical fault decisions — the printed seed of a
// failing chaos run is a complete reproducer.
TEST(ChaosDeterminismTest, SameSeedSameFaultSequence) {
  const std::uint64_t seed = 424242 + SeedOffset();
  auto run = [&](const std::string& tag) {
    ChaosCluster c = NewCluster(tag, seed);
    net::FaultInjector::Policy wire;
    wire.call_fail_prob = 0.1;
    wire.call_timeout_prob = 0.1;
    wire.drop_prob = 0.1;
    c.injector->SetDefaultPolicy(wire);
    c.injector->CrashAfter(2, 100);
    Random rng(seed);
    std::string acked;
    for (int op = 0; op < 250; ++op) {
      const CellId id = static_cast<CellId>(rng.Uniform(32));
      if (c.cloud->PutCell(id, Slice("x" + std::to_string(op))).ok()) {
        acked += std::to_string(op) + ",";
      }
    }
    const net::FaultInjector::Stats fs = c.injector->stats();
    const net::NetworkStats ns = c.cloud->fabric().stats();
    return std::make_tuple(acked, fs.failed_calls, fs.timed_out_calls,
                           fs.dropped, fs.crashes, ns.sync_calls,
                           ns.injected_call_failures, ns.injected_crashes);
  };
  EXPECT_EQ(run("det_a"), run("det_b"));
}

}  // namespace
}  // namespace trinity
