// Unit coverage for hot-standby trunk replication: rendezvous placement,
// the synchronous write path, degraded reads, promotion failover, epoch
// fencing, sweep reports and re-replication. Deterministic companions to
// the randomized scenarios in chaos_test.cc.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "cloud/memory_cloud.h"
#include "cloud/replica_placement.h"
#include "net/fault_injector.h"
#include "tfs/tfs.h"

namespace trinity {
namespace {

// ------------------------------------------------------------- placement

std::vector<MachineId> Machines(int n) {
  std::vector<MachineId> v;
  for (MachineId m = 0; m < n; ++m) v.push_back(m);
  return v;
}

TEST(ReplicaPlacementTest, DistinctMachinesAndNeverThePrimary) {
  const std::vector<MachineId> machines = Machines(8);
  for (TrunkId t = 0; t < 64; ++t) {
    for (MachineId primary = 0; primary < 8; ++primary) {
      for (int k = 1; k <= 4; ++k) {
        const std::vector<MachineId> targets =
            cloud::ReplicaTargets(t, primary, k, machines);
        ASSERT_EQ(targets.size(), static_cast<std::size_t>(k));
        std::set<MachineId> distinct(targets.begin(), targets.end());
        EXPECT_EQ(distinct.size(), targets.size())
            << "trunk " << t << " placed two replicas on one machine";
        EXPECT_EQ(distinct.count(primary), 0u)
            << "trunk " << t << " placed a replica on its primary";
      }
    }
  }
}

TEST(ReplicaPlacementTest, IndependentOfCandidateOrdering) {
  std::vector<MachineId> machines = Machines(6);
  const std::vector<MachineId> forward =
      cloud::ReplicaTargets(7, 2, 3, machines);
  std::reverse(machines.begin(), machines.end());
  EXPECT_EQ(cloud::ReplicaTargets(7, 2, 3, machines), forward);
}

// The consistent-hashing property: removing one machine re-places only the
// replicas that lived on it — survivors keep their assignments.
TEST(ReplicaPlacementTest, StableUnderMembershipChurn) {
  const std::vector<MachineId> all = Machines(8);
  const MachineId removed = 5;
  std::vector<MachineId> shrunk;
  for (MachineId m : all) {
    if (m != removed) shrunk.push_back(m);
  }
  int moved = 0, kept = 0;
  for (TrunkId t = 0; t < 128; ++t) {
    const MachineId primary = t % 8 == removed ? 0 : t % 8;
    const auto before = cloud::ReplicaTargets(t, primary, 2, all);
    const auto after = cloud::ReplicaTargets(t, primary, 2, shrunk);
    for (MachineId b : before) {
      const bool still = std::find(after.begin(), after.end(), b) !=
                         after.end();
      if (b == removed) {
        EXPECT_FALSE(still);
        ++moved;
      } else {
        EXPECT_TRUE(still) << "trunk " << t << ": survivor " << b
                           << " lost its replica to churn";
        ++kept;
      }
    }
  }
  EXPECT_GT(moved, 0);  // The removed machine did hold replicas.
  EXPECT_GT(kept, moved);
}

TEST(ReplicaPlacementTest, GracefulWhenClusterSmallerThanKPlusOne) {
  EXPECT_EQ(cloud::ReplicaTargets(3, 0, 3, Machines(2)),
            (std::vector<MachineId>{1}));
  EXPECT_TRUE(cloud::ReplicaTargets(3, 0, 2, Machines(1)).empty());
  EXPECT_TRUE(cloud::ReplicaTargets(3, 0, 0, Machines(8)).empty());
}

// ---------------------------------------------------------- cloud fixture

std::string FreshTfsRoot(const std::string& tag) {
  const std::string root = ::testing::TempDir() + "/repl_" + tag + "_" +
                           std::to_string(::getpid());
  std::filesystem::remove_all(root);
  return root;
}

struct Cluster {
  std::unique_ptr<tfs::Tfs> tfs;
  std::unique_ptr<net::FaultInjector> injector;
  std::unique_ptr<cloud::MemoryCloud> cloud;
};

Cluster NewReplicatedCluster(const std::string& tag, int replication_factor,
                             bool with_tfs, bool auto_promote = true,
                             int slaves = 4) {
  Cluster c;
  if (with_tfs) {
    tfs::Tfs::Options tfs_options;
    tfs_options.root = FreshTfsRoot(tag);
    EXPECT_TRUE(tfs::Tfs::Open(tfs_options, &c.tfs).ok());
  }
  c.injector = std::make_unique<net::FaultInjector>(0x5eedu);
  cloud::MemoryCloud::Options options;
  options.num_slaves = slaves;
  options.p_bits = 4;
  options.storage.trunk.capacity = 256 * 1024;
  options.tfs = c.tfs.get();
  options.replication_factor = replication_factor;
  options.auto_promote = auto_promote;
  EXPECT_TRUE(cloud::MemoryCloud::Create(options, &c.cloud).ok());
  c.cloud->fabric().SetFaultInjector(c.injector.get());
  return c;
}

// First cell id hashing into a trunk owned by `machine`.
CellId CellOwnedBy(cloud::MemoryCloud* cloud, MachineId machine) {
  for (CellId id = 0; id < 100000; ++id) {
    if (cloud->MachineOf(id) == machine) return id;
  }
  ADD_FAILURE() << "no cell hashes to machine " << machine;
  return 0;
}

// Every alive endpoint reaches the owner of `id` in one sync call, or none
// when it is the owner: a stale route would add a failed call and a retry.
void ExpectFreshRoutes(cloud::MemoryCloud* cloud, CellId id) {
  const MachineId owner =
      cloud->table()->machine_of_trunk(cloud->TrunkOf(id));
  for (MachineId src = 0; src < cloud->num_endpoints(); ++src) {
    if (!cloud->fabric().IsMachineUp(src)) continue;
    const std::uint64_t before = cloud->fabric().stats().sync_calls;
    std::string out;
    EXPECT_TRUE(cloud->GetCellFrom(src, id, &out).ok()) << "from " << src;
    EXPECT_EQ(cloud->fabric().stats().sync_calls - before,
              src == owner ? 0u : 1u)
        << "cell " << id << " from " << src;
  }
}

// ------------------------------------------------------------- protocol

TEST(ReplicationTest, CreateRejectsReplicationPlusBufferedLogging) {
  cloud::MemoryCloud::Options options;
  options.num_slaves = 4;
  options.p_bits = 4;
  options.buffered_logging = true;
  options.replication_factor = 2;
  std::unique_ptr<cloud::MemoryCloud> cloud;
  EXPECT_TRUE(
      cloud::MemoryCloud::Create(options, &cloud).IsInvalidArgument());
  options.buffered_logging = false;
  options.replication_factor = -1;
  EXPECT_TRUE(
      cloud::MemoryCloud::Create(options, &cloud).IsInvalidArgument());
}

TEST(ReplicationTest, EveryTrunkSeededWithDistinctReplicas) {
  Cluster c = NewReplicatedCluster("seed", 2, /*with_tfs=*/false);
  const auto table = c.cloud->table();
  for (TrunkId t = 0; t < table->num_slots(); ++t) {
    const auto& replicas = table->replicas_of_trunk(t);
    ASSERT_EQ(replicas.size(), 2u);
    std::set<MachineId> holders(replicas.begin(), replicas.end());
    holders.insert(table->machine_of_trunk(t));
    EXPECT_EQ(holders.size(), 3u) << "trunk " << t;
    // Each replica machine actually hosts the replica trunk.
    for (MachineId r : replicas) {
      EXPECT_NE(c.cloud->storage(r)->replica_trunk(t), nullptr);
    }
  }
}

TEST(ReplicationTest, WritesReachEveryInSyncReplica) {
  Cluster c = NewReplicatedCluster("write", 2, /*with_tfs=*/false);
  for (CellId id = 0; id < 64; ++id) {
    ASSERT_TRUE(c.cloud->PutCell(id, Slice("v" + std::to_string(id))).ok());
  }
  const auto table = c.cloud->table();
  for (CellId id = 0; id < 64; ++id) {
    const TrunkId t = c.cloud->TrunkOf(id);
    for (MachineId r : table->replicas_of_trunk(t)) {
      auto replica = c.cloud->storage(r)->replica_trunk(t);
      ASSERT_NE(replica, nullptr);
      std::string out;
      ASSERT_TRUE(replica->GetCell(id, &out).ok())
          << "cell " << id << " missing on replica machine " << r;
      EXPECT_EQ(out, "v" + std::to_string(id));
    }
  }
  // Removes, adds and appends mirror too.
  ASSERT_TRUE(c.cloud->RemoveCell(7).ok());
  const TrunkId t7 = c.cloud->TrunkOf(7);
  for (MachineId r : table->replicas_of_trunk(t7)) {
    EXPECT_FALSE(c.cloud->storage(r)->replica_trunk(t7)->Contains(7));
  }
  ASSERT_TRUE(c.cloud->AddCell(100, Slice("added")).ok());
  ASSERT_TRUE(c.cloud->AppendToCell(8, Slice("+tail")).ok());
  for (const auto& [id, want] : {std::pair<CellId, std::string>{100, "added"},
                                 std::pair<CellId, std::string>{8, "v8+tail"}}) {
    const TrunkId t = c.cloud->TrunkOf(id);
    ASSERT_FALSE(table->replicas_of_trunk(t).empty());
    for (MachineId r : table->replicas_of_trunk(t)) {
      std::string out;
      ASSERT_TRUE(c.cloud->storage(r)->replica_trunk(t)->GetCell(id, &out).ok())
          << "cell " << id << " missing on replica machine " << r;
      EXPECT_EQ(out, want);
    }
  }
  // A dead replica holder is shrunk out of the in-sync set by the next
  // write; the shrink's broadcast leaves every route fresh.
  MachineId dead = table->replicas_of_trunk(t7)[0];
  if (dead == c.cloud->leader()) dead = table->replicas_of_trunk(t7)[1];
  ASSERT_TRUE(c.cloud->FailMachine(dead).ok());
  ASSERT_TRUE(c.cloud->PutCell(7, Slice("shrunk")).ok());
  EXPECT_EQ(c.cloud->table()->replicas_of_trunk(t7).size(), 1u);
  ExpectFreshRoutes(c.cloud.get(), 7);
}

TEST(ReplicationTest, DegradedReadServedByReplicaWhilePrimaryDown) {
  Cluster c = NewReplicatedCluster("degraded", 2, /*with_tfs=*/false,
                                   /*auto_promote=*/false);
  const MachineId victim = 2;
  const CellId id = CellOwnedBy(c.cloud.get(), victim);
  ASSERT_TRUE(c.cloud->PutCell(id, Slice("survives")).ok());
  ASSERT_TRUE(c.cloud->FailMachine(victim).ok());

  // Reads fail over to a replica immediately — no promotion has run.
  std::string out;
  ASSERT_TRUE(c.cloud->GetCell(id, &out).ok())
      << "degraded read not served";
  EXPECT_EQ(out, "survives");
  bool exists = false;
  ASSERT_TRUE(c.cloud->Contains(id, &exists).ok());
  EXPECT_TRUE(exists);
  EXPECT_GE(c.cloud->recovery_stats().degraded_reads, 2u);
  EXPECT_EQ(c.cloud->table()->machine_of_trunk(c.cloud->TrunkOf(id)), victim)
      << "promotion ran even though auto_promote is off";

  // Writes to the affected trunk stay retryable until promotion lands.
  Status ws = c.cloud->PutCell(id, Slice("blocked"));
  ASSERT_TRUE(ws.IsUnavailable()) << ws.message();

  // The sweep promotes; the same write then succeeds and the degraded value
  // was preserved through the metadata flip.
  cloud::MemoryCloud::SweepReport report;
  EXPECT_EQ(c.cloud->DetectAndRecover(&report), 1);
  ASSERT_EQ(report.recovered.size(), 1u);
  EXPECT_EQ(report.recovered[0], victim);
  ASSERT_TRUE(c.cloud->PutCell(id, Slice("after-promote")).ok());
  ASSERT_TRUE(c.cloud->GetCell(id, &out).ok());
  EXPECT_EQ(out, "after-promote");
}

TEST(ReplicationTest, PromotionIsMetadataOnlyZeroTfsReads) {
  Cluster c = NewReplicatedCluster("promote", 2, /*with_tfs=*/true);
  for (CellId id = 0; id < 64; ++id) {
    ASSERT_TRUE(c.cloud->PutCell(id, Slice("p" + std::to_string(id))).ok());
  }
  ASSERT_TRUE(c.cloud->SaveSnapshot().ok());  // Cold tier exists but is idle.
  const MachineId victim = 1;
  ASSERT_TRUE(c.cloud->FailMachine(victim).ok());

  const tfs::Tfs::Stats before = c.tfs->stats();
  // First access promotes inline (auto_promote): a pure metadata flip.
  const CellId id = CellOwnedBy(c.cloud.get(), victim);
  ASSERT_TRUE(c.cloud->PutCell(id, Slice("rewritten")).ok());
  const tfs::Tfs::Stats after = c.tfs->stats();
  EXPECT_EQ(after.files_read, before.files_read)
      << "promotion hot path read from TFS";
  EXPECT_EQ(after.blocks_read, before.blocks_read);

  const net::RecoveryStats rs = c.cloud->recovery_stats();
  EXPECT_GT(rs.promotions, 0u);
  EXPECT_EQ(rs.tfs_fallback_reloads, 0u);
  EXPECT_GT(rs.last_promote_micros, 0u);
  ExpectFreshRoutes(c.cloud.get(), id);

  // Every pre-failure value survived in memory.
  for (CellId i = 0; i < 64; ++i) {
    std::string out;
    ASSERT_TRUE(c.cloud->GetCell(i, &out).ok()) << "cell " << i;
    EXPECT_EQ(out, i == id ? "rewritten" : "p" + std::to_string(i));
  }
}

TEST(ReplicationTest, TfsColdTierUsedOnlyWhenEveryReplicaIsLost) {
  Cluster c = NewReplicatedCluster("coldtier", 1, /*with_tfs=*/true);
  for (CellId id = 0; id < 64; ++id) {
    ASSERT_TRUE(c.cloud->PutCell(id, Slice("c" + std::to_string(id))).ok());
  }
  ASSERT_TRUE(c.cloud->SaveSnapshot().ok());
  // Pick a trunk and kill both its primary and its single replica.
  const TrunkId t = 0;
  const MachineId primary = c.cloud->table()->machine_of_trunk(t);
  ASSERT_EQ(c.cloud->table()->replicas_of_trunk(t).size(), 1u);
  const MachineId replica = c.cloud->table()->replicas_of_trunk(t)[0];
  ASSERT_TRUE(c.cloud->FailMachine(primary).ok());
  ASSERT_TRUE(c.cloud->FailMachine(replica).ok());

  const tfs::Tfs::Stats before = c.tfs->stats();
  // The snapshot write above must already be metered in bytes.
  EXPECT_GT(before.bytes_written, 0u);
  cloud::MemoryCloud::SweepReport report;
  EXPECT_EQ(c.cloud->DetectAndRecover(&report), 2);
  const tfs::Tfs::Stats after = c.tfs->stats();
  EXPECT_GT(c.cloud->recovery_stats().tfs_fallback_reloads, 0u);
  EXPECT_GT(after.files_read, before.files_read)
      << "all-replicas-lost trunk was not reloaded from the cold tier";
  EXPECT_GT(after.bytes_read, before.bytes_read)
      << "trunk image reload did not meter bytes_read";
  EXPECT_EQ(after.bytes_read, c.tfs->bytes_read());  // Lock-free view agrees.

  // Routes are fresh after the reload.
  CellId in_t = 0;
  while (c.cloud->TrunkOf(in_t) != t) ++in_t;
  ExpectFreshRoutes(c.cloud.get(), in_t);

  // Snapshot-covered data is back; every cell is readable somewhere.
  for (CellId id = 0; id < 64; ++id) {
    std::string out;
    ASSERT_TRUE(c.cloud->GetCell(id, &out).ok()) << "cell " << id;
    EXPECT_EQ(out, "c" + std::to_string(id));
  }
  // A machine restarted after missing the reload's broadcast routes fresh.
  ASSERT_TRUE(c.cloud->RestartMachine(primary).ok());
  ExpectFreshRoutes(c.cloud.get(), in_t);
}

TEST(ReplicationTest, SweepReportSurfacesUnrecoverableMachines) {
  // k=1 and no TFS: losing a trunk's primary AND its only replica is
  // unrecoverable — the sweep must say so instead of discarding the error,
  // and must leave the machine down for the next sweep to retry.
  Cluster c = NewReplicatedCluster("report", 1, /*with_tfs=*/false);
  const TrunkId t = 0;
  const MachineId primary = c.cloud->table()->machine_of_trunk(t);
  const MachineId replica = c.cloud->table()->replicas_of_trunk(t)[0];
  ASSERT_TRUE(c.cloud->FailMachine(primary).ok());
  ASSERT_TRUE(c.cloud->FailMachine(replica).ok());

  cloud::MemoryCloud::SweepReport report;
  c.cloud->DetectAndRecover(&report);
  ASSERT_FALSE(report.failed.empty());
  bool found = false;
  for (const auto& [machine, status] : report.failed) {
    EXPECT_TRUE(status.IsUnavailable());
    EXPECT_NE(status.message().find("lost"), std::string::npos);
    if (machine == primary || machine == replica) found = true;
    EXPECT_FALSE(c.cloud->fabric().IsMachineUp(machine))
        << "failed machine not left down for retry";
  }
  EXPECT_TRUE(found);
  // The next sweep retries and reports the same terminal condition.
  cloud::MemoryCloud::SweepReport again;
  c.cloud->DetectAndRecover(&again);
  EXPECT_FALSE(again.failed.empty());
}

// A recovery request for a machine that is up does nothing. A reader can
// issue one late (it saw the machine down, then was descheduled); acting on
// it would depose the live primary and restart empty every trunk whose only
// other copy sat on a crashed replica holder.
TEST(ReplicationTest, RecoveryRequestForLivePrimaryIsRefused) {
  Cluster c = NewReplicatedCluster("liveprimary", 1, /*with_tfs=*/true);
  for (CellId id = 0; id < 96; ++id) {
    ASSERT_TRUE(c.cloud->PutCell(id, Slice("v" + std::to_string(id))).ok());
  }
  // No snapshot: a trunk recreated empty would lose its cells for good.
  const TrunkId t = c.cloud->TrunkOf(0);
  const MachineId primary = c.cloud->table()->machine_of_trunk(t);
  const MachineId replica = c.cloud->table()->replicas_of_trunk(t)[0];
  ASSERT_TRUE(c.cloud->FailMachine(replica).ok());

  const std::uint64_t version = c.cloud->table()->version();
  const Status s = c.cloud->RecoverMachine(primary);
  EXPECT_TRUE(s.IsAlreadyExists()) << s.message();
  EXPECT_EQ(c.cloud->table()->version(), version);
  EXPECT_TRUE(c.cloud->fabric().IsMachineUp(primary));
  EXPECT_EQ(c.cloud->table()->machine_of_trunk(t), primary);

  for (CellId id = 0; id < 96; ++id) {
    std::string out;
    ASSERT_TRUE(c.cloud->GetCell(id, &out).ok()) << "cell " << id;
    EXPECT_EQ(out, "v" + std::to_string(id));
  }
  EXPECT_EQ(c.cloud->recovery_stats().trunks_lost, 0u);
}

// The sweep deposes an unreachable primary only when every trunk it owns has
// a live in-sync replica. Here its replica holder crashed first, so the
// partitioned primary holds the only copy of a trunk: the sweep reports it
// and leaves it alone, and healing the partition loses nothing.
TEST(ReplicationTest, SweepRefusesToDeposeTheOnlyCopyHolder) {
  Cluster c = NewReplicatedCluster("solecopy", 1, /*with_tfs=*/true);
  for (CellId id = 0; id < 96; ++id) {
    ASSERT_TRUE(c.cloud->PutCell(id, Slice("s" + std::to_string(id))).ok());
  }
  // Primary and replica both off the leader, which must keep probing.
  const auto table = c.cloud->table();
  TrunkId t = 0;
  while (t < table->num_slots() &&
         (table->machine_of_trunk(t) == c.cloud->leader() ||
          table->replicas_of_trunk(t)[0] == c.cloud->leader())) {
    ++t;
  }
  ASSERT_LT(t, table->num_slots());
  const MachineId primary = table->machine_of_trunk(t);
  const MachineId replica = table->replicas_of_trunk(t)[0];
  const std::vector<TrunkId> owned = table->trunks_of(primary);
  ASSERT_TRUE(c.cloud->FailMachine(replica).ok());
  std::vector<MachineId> rest;
  for (MachineId m = 0; m <= c.cloud->client_id(); ++m) {
    if (m != primary) rest.push_back(m);
  }
  c.injector->Partition({primary}, rest);

  cloud::MemoryCloud::SweepReport report;
  c.cloud->DetectAndRecover(&report);
  bool refused = false;
  for (const auto& [machine, status] : report.failed) {
    if (machine != primary) continue;
    refused = true;
    EXPECT_TRUE(status.IsUnavailable()) << status.message();
  }
  EXPECT_TRUE(refused) << "sweep did not report the sole-copy holder";
  EXPECT_TRUE(c.cloud->fabric().IsMachineUp(primary));
  for (TrunkId u : owned) {
    EXPECT_EQ(c.cloud->table()->machine_of_trunk(u), primary) << "trunk " << u;
  }

  c.injector->ClearPartitions();
  cloud::MemoryCloud::SweepReport healed;
  c.cloud->DetectAndRecover(&healed);
  EXPECT_TRUE(healed.failed.empty());
  for (CellId id = 0; id < 96; ++id) {
    std::string out;
    ASSERT_TRUE(c.cloud->GetCell(id, &out).ok()) << "cell " << id;
    EXPECT_EQ(out, "s" + std::to_string(id));
  }
  EXPECT_EQ(c.cloud->recovery_stats().trunks_lost, 0u);
}

TEST(ReplicationTest, ReReplicationRestoresTheFactor) {
  Cluster c = NewReplicatedCluster("rerepl", 2, /*with_tfs=*/false);
  for (CellId id = 0; id < 64; ++id) {
    ASSERT_TRUE(c.cloud->PutCell(id, Slice("r" + std::to_string(id))).ok());
  }
  const MachineId victim = 3;
  ASSERT_TRUE(c.cloud->FailMachine(victim).ok());
  cloud::MemoryCloud::SweepReport report;
  EXPECT_EQ(c.cloud->DetectAndRecover(&report), 1);
  EXPECT_GT(report.rereplicated_trunks, 0);

  // With 3 survivors, every trunk supports at most 2 holders beyond its
  // primary; the factor must be fully restored across them.
  const auto table = c.cloud->table();
  for (TrunkId t = 0; t < table->num_slots(); ++t) {
    const MachineId primary = table->machine_of_trunk(t);
    EXPECT_NE(primary, victim);
    const auto& replicas = table->replicas_of_trunk(t);
    ASSERT_EQ(replicas.size(), 2u) << "trunk " << t << " under-replicated";
    std::set<MachineId> holders(replicas.begin(), replicas.end());
    holders.insert(primary);
    EXPECT_EQ(holders.size(), 3u) << "trunk " << t;
    EXPECT_EQ(holders.count(victim), 0u) << "trunk " << t;
    for (MachineId r : replicas) {
      auto replica = c.cloud->storage(r)->replica_trunk(t);
      ASSERT_NE(replica, nullptr) << "trunk " << t << " on " << r;
    }
  }
  const net::RecoveryStats rs = c.cloud->recovery_stats();
  EXPECT_GT(rs.trunks_rereplicated, 0u);
  EXPECT_GT(rs.bytes_rereplicated, 0u);
  EXPECT_GE(rs.last_full_replication_micros, rs.last_promote_micros);

  // The restored replicas are in sync: writes after repair reach them.
  ASSERT_TRUE(c.cloud->PutCell(1, Slice("post-repair")).ok());
  const TrunkId t1 = c.cloud->TrunkOf(1);
  for (MachineId r : table->replicas_of_trunk(t1)) {
    std::string out;
    ASSERT_TRUE(
        c.cloud->storage(r)->replica_trunk(t1)->GetCell(1, &out).ok());
    EXPECT_EQ(out, "post-repair");
  }
}

TEST(ReplicationTest, ReplicationSurvivesFaultyReplicationWire) {
  // Target exactly the replication handler range with injected failures:
  // acked writes must survive a later failover even when the replication
  // wire was flaky while they committed.
  Cluster c = NewReplicatedCluster("wire", 2, /*with_tfs=*/false);
  net::FaultInjector::Policy flaky;
  flaky.call_fail_prob = 0.2;
  flaky.call_timeout_prob = 0.1;
  c.injector->SetHandlerRangePolicy(cloud::kReplicaApplyHandler,
                                    cloud::kIsrShrinkHandler, flaky);
  std::set<CellId> acked;
  for (CellId id = 0; id < 128; ++id) {
    if (c.cloud->PutCell(id, Slice("w" + std::to_string(id))).ok()) {
      acked.insert(id);
    }
  }
  EXPECT_GT(acked.size(), 100u) << "retries should absorb most wire faults";
  c.injector->ClearPolicies();
  // Repair any ISR shrinks the faults caused, then fail a machine.
  c.cloud->DetectAndRecover();
  ASSERT_TRUE(c.cloud->FailMachine(0).ok());
  EXPECT_EQ(c.cloud->DetectAndRecover(), 1);
  for (CellId id : acked) {
    std::string out;
    ASSERT_TRUE(c.cloud->GetCell(id, &out).ok())
        << "acked cell " << id << " lost after failover";
    EXPECT_EQ(out, "w" + std::to_string(id));
  }
}

TEST(ReplicationTest, ReplicaMemoryAccountedSeparately) {
  Cluster c = NewReplicatedCluster("mem", 2, /*with_tfs=*/false);
  for (CellId id = 0; id < 256; ++id) {
    ASSERT_TRUE(
        c.cloud->PutCell(id, Slice(std::string(128, 'x'))).ok());
  }
  EXPECT_GT(c.cloud->ReplicaMemoryBytes(), 0u);
  // k=2: replicas hold two more copies of every byte the primaries hold.
  EXPECT_GE(c.cloud->ReplicaMemoryBytes(), c.cloud->MemoryFootprintBytes());
}

TEST(ReplicationTest, MigrationMovesPrimaryOffReplicaHolder) {
  Cluster c = NewReplicatedCluster("migrate", 2, /*with_tfs=*/false);
  for (CellId id = 0; id < 32; ++id) {
    ASSERT_TRUE(c.cloud->PutCell(id, Slice("m" + std::to_string(id))).ok());
  }
  // Migrate a trunk onto one of its replica holders: the stale replica image
  // must be dropped and the machine must leave the in-sync set.
  const TrunkId t = 0;
  const MachineId dest = c.cloud->table()->replicas_of_trunk(t)[0];
  ASSERT_TRUE(c.cloud->MigrateTrunk(t, dest).ok());
  EXPECT_EQ(c.cloud->table()->machine_of_trunk(t), dest);
  const auto table = c.cloud->table();
  const auto& replicas = table->replicas_of_trunk(t);
  EXPECT_EQ(std::find(replicas.begin(), replicas.end(), dest),
            replicas.end());
  EXPECT_EQ(c.cloud->storage(dest)->replica_trunk(t), nullptr);
  CellId in_t = 0;
  while (c.cloud->TrunkOf(in_t) != t) ++in_t;
  ExpectFreshRoutes(c.cloud.get(), in_t);
  // Data still readable and writable through the new primary.
  for (CellId id = 0; id < 32; ++id) {
    std::string out;
    ASSERT_TRUE(c.cloud->GetCell(id, &out).ok());
    EXPECT_EQ(out, "m" + std::to_string(id));
  }
  ASSERT_TRUE(c.cloud->PutCell(0, Slice("post-migrate")).ok());
}

}  // namespace
}  // namespace trinity
