#include "cloud/memory_cloud.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "cloud/addressing_table.h"

namespace trinity::cloud {
namespace {

TEST(AddressingTableTest, RoundRobinLayout) {
  AddressingTable table(4, 3);  // 16 trunks, 3 machines.
  EXPECT_EQ(table.num_slots(), 16);
  EXPECT_EQ(table.machine_of_trunk(0), 0);
  EXPECT_EQ(table.machine_of_trunk(1), 1);
  EXPECT_EQ(table.machine_of_trunk(2), 2);
  EXPECT_EQ(table.machine_of_trunk(3), 0);
  EXPECT_EQ(table.trunks_of(0).size(), 6u);  // ceil(16/3).
  EXPECT_EQ(table.trunks_of(1).size(), 5u);
}

TEST(AddressingTableTest, MoveBumpsVersion) {
  AddressingTable table(3, 2);
  const std::uint64_t v0 = table.version();
  table.MoveTrunk(5, 1);
  EXPECT_EQ(table.machine_of_trunk(5), 1);
  EXPECT_GT(table.version(), v0);
}

TEST(AddressingTableTest, SerializeRoundTrip) {
  AddressingTable table(5, 4);
  table.MoveTrunk(7, 2);
  AddressingTable decoded(0, 1);
  ASSERT_TRUE(
      AddressingTable::Deserialize(Slice(table.Serialize()), &decoded).ok());
  EXPECT_TRUE(decoded == table);
  EXPECT_EQ(decoded.version(), table.version());
}

TEST(AddressingTableTest, EpochsAndReplicasRoundTrip) {
  AddressingTable table(4, 4);
  table.SetReplicas(3, {1, 2});
  ASSERT_TRUE(table.AddReplica(5, 0));
  EXPECT_FALSE(table.AddReplica(5, 0));  // Already a member.
  const std::uint64_t e0 = table.epoch_of_trunk(7);
  table.MoveTrunk(7, 2);  // Promotion-style move bumps the trunk epoch.
  EXPECT_GT(table.epoch_of_trunk(7), e0);

  AddressingTable decoded(0, 1);
  ASSERT_TRUE(
      AddressingTable::Deserialize(Slice(table.Serialize()), &decoded).ok());
  EXPECT_TRUE(decoded == table);
  EXPECT_EQ(decoded.replicas_of_trunk(3),
            (std::vector<MachineId>{1, 2}));
  EXPECT_EQ(decoded.epoch_of_trunk(7), table.epoch_of_trunk(7));

  EXPECT_TRUE(decoded.RemoveReplica(3, 1));
  EXPECT_FALSE(decoded.RemoveReplica(3, 1));
  EXPECT_FALSE(decoded == table);
  EXPECT_EQ(table.RemoveReplicaEverywhere(2), 1);  // Was a replica of 3.
  EXPECT_EQ(table.replicas_of_trunk(3), (std::vector<MachineId>{1}));
}

TEST(AddressingTableTest, DeserializeRejectsGarbage) {
  AddressingTable table(0, 1);
  EXPECT_TRUE(
      AddressingTable::Deserialize(Slice("garbage"), &table).IsCorruption());
}

class MemoryCloudTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MemoryCloud::Options options;
    options.num_slaves = 4;
    options.p_bits = 4;
    options.storage.trunk.capacity = 256 * 1024;
    ASSERT_TRUE(MemoryCloud::Create(options, &cloud_).ok());
  }
  std::unique_ptr<MemoryCloud> cloud_;
};

TEST_F(MemoryCloudTest, RejectsBadOptions) {
  MemoryCloud::Options options;
  options.num_slaves = 0;
  std::unique_ptr<MemoryCloud> cloud;
  EXPECT_TRUE(MemoryCloud::Create(options, &cloud).IsInvalidArgument());
  options.num_slaves = 8;
  options.p_bits = 2;  // 4 trunks < 8 slaves.
  EXPECT_TRUE(MemoryCloud::Create(options, &cloud).IsInvalidArgument());
}

TEST_F(MemoryCloudTest, GlobalKeyValueOps) {
  for (CellId id = 0; id < 200; ++id) {
    ASSERT_TRUE(cloud_->AddCell(id, Slice("v" + std::to_string(id))).ok());
  }
  for (CellId id = 0; id < 200; ++id) {
    std::string out;
    ASSERT_TRUE(cloud_->GetCell(id, &out).ok());
    EXPECT_EQ(out, "v" + std::to_string(id));
  }
  bool exists = false;
  ASSERT_TRUE(cloud_->Contains(42, &exists).ok());
  EXPECT_TRUE(exists);
  ASSERT_TRUE(cloud_->Contains(4242, &exists).ok());
  EXPECT_FALSE(exists);
  ASSERT_TRUE(cloud_->RemoveCell(42).ok());
  ASSERT_TRUE(cloud_->Contains(42, &exists).ok());
  EXPECT_FALSE(exists);
  EXPECT_EQ(cloud_->TotalCellCount(), 199u);
}

TEST_F(MemoryCloudTest, DataSpreadsAcrossSlaves) {
  for (CellId id = 0; id < 400; ++id) {
    ASSERT_TRUE(cloud_->AddCell(id, Slice("x")).ok());
  }
  for (MachineId m = 0; m < cloud_->num_slaves(); ++m) {
    EXPECT_GT(cloud_->storage(m)->TotalCellCount(), 0u)
        << "machine " << m << " owns no data";
  }
}

TEST_F(MemoryCloudTest, AppendAndUpdate) {
  ASSERT_TRUE(cloud_->AddCell(1, Slice("head")).ok());
  ASSERT_TRUE(cloud_->AppendToCell(1, Slice("+tail")).ok());
  std::string out;
  ASSERT_TRUE(cloud_->GetCell(1, &out).ok());
  EXPECT_EQ(out, "head+tail");
  ASSERT_TRUE(cloud_->PutCell(1, Slice("replaced")).ok());
  ASSERT_TRUE(cloud_->GetCell(1, &out).ok());
  EXPECT_EQ(out, "replaced");
}

TEST_F(MemoryCloudTest, LocalAccessBypassesNetwork) {
  // Find a cell owned by slave 0 and access it from slave 0.
  CellId local_id = 0;
  while (cloud_->MachineOf(local_id) != 0) ++local_id;
  ASSERT_TRUE(cloud_->AddCellFrom(0, local_id, Slice("local")).ok());
  const auto before = cloud_->fabric().stats();
  std::string out;
  ASSERT_TRUE(cloud_->GetCellFrom(0, local_id, &out).ok());
  const auto after = cloud_->fabric().stats();
  EXPECT_EQ(after.transfers, before.transfers);
  EXPECT_EQ(out, "local");
}

TEST_F(MemoryCloudTest, RemoteAccessIsMetered) {
  CellId remote_id = 0;
  while (cloud_->MachineOf(remote_id) != 1) ++remote_id;
  ASSERT_TRUE(cloud_->AddCellFrom(0, remote_id, Slice("remote")).ok());
  const auto stats = cloud_->fabric().stats();
  EXPECT_GT(stats.transfers, 0u);
  EXPECT_GT(stats.sync_calls, 0u);
}

TEST_F(MemoryCloudTest, NoTfsMeansNoDurabilityPaths) {
  // Pure in-memory mode: persistence and recovery are explicit errors, not
  // silent no-ops.
  EXPECT_TRUE(cloud_->SaveSnapshot().IsInvalidArgument());
  ASSERT_TRUE(cloud_->AddCell(1, Slice("volatile")).ok());
  ASSERT_TRUE(cloud_->FailMachine(cloud_->MachineOf(1)).ok());
  EXPECT_TRUE(cloud_->RecoverMachine(cloud_->MachineOf(1))
                  .IsInvalidArgument());
  std::string out;
  EXPECT_TRUE(cloud_->GetCell(1, &out).IsUnavailable());
}

TEST_F(MemoryCloudTest, OnlySlavesCanFailOrRestart) {
  EXPECT_TRUE(cloud_->FailMachine(cloud_->client_id()).IsInvalidArgument());
  EXPECT_TRUE(cloud_->FailMachine(-1).IsInvalidArgument());
  EXPECT_TRUE(
      cloud_->RestartMachine(cloud_->client_id()).IsInvalidArgument());
  EXPECT_TRUE(cloud_->RestartMachine(0).IsAlreadyExists());  // Still up.
}

TEST_F(MemoryCloudTest, ElectLeaderWithoutTfs) {
  EXPECT_EQ(cloud_->leader(), 0);
  ASSERT_TRUE(cloud_->ElectLeader().ok());
  EXPECT_EQ(cloud_->leader(), 0);  // Lowest alive id.
}

class MemoryCloudFtTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string root = ::testing::TempDir() + "/cloud_ft_" +
                             ::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name();
    std::filesystem::remove_all(root);
    tfs::Tfs::Options tfs_options;
    tfs_options.root = root;
    ASSERT_TRUE(tfs::Tfs::Open(tfs_options, &tfs_).ok());
    MemoryCloud::Options options;
    options.num_slaves = 4;
    options.p_bits = 4;
    options.storage.trunk.capacity = 256 * 1024;
    options.tfs = tfs_.get();
    options.buffered_logging = true;
    ASSERT_TRUE(MemoryCloud::Create(options, &cloud_).ok());
  }
  std::unique_ptr<tfs::Tfs> tfs_;
  std::unique_ptr<MemoryCloud> cloud_;
};

TEST_F(MemoryCloudFtTest, RecoverFromSnapshotAfterCrash) {
  for (CellId id = 0; id < 100; ++id) {
    ASSERT_TRUE(cloud_->AddCell(id, Slice("snap" + std::to_string(id))).ok());
  }
  ASSERT_TRUE(cloud_->SaveSnapshot().ok());
  ASSERT_TRUE(cloud_->FailMachine(2).ok());
  ASSERT_TRUE(cloud_->RecoverMachine(2).ok());
  for (CellId id = 0; id < 100; ++id) {
    std::string out;
    ASSERT_TRUE(cloud_->GetCell(id, &out).ok()) << "cell " << id;
    EXPECT_EQ(out, "snap" + std::to_string(id));
  }
  // The failed machine owns nothing now.
  EXPECT_TRUE(cloud_->table()->trunks_of(2).empty());
}

TEST_F(MemoryCloudFtTest, BufferedLoggingRecoversPostSnapshotWrites) {
  for (CellId id = 0; id < 50; ++id) {
    ASSERT_TRUE(cloud_->AddCell(id, Slice("base")).ok());
  }
  ASSERT_TRUE(cloud_->SaveSnapshot().ok());
  // Post-snapshot mutations live only in RAM + remote log buffers.
  for (CellId id = 50; id < 80; ++id) {
    ASSERT_TRUE(cloud_->AddCell(id, Slice("post-snap")).ok());
  }
  ASSERT_TRUE(cloud_->PutCell(0, Slice("updated")).ok());
  ASSERT_TRUE(cloud_->FailMachine(1).ok());
  ASSERT_TRUE(cloud_->RecoverMachine(1).ok());
  for (CellId id = 50; id < 80; ++id) {
    std::string out;
    ASSERT_TRUE(cloud_->GetCell(id, &out).ok()) << "cell " << id;
    EXPECT_EQ(out, "post-snap");
  }
  std::string out;
  ASSERT_TRUE(cloud_->GetCell(0, &out).ok());
  EXPECT_EQ(out, "updated");
}

TEST_F(MemoryCloudFtTest, AccessTriggersRecovery) {
  for (CellId id = 0; id < 100; ++id) {
    ASSERT_TRUE(cloud_->AddCell(id, Slice("auto")).ok());
  }
  ASSERT_TRUE(cloud_->SaveSnapshot().ok());
  ASSERT_TRUE(cloud_->FailMachine(3).ok());
  // No explicit recovery: the failed access detects, recovers, retries
  // (§6.2).
  for (CellId id = 0; id < 100; ++id) {
    std::string out;
    ASSERT_TRUE(cloud_->GetCell(id, &out).ok()) << "cell " << id;
  }
}

TEST_F(MemoryCloudFtTest, HeartbeatSweepRecovers) {
  for (CellId id = 0; id < 40; ++id) {
    ASSERT_TRUE(cloud_->AddCell(id, Slice("hb")).ok());
  }
  ASSERT_TRUE(cloud_->SaveSnapshot().ok());
  ASSERT_TRUE(cloud_->FailMachine(1).ok());
  EXPECT_EQ(cloud_->DetectAndRecover(), 1);
  EXPECT_EQ(cloud_->DetectAndRecover(), 0);  // Nothing left to do.
  for (CellId id = 0; id < 40; ++id) {
    std::string out;
    ASSERT_TRUE(cloud_->GetCell(id, &out).ok());
  }
}

TEST_F(MemoryCloudFtTest, LeaderFailureElectsNewLeader) {
  ASSERT_TRUE(cloud_->AddCell(1, Slice("x")).ok());
  ASSERT_TRUE(cloud_->SaveSnapshot().ok());
  EXPECT_EQ(cloud_->leader(), 0);
  ASSERT_TRUE(cloud_->FailMachine(0).ok());
  ASSERT_TRUE(cloud_->RecoverMachine(0).ok());
  EXPECT_NE(cloud_->leader(), 0);
  // The fencing flag exists on TFS.
  EXPECT_FALSE(tfs_->List("cloud/leader_epoch_").empty());
}

TEST_F(MemoryCloudFtTest, RestartedMachineRejoins) {
  ASSERT_TRUE(cloud_->SaveSnapshot().ok());
  ASSERT_TRUE(cloud_->FailMachine(2).ok());
  ASSERT_TRUE(cloud_->RecoverMachine(2).ok());
  ASSERT_TRUE(cloud_->RestartMachine(2).ok());
  EXPECT_TRUE(cloud_->RestartMachine(2).IsAlreadyExists());
  // The restarted machine can serve as a source endpoint again.
  ASSERT_TRUE(cloud_->AddCellFrom(2, 7777, Slice("from restarted")).ok());
  std::string out;
  ASSERT_TRUE(cloud_->GetCell(7777, &out).ok());
  EXPECT_EQ(out, "from restarted");
}

// A recovery request that arrives after the machine restarted must leave it
// up: only a failed sweep heartbeat may take down a live machine.
TEST_F(MemoryCloudFtTest, LateRecoveryLeavesRestartedMachineUp) {
  for (CellId id = 0; id < 40; ++id) {
    ASSERT_TRUE(cloud_->AddCell(id, Slice("late")).ok());
  }
  const MachineId m = 2;
  ASSERT_TRUE(cloud_->FailMachine(m).ok());
  ASSERT_TRUE(cloud_->RecoverMachine(m).ok());
  ASSERT_TRUE(cloud_->RestartMachine(m).ok());
  const Status s = cloud_->RecoverMachine(m);
  EXPECT_TRUE(s.IsAlreadyExists()) << s.message();
  EXPECT_TRUE(cloud_->fabric().IsMachineUp(m));
  ASSERT_TRUE(cloud_->AddCellFrom(m, 7777, Slice("from restarted")).ok());
  for (CellId id = 0; id < 40; ++id) {
    std::string out;
    ASSERT_TRUE(cloud_->GetCell(id, &out).ok()) << "cell " << id;
    EXPECT_EQ(out, "late");
  }
}

TEST_F(MemoryCloudTest, LiveTrunkMigration) {
  for (CellId id = 0; id < 200; ++id) {
    ASSERT_TRUE(cloud_->AddCell(id, Slice("m" + std::to_string(id))).ok());
  }
  // Move every trunk owned by machine 0 to machine 1.
  const std::vector<TrunkId> trunks = cloud_->table()->trunks_of(0);
  ASSERT_FALSE(trunks.empty());
  const auto transfers_before = cloud_->fabric().stats().transfers;
  for (TrunkId t : trunks) {
    ASSERT_TRUE(cloud_->MigrateTrunk(t, 1).ok());
  }
  EXPECT_TRUE(cloud_->table()->trunks_of(0).empty());
  // The image transfers were metered on the fabric.
  EXPECT_GT(cloud_->fabric().stats().transfers, transfers_before);
  // Every cell remains reachable through the updated addressing table.
  for (CellId id = 0; id < 200; ++id) {
    std::string out;
    ASSERT_TRUE(cloud_->GetCell(id, &out).ok()) << "cell " << id;
    EXPECT_EQ(out, "m" + std::to_string(id));
  }
  // Migrating to itself is a no-op; bad arguments are rejected.
  ASSERT_TRUE(cloud_->MigrateTrunk(cloud_->table()->trunks_of(1).front(), 1)
                  .ok());
  EXPECT_TRUE(cloud_->MigrateTrunk(-1, 1).IsInvalidArgument());
  EXPECT_TRUE(cloud_->MigrateTrunk(0, 99).IsInvalidArgument());
}

TEST_F(MemoryCloudFtTest, RebalanceAfterRejoin) {
  for (CellId id = 0; id < 100; ++id) {
    ASSERT_TRUE(cloud_->AddCell(id, Slice("r")).ok());
  }
  ASSERT_TRUE(cloud_->SaveSnapshot().ok());
  ASSERT_TRUE(cloud_->FailMachine(2).ok());
  ASSERT_TRUE(cloud_->RecoverMachine(2).ok());
  ASSERT_TRUE(cloud_->RestartMachine(2).ok());
  EXPECT_TRUE(cloud_->table()->trunks_of(2).empty());
  const int moved = cloud_->RebalanceTrunks();
  EXPECT_GT(moved, 0);
  EXPECT_FALSE(cloud_->table()->trunks_of(2).empty());
  // Ownership is balanced within one trunk across alive slaves.
  std::size_t min_count = ~std::size_t{0}, max_count = 0;
  for (MachineId m = 0; m < cloud_->num_slaves(); ++m) {
    const std::size_t count = cloud_->table()->trunks_of(m).size();
    min_count = std::min(min_count, count);
    max_count = std::max(max_count, count);
  }
  EXPECT_LE(max_count, min_count + 1);
  for (CellId id = 0; id < 100; ++id) {
    std::string out;
    ASSERT_TRUE(cloud_->GetCell(id, &out).ok()) << "cell " << id;
  }
}

TEST_F(MemoryCloudTest, ContainsDistinguishesAbsenceFromUnavailability) {
  ASSERT_TRUE(cloud_->AddCell(7, Slice("here")).ok());
  // Absence is a definitive answer: OK with exists=false.
  bool exists = true;
  ASSERT_TRUE(cloud_->Contains(4242, &exists).ok());
  EXPECT_FALSE(exists);
  // A down owner is NOT absence: the status must be non-OK so a caller can
  // never mistake "unreachable" for "deleted".
  const MachineId owner = cloud_->MachineOf(7);
  ASSERT_TRUE(cloud_->FailMachine(owner).ok());
  exists = true;
  const Status s = cloud_->Contains(7, &exists);
  EXPECT_TRUE(s.IsUnavailable()) << s.message();
}

TEST_F(MemoryCloudTest, StaleReplicaResyncsTransparently) {
  ASSERT_TRUE(cloud_->AddCell(11, Slice("moved")).ok());
  const TrunkId trunk = cloud_->TrunkOf(11);
  const MachineId old_owner = cloud_->MachineOf(11);
  const MachineId new_owner =
      static_cast<MachineId>((old_owner + 1) % cloud_->num_slaves());
  ASSERT_TRUE(cloud_->MigrateTrunk(trunk, new_owner).ok());
  // Roll the client's table replica back to the seed layout: it now names
  // the old owner for the migrated trunk. The first access fails over
  // there ("trunk not hosted"), re-syncs from the primary and succeeds.
  cloud_->DesyncReplicaForTest(cloud_->client_id());
  const std::uint64_t before = cloud_->fabric().stats().sync_calls;
  std::string out;
  ASSERT_TRUE(cloud_->GetCell(11, &out).ok());
  EXPECT_EQ(out, "moved");
  EXPECT_EQ(cloud_->fabric().stats().sync_calls - before, 2u);
  // Re-synced: the next access goes straight to the new owner.
  ASSERT_TRUE(cloud_->GetCell(11, &out).ok());
  EXPECT_EQ(cloud_->fabric().stats().sync_calls - before, 3u);
}

TEST_F(MemoryCloudFtTest, RestartWithoutRecoveryIsPermanentlyStale) {
  for (CellId id = 0; id < 40; ++id) {
    ASSERT_TRUE(cloud_->AddCell(id, Slice("stale")).ok());
  }
  // Pick a cell owned by a non-leader machine, crash the owner and restart
  // it *without* running recovery: the primary table still names it for its
  // trunks, but the restarted process hosts nothing. Every retry re-syncs to
  // the same wrong answer — the terminal error names that condition, not a
  // dead owner.
  CellId probe = 0;
  while (cloud_->MachineOf(probe) == cloud_->leader()) ++probe;
  const MachineId owner = cloud_->MachineOf(probe);
  ASSERT_TRUE(cloud_->FailMachine(owner).ok());
  ASSERT_TRUE(cloud_->RestartMachine(owner).ok());
  std::string out;
  const Status s = cloud_->GetCell(probe, &out);
  ASSERT_TRUE(s.IsUnavailable()) << s.message();
  EXPECT_NE(s.message().find("permanently stale"), std::string::npos)
      << s.message();
  // Proper recovery repairs the table and the data comes back.
  ASSERT_TRUE(cloud_->FailMachine(owner).ok());
  ASSERT_TRUE(cloud_->RecoverMachine(owner).ok());
  ASSERT_TRUE(cloud_->GetCell(probe, &out).ok());
  EXPECT_EQ(out, "stale");
}

TEST_F(MemoryCloudFtTest, SequentialFailuresSurvivable) {
  for (CellId id = 0; id < 60; ++id) {
    ASSERT_TRUE(cloud_->AddCell(id, Slice("multi")).ok());
  }
  ASSERT_TRUE(cloud_->SaveSnapshot().ok());
  ASSERT_TRUE(cloud_->FailMachine(1).ok());
  ASSERT_TRUE(cloud_->RecoverMachine(1).ok());
  ASSERT_TRUE(cloud_->SaveSnapshot().ok());
  ASSERT_TRUE(cloud_->FailMachine(2).ok());
  ASSERT_TRUE(cloud_->RecoverMachine(2).ok());
  for (CellId id = 0; id < 60; ++id) {
    std::string out;
    ASSERT_TRUE(cloud_->GetCell(id, &out).ok()) << "cell " << id;
    EXPECT_EQ(out, "multi");
  }
}

}  // namespace
}  // namespace trinity::cloud
