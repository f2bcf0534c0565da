// Concurrent-read torture tests for the lock-free read hot path: readers
// racing Defragment(), PutCell relocations, replica promotion and trunk
// migration. The interesting assertions are the implicit ones — no torn
// reads, no accessor invalidation, no data race reported under
// `scripts/check.sh --tsan` (these tests carry the `storage` ctest label the
// tsan preset runs).

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/memory_cloud.h"
#include "common/hash.h"
#include "graph/graph.h"
#include "storage/memory_trunk.h"

namespace trinity {
namespace {

using storage::MemoryTrunk;

constexpr int kReaderThreads = 4;

MemoryTrunk::Options TortureTrunk() {
  MemoryTrunk::Options options;
  options.capacity = 4 * 1024 * 1024;
  return options;
}

std::unique_ptr<MemoryTrunk> NewTrunk() {
  std::unique_ptr<MemoryTrunk> trunk;
  EXPECT_TRUE(MemoryTrunk::Create(TortureTrunk(), &trunk).ok());
  return trunk;
}

char PatternFor(CellId id) { return static_cast<char>('a' + id % 26); }

// A value is consistent iff every byte carries the cell's pattern — a torn
// read (half old bytes, half relocated bytes) trips this immediately.
bool Consistent(CellId id, const char* data, std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    if (data[i] != PatternFor(id)) return false;
  }
  return true;
}

// Tiny deterministic per-thread generator (no shared rand() state).
struct XorShift {
  std::uint64_t state;
  std::uint64_t Next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

TEST(ConcurrentReadTest, ReadersRaceDefragment) {
  auto trunk = NewTrunk();
  const int kCells = 500;
  for (CellId id = 0; id < kCells; ++id) {
    ASSERT_TRUE(trunk->AddCell(id, Slice(std::string(64, PatternFor(id)))).ok());
  }
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> torn{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaderThreads; ++t) {
    readers.emplace_back([&, t] {
      XorShift rng{0x9e3779b97f4a7c15ull + t};
      std::string out;
      while (!done.load(std::memory_order_acquire)) {
        const CellId id = rng.Next() % kCells;
        if (rng.Next() % 2 == 0) {
          if (trunk->GetCell(id, &out).ok() &&
              !Consistent(id, out.data(), out.size())) {
            torn.fetch_add(1);
          }
        } else {
          MemoryTrunk::ConstAccessor accessor;
          if (trunk->Access(id, &accessor).ok()) {
            // The accessor pins the cell against defrag relocation: the
            // slice must stay consistent for as long as it is held.
            const Slice data = accessor.data();
            if (!Consistent(id, data.data(), data.size())) torn.fetch_add(1);
          }
        }
      }
    });
  }
  // Writer: churn cells to manufacture dead space, then defragment, while
  // the readers above hammer the same trunk.
  for (int round = 0; round < 100; ++round) {
    for (CellId id = 0; id < kCells; id += 2) {
      ASSERT_TRUE(trunk->RemoveCell(id).ok());
      ASSERT_TRUE(trunk->AddCell(id, Slice(std::string(64, PatternFor(id))))
                      .ok());
    }
    trunk->Defragment();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(trunk->stats().defrag_passes, 0u);
}

TEST(ConcurrentReadTest, ReadersRacePutCellRelocations) {
  auto trunk = NewTrunk();
  const int kCells = 200;
  for (CellId id = 0; id < kCells; ++id) {
    ASSERT_TRUE(trunk->AddCell(id, Slice(std::string(16, PatternFor(id)))).ok());
  }
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> torn{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaderThreads; ++t) {
    readers.emplace_back([&, t] {
      XorShift rng{0xdeadbeefcafef00dull + t};
      while (!done.load(std::memory_order_acquire)) {
        const CellId id = rng.Next() % kCells;
        MemoryTrunk::ConstAccessor accessor;
        if (trunk->Access(id, &accessor).ok()) {
          const Slice data = accessor.data();
          if (!Consistent(id, data.data(), data.size())) torn.fetch_add(1);
        }
      }
    });
  }
  // Writer: grow-then-shrink each cell; growth past the reservation
  // relocates the entry while readers hold accessors on its neighbors.
  for (int round = 0; round < 100; ++round) {
    const std::size_t size = 16 + (round % 8) * 96;
    for (CellId id = 0; id < kCells; ++id) {
      ASSERT_TRUE(
          trunk->PutCell(id, Slice(std::string(size, PatternFor(id)))).ok());
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(torn.load(), 0u);
}

TEST(ConcurrentReadTest, ReadersRaceReplicaPromotion) {
  cloud::MemoryCloud::Options options;
  options.num_slaves = 4;
  options.p_bits = 4;
  options.storage.trunk.capacity = 256 * 1024;
  options.replication_factor = 1;
  options.auto_promote = true;
  std::unique_ptr<cloud::MemoryCloud> cloud;
  ASSERT_TRUE(cloud::MemoryCloud::Create(options, &cloud).ok());

  const int kCells = 100;
  std::vector<CellId> ids;
  for (CellId id = 0; static_cast<int>(ids.size()) < kCells; ++id) {
    ASSERT_TRUE(
        cloud->PutCell(id, Slice(std::string(32, PatternFor(id)))).ok());
    ids.push_back(id);
  }

  const MachineId victim = 1;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> readers;
  // Readers issue single gets and MultiGet batches from the surviving
  // machines while the victim fails and its trunks promote underneath them.
  for (int t = 0; t < kReaderThreads; ++t) {
    const MachineId src = (t % 2 == 0) ? 0 : 2;
    readers.emplace_back([&, t, src] {
      XorShift rng{0x5eedull + t};
      std::string out;
      while (!done.load(std::memory_order_acquire)) {
        if (t == 0) {
          std::vector<cloud::MemoryCloud::MultiGetResult> results;
          if (cloud->MultiGet(src, ids, &results).ok()) {
            for (int i = 0; i < kCells; ++i) {
              if (results[i].status.ok() &&
                  !Consistent(ids[i], results[i].value.data(),
                              results[i].value.size())) {
                mismatches.fetch_add(1);
              }
            }
          }
        } else {
          const CellId id = ids[rng.Next() % kCells];
          Status s = cloud->GetCellFrom(src, id, &out);
          if (s.ok() && !Consistent(id, out.data(), out.size())) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(cloud->FailMachine(victim).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  done.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(mismatches.load(), 0u);
  // Reads during the outage were served by in-sync replicas, not promotion.
  EXPECT_GT(cloud->recovery_stats().degraded_reads, 0u);

  // A write to a trunk the victim owned forces the real promotion flip.
  CellId victim_cell = kInvalidCell;
  for (CellId id : ids) {
    if (cloud->MachineOf(id) == victim) {
      victim_cell = id;
      break;
    }
  }
  ASSERT_NE(victim_cell, kInvalidCell);
  ASSERT_TRUE(
      cloud->PutCell(victim_cell, Slice(std::string(32, PatternFor(victim_cell))))
          .ok());
  EXPECT_GT(cloud->recovery_stats().promotions, 0u);

  // Post-race ground truth: every cell is readable with the right bytes.
  std::vector<cloud::MemoryCloud::MultiGetResult> results;
  ASSERT_TRUE(cloud->MultiGet(0, ids, &results).ok());
  for (int i = 0; i < kCells; ++i) {
    ASSERT_TRUE(results[i].status.ok()) << results[i].status.message();
    EXPECT_TRUE(Consistent(ids[i], results[i].value.data(),
                           results[i].value.size()));
  }
}

// MigrateTrunk detaches the trunk from its source machine while readers on
// every endpoint may be inside it (a local get, a MultiGet handler, or a
// request that routed by a table that has not seen the move yet). Trunk
// lookups pin the trunk, so the detach cannot free it under them: the
// sanitizer builds report no use-after-free and every read is whole.
TEST(ConcurrentReadTest, ReadersRaceTrunkMigration) {
  cloud::MemoryCloud::Options options;
  options.num_slaves = 4;
  options.p_bits = 4;
  options.storage.trunk.capacity = 256 * 1024;
  std::unique_ptr<cloud::MemoryCloud> cloud;
  ASSERT_TRUE(cloud::MemoryCloud::Create(options, &cloud).ok());

  // Every cell of one trunk, so each read races the migration.
  const TrunkId moving = cloud->TrunkOf(0);
  std::vector<CellId> ids;
  for (CellId id = 0; ids.size() < 32; ++id) {
    if (cloud->TrunkOf(id) != moving) continue;
    ASSERT_TRUE(
        cloud->PutCell(id, Slice(std::string(48, PatternFor(id)))).ok());
    ids.push_back(id);
  }
  const MachineId home = cloud->MachineOf(ids[0]);
  const MachineId away = (home + 1) % options.num_slaves;

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaderThreads; ++t) {
    const MachineId src = t % options.num_slaves;
    readers.emplace_back([&, t, src] {
      XorShift rng{0xabcdull + t};
      std::string out;
      std::vector<cloud::MemoryCloud::MultiGetResult> results;
      while (!done.load(std::memory_order_acquire)) {
        if (rng.Next() % 4 == 0) {
          if (!cloud->MultiGet(src, ids, &results).ok()) continue;
          for (std::size_t i = 0; i < ids.size(); ++i) {
            if (results[i].status.ok() &&
                !Consistent(ids[i], results[i].value.data(),
                            results[i].value.size())) {
              mismatches.fetch_add(1);
            }
          }
        } else {
          const CellId id = ids[rng.Next() % ids.size()];
          if (cloud->GetCellFrom(src, id, &out).ok() &&
              !Consistent(id, out.data(), out.size())) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  for (int round = 0; round < 200; ++round) {
    ASSERT_TRUE(cloud->MigrateTrunk(moving, away).ok());
    ASSERT_TRUE(cloud->MigrateTrunk(moving, home).ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(mismatches.load(), 0u);

  std::vector<cloud::MemoryCloud::MultiGetResult> results;
  ASSERT_TRUE(cloud->MultiGet(0, ids, &results).ok());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok()) << results[i].status.message();
    EXPECT_TRUE(Consistent(ids[i], results[i].value.data(),
                           results[i].value.size()));
  }
}

// A sweep pins its machine's trunk snapshot once and visits every vertex
// through it, while MigrateTrunk detaches a trunk under it. The pin keeps
// the detached trunk alive: a visit finds the node whole (OK) or, on a pin
// taken after the trunk left, not at all (NotFound).
TEST(ConcurrentReadTest, ScansRaceTrunkMigration) {
  cloud::MemoryCloud::Options options;
  options.num_slaves = 4;
  options.p_bits = 4;
  options.storage.trunk.capacity = 256 * 1024;
  std::unique_ptr<cloud::MemoryCloud> cloud;
  ASSERT_TRUE(cloud::MemoryCloud::Create(options, &cloud).ok());
  graph::Graph graph(cloud.get());

  // A ring with chords: node v links to v+1 and v+2, so a visit can check
  // every adjacency entry.
  const CellId kNodes = 256;
  for (CellId v = 0; v < kNodes; ++v) {
    graph::NodeImage node;
    node.id = v;
    node.data = std::string(24, PatternFor(v));
    node.out = {(v + 1) % kNodes, (v + 2) % kNodes};
    node.in = {(v + kNodes - 2) % kNodes, (v + kNodes - 1) % kNodes};
    ASSERT_TRUE(graph.BulkAddNode(cloud->client_id(), node).ok());
  }
  const TrunkId moving = cloud->TrunkOf(0);
  const MachineId home = cloud->MachineOf(0);
  const MachineId away = (home + 1) % options.num_slaves;

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> visits{0};
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaderThreads; ++t) {
    const MachineId m = t % 2 == 0 ? home : away;
    readers.emplace_back([&, m] {
      while (!done.load(std::memory_order_acquire)) {
        const auto pin = cloud->trunks(m);
        for (CellId v : graph.LocalNodes(m)) {
          Status s = graph.VisitLocalNode(
              pin.get(), v,
              [&](Slice data, const CellId* in, std::size_t in_count,
                  const CellId* out, std::size_t out_count) {
                visits.fetch_add(1, std::memory_order_relaxed);
                const bool whole =
                    Consistent(v, data.data(), data.size()) &&
                    data.size() == 24 && in_count == 2 && out_count == 2 &&
                    in[0] == (v + kNodes - 2) % kNodes &&
                    in[1] == (v + kNodes - 1) % kNodes &&
                    out[0] == (v + 1) % kNodes && out[1] == (v + 2) % kNodes;
                if (!whole) bad.fetch_add(1);
              });
          if (!s.ok() && !s.IsNotFound()) bad.fetch_add(1);
        }
      }
    });
  }
  // Migrate only once the sweeps are visiting, so they race every move.
  for (int i = 0; i < 10000 && visits.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(visits.load(), 0u);
  for (int round = 0; round < 200; ++round) {
    ASSERT_TRUE(cloud->MigrateTrunk(moving, away).ok());
    ASSERT_TRUE(cloud->MigrateTrunk(moving, home).ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(bad.load(), 0u);
}

TEST(ConcurrentReadTest, SharedReadersRecordNoExclusiveContention) {
  auto trunk = NewTrunk();
  ASSERT_TRUE(trunk->AddCell(7, Slice("payload")).ok());
  const auto before = trunk->stats();
  std::string out;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(trunk->GetCell(7, &out).ok());
  }
  const auto after = trunk->stats();
  EXPECT_EQ(after.read_lock_contended, before.read_lock_contended);
}

TEST(ConcurrentReadTest, WriterContendsOnPinnedCellStripe) {
  auto trunk = NewTrunk();
  ASSERT_TRUE(trunk->AddCell(3, Slice("original")).ok());
  auto accessor = std::make_unique<MemoryTrunk::ConstAccessor>();
  ASSERT_TRUE(trunk->Access(3, accessor.get()).ok());
  // The writer must block on the accessor's stripe (and count the contended
  // acquisition) instead of relocating the pinned cell under the reader.
  std::thread writer([&] {
    ASSERT_TRUE(trunk->PutCell(3, Slice("replacement value")).ok());
  });
  // Poll the lock-free counter accessor — NOT stats(), which takes the trunk
  // read lock and would deadlock against the writer's exclusive hold while
  // this thread pins the stripe.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (trunk->cell_lock_contended() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(accessor->data().ToString(), "original");
  accessor.reset();  // Destructor releases the stripe; the writer proceeds.
  writer.join();
  EXPECT_GE(trunk->stats().cell_lock_contended, 1u);
  std::string out;
  ASSERT_TRUE(trunk->GetCell(3, &out).ok());
  EXPECT_EQ(out, "replacement value");
}

TEST(ConcurrentReadTest, AccessorReuseAcrossSameStripeReleasesFirst) {
  // Two cells hashing to the same of the 256 stripes: re-using one accessor
  // for the second cell must release the first stripe before re-acquiring
  // (the re-entrant self-deadlock the debug assert guards against).
  auto trunk = NewTrunk();
  const CellId a = 1;
  CellId b = 0;
  for (CellId id = 2; id < 100000; ++id) {
    if (InTrunkHash(id) % 256 == InTrunkHash(a) % 256) {
      b = id;
      break;
    }
  }
  ASSERT_NE(b, 0u) << "no same-stripe sibling found";
  ASSERT_TRUE(trunk->AddCell(a, Slice("cell a")).ok());
  ASSERT_TRUE(trunk->AddCell(b, Slice("cell b")).ok());
  MemoryTrunk::ConstAccessor accessor;
  ASSERT_TRUE(trunk->Access(a, &accessor).ok());
  ASSERT_TRUE(trunk->Access(b, &accessor).ok());  // Same stripe: must not hang.
  EXPECT_EQ(accessor.data().ToString(), "cell b");
}

#if !defined(NDEBUG) && defined(GTEST_HAS_DEATH_TEST)
TEST(ConcurrentReadDeathTest, ReentrantStripeAcquisitionAborts) {
  // Debug builds abort instead of self-deadlocking when a thread holding an
  // accessor acquires a second accessor on the same stripe.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  auto trunk = NewTrunk();
  const CellId a = 1;
  CellId b = 0;
  for (CellId id = 2; id < 100000; ++id) {
    if (InTrunkHash(id) % 256 == InTrunkHash(a) % 256) {
      b = id;
      break;
    }
  }
  ASSERT_NE(b, 0u);
  ASSERT_TRUE(trunk->AddCell(a, Slice("cell a")).ok());
  ASSERT_TRUE(trunk->AddCell(b, Slice("cell b")).ok());
  MemoryTrunk::ConstAccessor first;
  ASSERT_TRUE(trunk->Access(a, &first).ok());
  MemoryTrunk::ConstAccessor second;
  EXPECT_DEATH((void)trunk->Access(b, &second), "re-entrant");
}
#endif

TEST(ConcurrentReadTest, MultiGetGroupsPerOwnerAndReportsMissing) {
  cloud::MemoryCloud::Options options;
  options.num_slaves = 4;
  options.p_bits = 4;
  options.storage.trunk.capacity = 256 * 1024;
  std::unique_ptr<cloud::MemoryCloud> cloud;
  ASSERT_TRUE(cloud::MemoryCloud::Create(options, &cloud).ok());
  std::vector<CellId> ids;
  for (CellId id = 0; ids.size() < 64; ++id) {
    ASSERT_TRUE(cloud->PutCell(id, Slice(std::string(8, PatternFor(id)))).ok());
    ids.push_back(id);
  }
  const CellId missing = 1u << 20;
  ids.push_back(missing);

  const auto before = cloud->fabric().stats();
  std::vector<cloud::MemoryCloud::MultiGetResult> results;
  ASSERT_TRUE(cloud->MultiGet(0, ids, &results).ok());
  const auto after = cloud->fabric().stats();
  // One packed request per remote owner machine, not one per id.
  EXPECT_LE(after.sync_calls - before.sync_calls,
            static_cast<std::uint64_t>(options.num_slaves));
  for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok());
    EXPECT_TRUE(Consistent(ids[i], results[i].value.data(),
                           results[i].value.size()));
  }
  EXPECT_TRUE(results.back().status.IsNotFound());

  // MultiContains mirrors the grouping with empty records.
  std::vector<cloud::MemoryCloud::MultiGetResult> contains;
  ASSERT_TRUE(cloud->MultiContains(cloud->client_id(), ids, &contains).ok());
  for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
    EXPECT_TRUE(contains[i].status.ok());
  }
  EXPECT_TRUE(contains.back().status.IsNotFound());
}

}  // namespace
}  // namespace trinity
