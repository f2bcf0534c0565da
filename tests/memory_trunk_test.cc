#include "storage/memory_trunk.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <map>
#include <ostream>
#include <thread>

#include "common/random.h"
#include "storage/memory_storage.h"
#include "tfs/tfs.h"

namespace trinity::storage {
namespace {

MemoryTrunk::Options SmallTrunk() {
  MemoryTrunk::Options options;
  options.capacity = 256 * 1024;
  return options;
}

std::unique_ptr<MemoryTrunk> NewTrunk(
    MemoryTrunk::Options options = SmallTrunk()) {
  std::unique_ptr<MemoryTrunk> trunk;
  EXPECT_TRUE(MemoryTrunk::Create(options, &trunk).ok());
  return trunk;
}

TEST(MemoryTrunkTest, AddGetRoundTrip) {
  auto trunk = NewTrunk();
  ASSERT_TRUE(trunk->AddCell(1, Slice("payload one")).ok());
  std::string out;
  ASSERT_TRUE(trunk->GetCell(1, &out).ok());
  EXPECT_EQ(out, "payload one");
  EXPECT_TRUE(trunk->Contains(1));
  EXPECT_FALSE(trunk->Contains(2));
}

TEST(MemoryTrunkTest, AddDuplicateFails) {
  auto trunk = NewTrunk();
  ASSERT_TRUE(trunk->AddCell(1, Slice("a")).ok());
  EXPECT_TRUE(trunk->AddCell(1, Slice("b")).IsAlreadyExists());
}

TEST(MemoryTrunkTest, ReservedIdsRejected) {
  auto trunk = NewTrunk();
  EXPECT_TRUE(trunk->AddCell(~static_cast<CellId>(0), Slice("x"))
                  .IsInvalidArgument());
  EXPECT_TRUE(trunk->PutCell(~static_cast<CellId>(0) - 1, Slice("x"))
                  .IsInvalidArgument());
}

TEST(MemoryTrunkTest, PutInsertsAndReplaces) {
  auto trunk = NewTrunk();
  ASSERT_TRUE(trunk->PutCell(1, Slice("first")).ok());
  ASSERT_TRUE(trunk->PutCell(1, Slice("x")).ok());  // Shrink in place.
  std::string out;
  ASSERT_TRUE(trunk->GetCell(1, &out).ok());
  EXPECT_EQ(out, "x");
  ASSERT_TRUE(trunk->PutCell(1, Slice("much longer payload")).ok());
  ASSERT_TRUE(trunk->GetCell(1, &out).ok());
  EXPECT_EQ(out, "much longer payload");
}

TEST(MemoryTrunkTest, RemoveFreesLogically) {
  auto trunk = NewTrunk();
  ASSERT_TRUE(trunk->AddCell(1, Slice("gone soon")).ok());
  ASSERT_TRUE(trunk->RemoveCell(1).ok());
  EXPECT_FALSE(trunk->Contains(1));
  EXPECT_TRUE(trunk->RemoveCell(1).IsNotFound());
  EXPECT_GT(trunk->stats().dead_bytes, 0u);
}

TEST(MemoryTrunkTest, GetCellSize) {
  auto trunk = NewTrunk();
  ASSERT_TRUE(trunk->AddCell(5, Slice("12345")).ok());
  std::uint64_t size = 0;
  ASSERT_TRUE(trunk->GetCellSize(5, &size).ok());
  EXPECT_EQ(size, 5u);
  EXPECT_TRUE(trunk->GetCellSize(6, &size).IsNotFound());
}

TEST(MemoryTrunkTest, AppendUsesReservation) {
  auto trunk = NewTrunk();
  ASSERT_TRUE(trunk->AddCell(1, Slice("ab")).ok());
  // First append relocates (capacity == size initially) and reserves slack.
  ASSERT_TRUE(trunk->AppendToCell(1, Slice("cd")).ok());
  const auto stats1 = trunk->stats();
  EXPECT_EQ(stats1.expansions_relocated, 1u);
  EXPECT_GT(stats1.reserved_slack, 0u);
  // Small follow-up append should land inside the reservation.
  ASSERT_TRUE(trunk->AppendToCell(1, Slice("e")).ok());
  const auto stats2 = trunk->stats();
  EXPECT_EQ(stats2.expansions_in_place, 1u);
  EXPECT_EQ(stats2.expansions_relocated, 1u);
  std::string out;
  ASSERT_TRUE(trunk->GetCell(1, &out).ok());
  EXPECT_EQ(out, "abcde");
}

TEST(MemoryTrunkTest, RepeatedAppendsAreMostlyInPlace) {
  auto trunk = NewTrunk();
  ASSERT_TRUE(trunk->AddCell(1, Slice()).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(trunk->AppendToCell(1, Slice("12345678")).ok());
  }
  const auto stats = trunk->stats();
  // With 50% reservations, relocations are logarithmic-ish, not linear.
  EXPECT_LT(stats.expansions_relocated, 30u);
  EXPECT_GT(stats.expansions_in_place, 150u);
  std::string out;
  ASSERT_TRUE(trunk->GetCell(1, &out).ok());
  EXPECT_EQ(out.size(), 1600u);
}

TEST(MemoryTrunkTest, DefragReclaimsDeadBytes) {
  auto trunk = NewTrunk();
  for (CellId id = 0; id < 100; ++id) {
    ASSERT_TRUE(trunk->AddCell(id, Slice(std::string(100, 'x'))).ok());
  }
  for (CellId id = 0; id < 100; id += 2) {
    ASSERT_TRUE(trunk->RemoveCell(id).ok());
  }
  const auto before = trunk->stats();
  EXPECT_GT(before.dead_bytes, 0u);
  const std::uint64_t reclaimed = trunk->Defragment();
  EXPECT_GT(reclaimed, 0u);
  const auto after = trunk->stats();
  EXPECT_EQ(after.dead_bytes, 0u);
  EXPECT_LT(after.used_bytes, before.used_bytes);
  // Surviving cells still readable.
  for (CellId id = 1; id < 100; id += 2) {
    std::string out;
    ASSERT_TRUE(trunk->GetCell(id, &out).ok());
    EXPECT_EQ(out.size(), 100u);
  }
}

TEST(MemoryTrunkTest, DefragTrimsReservations) {
  auto trunk = NewTrunk();
  ASSERT_TRUE(trunk->AddCell(1, Slice("ab")).ok());
  ASSERT_TRUE(trunk->AppendToCell(1, Slice("cd")).ok());
  ASSERT_GT(trunk->stats().reserved_slack, 0u);
  trunk->Defragment();
  // Short-lived reservation released by the pass (§6.1).
  EXPECT_EQ(trunk->stats().reserved_slack, 0u);
  std::string out;
  ASSERT_TRUE(trunk->GetCell(1, &out).ok());
  EXPECT_EQ(out, "abcd");
}

TEST(MemoryTrunkTest, DefragReleasesCommittedPages) {
  MemoryTrunk::Options options;
  options.capacity = 1 << 20;
  auto trunk = NewTrunk(options);
  for (CellId id = 0; id < 100; ++id) {
    ASSERT_TRUE(trunk->AddCell(id, Slice(std::string(4096, 'p'))).ok());
  }
  const std::uint64_t committed_full = trunk->stats().committed_bytes;
  for (CellId id = 0; id < 100; ++id) {
    ASSERT_TRUE(trunk->RemoveCell(id).ok());
  }
  trunk->Defragment();
  EXPECT_LT(trunk->stats().committed_bytes, committed_full);
}

TEST(MemoryTrunkTest, CircularWraparound) {
  // Fill / delete / refill several times the trunk capacity so the heads
  // wrap around the ring repeatedly.
  MemoryTrunk::Options options;
  options.capacity = 64 * 1024;
  auto trunk = NewTrunk(options);
  const std::string payload(1000, 'w');
  CellId next = 0;
  for (int cycle = 0; cycle < 20; ++cycle) {
    std::vector<CellId> batch;
    for (int i = 0; i < 30; ++i) {
      const CellId id = next++;
      ASSERT_TRUE(trunk->AddCell(id, Slice(payload)).ok()) << "cycle " << cycle;
      batch.push_back(id);
    }
    for (CellId id : batch) {
      std::string out;
      ASSERT_TRUE(trunk->GetCell(id, &out).ok());
      ASSERT_EQ(out, payload);
      ASSERT_TRUE(trunk->RemoveCell(id).ok());
    }
  }
  EXPECT_EQ(trunk->cell_count(), 0u);
}

TEST(MemoryTrunkTest, FullTrunkReportsOutOfMemory) {
  MemoryTrunk::Options options;
  options.capacity = 8 * 1024;
  auto trunk = NewTrunk(options);
  Status s;
  CellId id = 0;
  while ((s = trunk->AddCell(id, Slice(std::string(512, 'f')))).ok()) {
    ++id;
    ASSERT_LT(id, 1000u);
  }
  EXPECT_TRUE(s.IsOutOfMemory());
  // Existing data is intact.
  std::string out;
  ASSERT_TRUE(trunk->GetCell(0, &out).ok());
  EXPECT_EQ(out.size(), 512u);
}

TEST(MemoryTrunkTest, OversizedCellRejected) {
  MemoryTrunk::Options options;
  options.capacity = 8 * 1024;
  auto trunk = NewTrunk(options);
  EXPECT_FALSE(trunk->AddCell(1, Slice(std::string(32 * 1024, 'x'))).ok());
}

TEST(MemoryTrunkTest, WriteAtUpdatesInPlace) {
  auto trunk = NewTrunk();
  ASSERT_TRUE(trunk->AddCell(1, Slice("hello world")).ok());
  ASSERT_TRUE(trunk->WriteAt(1, 6, Slice("WORLD")).ok());
  std::string out;
  ASSERT_TRUE(trunk->GetCell(1, &out).ok());
  EXPECT_EQ(out, "hello WORLD");
  EXPECT_TRUE(trunk->WriteAt(1, 8, Slice("TOOLONG")).IsInvalidArgument());
  EXPECT_TRUE(trunk->WriteAt(9, 0, Slice("x")).IsNotFound());
}

TEST(MemoryTrunkTest, AccessorPinsAgainstDefrag) {
  auto trunk = NewTrunk();
  ASSERT_TRUE(trunk->AddCell(1, Slice("victim")).ok());
  ASSERT_TRUE(trunk->AddCell(2, Slice("pinned cell")).ok());
  ASSERT_TRUE(trunk->RemoveCell(1).ok());
  MemoryTrunk::ConstAccessor accessor;
  ASSERT_TRUE(trunk->Access(2, &accessor).ok());
  EXPECT_EQ(accessor.data().ToString(), "pinned cell");
  const char* pinned_ptr = accessor.data().data();
  trunk->Defragment();  // Must not move the pinned cell.
  EXPECT_EQ(accessor.data().data(), pinned_ptr);
  EXPECT_EQ(accessor.data().ToString(), "pinned cell");
  accessor = MemoryTrunk::ConstAccessor();  // Unpin.
  trunk->Defragment();
  std::string out;
  ASSERT_TRUE(trunk->GetCell(2, &out).ok());
  EXPECT_EQ(out, "pinned cell");
}

TEST(MemoryTrunkTest, SerializeDeserializeRoundTrip) {
  auto trunk = NewTrunk();
  for (CellId id = 0; id < 50; ++id) {
    ASSERT_TRUE(
        trunk->AddCell(id, Slice("value " + std::to_string(id))).ok());
  }
  std::string image;
  ASSERT_TRUE(trunk->Serialize(&image).ok());
  std::unique_ptr<MemoryTrunk> restored;
  ASSERT_TRUE(
      MemoryTrunk::Deserialize(Slice(image), SmallTrunk(), &restored).ok());
  EXPECT_EQ(restored->cell_count(), 50u);
  for (CellId id = 0; id < 50; ++id) {
    std::string out;
    ASSERT_TRUE(restored->GetCell(id, &out).ok());
    EXPECT_EQ(out, "value " + std::to_string(id));
  }
}

TEST(MemoryTrunkTest, DeserializeRejectsGarbage) {
  std::unique_ptr<MemoryTrunk> trunk;
  EXPECT_TRUE(MemoryTrunk::Deserialize(Slice("nonsense"), SmallTrunk(),
                                       &trunk)
                  .IsCorruption());
}

TEST(MemoryTrunkTest, CellIdsListsLiveCells) {
  auto trunk = NewTrunk();
  for (CellId id = 0; id < 10; ++id) {
    ASSERT_TRUE(trunk->AddCell(id, Slice("x")).ok());
  }
  ASSERT_TRUE(trunk->RemoveCell(3).ok());
  auto ids = trunk->CellIds();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids.size(), 9u);
  EXPECT_EQ(std::count(ids.begin(), ids.end(), 3), 0);
}

TEST(MemoryTrunkTest, StatsInvariants) {
  auto trunk = NewTrunk();
  for (CellId id = 0; id < 20; ++id) {
    ASSERT_TRUE(trunk->AddCell(id, Slice(std::string(64, 'a'))).ok());
  }
  auto stats = trunk->stats();
  EXPECT_EQ(stats.live_cells, 20u);
  EXPECT_EQ(stats.live_bytes, 20u * 64);
  EXPECT_LE(stats.live_bytes, stats.used_bytes);
  EXPECT_LE(stats.used_bytes, stats.committed_bytes);
  EXPECT_LE(stats.committed_bytes, stats.capacity);
}

// Property test: a random op sequence against a std::map reference model,
// across several seeds and three trunk configurations, with periodic
// defragmentation thrown in. Each run ends by comparing every deterministic
// Stats counter with recorded values, so a change to any placement,
// compression, eviction or accounting decision shows as a counter diff even
// when the payloads still read back correctly.
enum class FuzzConfig {
  kRaw,         ///< Default options: every cell stored raw.
  kCompressed,  ///< compress_adjacency: node-shaped cells stored kAdjDelta.
  kBudgeted,    ///< compress_adjacency plus a memory budget and cold TFS.
};

// The Stats fields that depend only on the op sequence. committed_bytes and
// capacity are left out: they follow the host page size.
constexpr const char* kCounterNames[] = {
    "live_cells",          "live_bytes",           "reserved_slack",
    "dead_bytes",          "used_bytes",           "resident_bytes",
    "defrag_passes",       "cells_moved",          "expansions_in_place",
    "expansions_relocated", "compressed_cells",    "compressed_bytes",
    "spilled_cells",       "spilled_bytes",        "cells_evicted",
    "cells_faulted",       "cold_bytes_written",   "cold_bytes_read",
    "read_lock_contended", "write_lock_contended", "cell_lock_contended"};
using Counters = std::array<std::uint64_t, std::size(kCounterNames)>;

Counters DeterministicCounters(const MemoryTrunk::Stats& s) {
  return {s.live_cells,          s.live_bytes,           s.reserved_slack,
          s.dead_bytes,          s.used_bytes,           s.resident_bytes,
          s.defrag_passes,       s.cells_moved,          s.expansions_in_place,
          s.expansions_relocated, s.compressed_cells,    s.compressed_bytes,
          s.spilled_cells,       s.spilled_bytes,        s.cells_evicted,
          s.cells_faulted,       s.cold_bytes_written,   s.cold_bytes_read,
          s.read_lock_contended, s.write_lock_contended, s.cell_lock_contended};
}

struct FuzzCase {
  FuzzConfig config;
  std::uint64_t seed;
  Counters golden;
};

// Names each case by its seed alone; the instantiation prefix names the
// configuration.
void PrintTo(const FuzzCase& c, std::ostream* os) { *os << c.seed; }

// A node-cell payload, [u32 in_count][u32 data_len][data][in ids][out ids],
// with sorted id lists: the shape CellCodec::EncodeAdjacency compresses.
std::string NodePayload(Random* rng) {
  const auto in_count = static_cast<std::uint32_t>(rng->Uniform(12));
  const auto data_len = static_cast<std::uint32_t>(rng->Uniform(24));
  const std::uint64_t ids = in_count + rng->Uniform(12);
  std::string payload(8, '\0');
  std::memcpy(&payload[0], &in_count, 4);
  std::memcpy(&payload[4], &data_len, 4);
  payload.append(data_len, 'd');
  CellId id = 0;
  for (std::uint64_t i = 0; i < ids; ++i) {
    if (i == in_count) id = 0;
    id += rng->Uniform(50);
    payload.append(reinterpret_cast<const char*>(&id), sizeof(id));
  }
  return payload;
}

std::string FuzzPayload(Random* rng, CellId id, char base) {
  if (rng->Uniform(2) == 0) return NodePayload(rng);
  return std::string(rng->Uniform(300), static_cast<char>(base + id % 26));
}

class MemoryTrunkFuzzTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(MemoryTrunkFuzzTest, MatchesReferenceModel) {
  const FuzzCase& param = GetParam();
  Random rng(param.seed);
  MemoryTrunk::Options options;
  options.capacity = 512 * 1024;
  options.compress_adjacency = param.config != FuzzConfig::kRaw;
  std::unique_ptr<tfs::Tfs> tfs;
  if (param.config == FuzzConfig::kBudgeted) {
    tfs::Tfs::Options tfs_options;
    tfs_options.root = ::testing::TempDir() + "/trunk_fuzz_" +
                       std::to_string(param.seed) + "_" +
                       std::to_string(::getpid());
    std::filesystem::remove_all(tfs_options.root);
    ASSERT_TRUE(tfs::Tfs::Open(tfs_options, &tfs).ok());
    options.memory_budget = 4 << 10;
    options.cold_tfs = tfs.get();
    options.cold_page_bytes = 1 << 10;
  }
  auto trunk = NewTrunk(options);
  std::map<CellId, std::string> reference;
  for (int op = 0; op < 4000; ++op) {
    const CellId id = rng.Uniform(64);
    switch (rng.Uniform(7)) {
      case 0: {
        const std::string payload = FuzzPayload(&rng, id, 'a');
        const Status s = trunk->AddCell(id, Slice(payload));
        if (reference.count(id) != 0) {
          EXPECT_TRUE(s.IsAlreadyExists());
        } else if (s.ok()) {
          reference[id] = payload;
        }
        break;
      }
      case 1: {
        const std::string payload = FuzzPayload(&rng, id, 'A');
        if (trunk->PutCell(id, Slice(payload)).ok()) {
          reference[id] = payload;
        }
        break;
      }
      case 2: {
        const Status s = trunk->RemoveCell(id);
        EXPECT_EQ(s.ok(), reference.erase(id) > 0);
        break;
      }
      case 3: {
        // Whole 8-byte words keep a node cell's shape (and, being large
        // ids, its sort order), so defrag can re-compress it.
        const std::size_t n = rng.Uniform(2) == 0 ? 8 * (1 + rng.Uniform(4))
                                                  : 1 + rng.Uniform(40);
        const std::string suffix(n, 'z');
        const Status s = trunk->AppendToCell(id, Slice(suffix));
        auto it = reference.find(id);
        if (it == reference.end()) {
          EXPECT_TRUE(s.IsNotFound());
        } else if (s.ok()) {
          it->second += suffix;
        }
        break;
      }
      case 4: {
        // Alternate the copying and the pinning read paths.
        auto it = reference.find(id);
        std::string out;
        Status s;
        if (op % 2 == 0) {
          s = trunk->GetCell(id, &out);
        } else {
          MemoryTrunk::ConstAccessor accessor;
          s = trunk->Access(id, &accessor);
          if (s.ok()) out = accessor.data().ToString();
        }
        if (it == reference.end()) {
          EXPECT_TRUE(s.IsNotFound());
        } else {
          ASSERT_TRUE(s.ok());
          EXPECT_EQ(out, it->second);
        }
        break;
      }
      case 5: {
        if (op % 37 == 0) trunk->Defragment();
        break;
      }
      case 6: {
        // Field patch: may land in a node cell's header or id lists, so a
        // compressed cell can stay compressed, shrink, grow or fall back to
        // raw. Some patches run past the end and must be refused.
        auto it = reference.find(id);
        const std::uint64_t size =
            it == reference.end() ? 64 : it->second.size();
        const std::uint64_t at = rng.Uniform(size + 4);
        const std::string bytes(rng.Uniform(16), 'w');
        const Status s = trunk->WriteAt(id, at, Slice(bytes));
        if (it == reference.end()) {
          EXPECT_TRUE(s.IsNotFound());
        } else if (at + bytes.size() > it->second.size()) {
          EXPECT_TRUE(s.IsInvalidArgument());
        } else {
          ASSERT_TRUE(s.ok());
          it->second.replace(at, bytes.size(), bytes);
        }
        break;
      }
    }
  }
  // Full final sweep.
  EXPECT_EQ(trunk->cell_count(), reference.size());
  trunk->Defragment();
  for (const auto& [id, expected] : reference) {
    std::string out;
    ASSERT_TRUE(trunk->GetCell(id, &out).ok());
    EXPECT_EQ(out, expected);
  }
  const Counters got = DeterministicCounters(trunk->stats());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], param.golden[i]) << kCounterNames[i];
  }
  if (got != param.golden) {
    std::string row;
    for (std::uint64_t v : got) row += std::to_string(v) + ", ";
    ADD_FAILURE() << "this run's counters for seed " << param.seed << ": {"
                  << row << "}";
  }
}

// Counters recorded per seed. Placement and accounting must not drift: a
// refactor of the trunk's store path keeps every one of these values.
INSTANTIATE_TEST_SUITE_P(
    Seeds, MemoryTrunkFuzzTest,
    ::testing::Values(
        FuzzCase{FuzzConfig::kRaw, 11,
                 {45, 6261, 0, 0, 7136, 7136, 17, 694, 87, 252, 0, 0, 0, 0, 0,
                  0, 0, 0, 0, 0, 0}},
        FuzzCase{FuzzConfig::kRaw, 22,
                 {39, 4962, 0, 0, 5736, 5736, 17, 675, 130, 253, 0, 0, 0, 0, 0,
                  0, 0, 0, 0, 0, 0}},
        FuzzCase{FuzzConfig::kRaw, 33,
                 {48, 6811, 0, 0, 7744, 7744, 17, 658, 118, 284, 0, 0, 0, 0, 0,
                  0, 0, 0, 0, 0, 0}},
        FuzzCase{FuzzConfig::kRaw, 44,
                 {44, 5344, 0, 0, 6216, 6216, 21, 850, 90, 284, 0, 0, 0, 0, 0,
                  0, 0, 0, 0, 0, 0}},
        FuzzCase{FuzzConfig::kRaw, 55,
                 {35, 3973, 0, 0, 4648, 4648, 15, 546, 124, 238, 0, 0, 0, 0, 0,
                  0, 0, 0, 0, 0, 0}},
        FuzzCase{FuzzConfig::kRaw, 66,
                 {40, 5135, 0, 0, 5920, 5920, 15, 567, 141, 232, 0, 0, 0, 0, 0,
                  0, 0, 0, 0, 0, 0}},
        FuzzCase{FuzzConfig::kRaw, 77,
                 {49, 6807, 0, 0, 7752, 7752, 9, 362, 135, 240, 0, 0, 0, 0, 0,
                  0, 0, 0, 0, 0, 0}},
        FuzzCase{FuzzConfig::kRaw, 88,
                 {40, 5969, 0, 0, 6704, 6704, 18, 684, 117, 276, 0, 0, 0, 0, 0,
                  0, 0, 0, 0, 0, 0}}));
INSTANTIATE_TEST_SUITE_P(
    CompressedSeeds, MemoryTrunkFuzzTest,
    ::testing::Values(
        FuzzCase{FuzzConfig::kCompressed, 11,
                 {45, 5322, 0, 0, 6208, 6208, 17, 692, 66, 273, 12, 348, 0, 0,
                  0, 0, 0, 0, 0, 0, 0}},
        FuzzCase{FuzzConfig::kCompressed, 22,
                 {39, 4414, 0, 0, 5192, 5192, 17, 679, 107, 276, 12, 271, 0, 0,
                  0, 0, 0, 0, 0, 0, 0}},
        FuzzCase{FuzzConfig::kCompressed, 33,
                 {48, 5599, 0, 0, 6536, 6536, 17, 671, 102, 300, 16, 431, 0, 0,
                  0, 0, 0, 0, 0, 0, 0}},
        FuzzCase{FuzzConfig::kCompressed, 44,
                 {44, 4260, 0, 0, 5120, 5120, 21, 849, 70, 304, 15, 362, 0, 0,
                  0, 0, 0, 0, 0, 0, 0}},
        FuzzCase{FuzzConfig::kCompressed, 55,
                 {35, 2893, 0, 0, 3568, 3568, 15, 550, 97, 265, 17, 445, 0, 0,
                  0, 0, 0, 0, 0, 0, 0}},
        FuzzCase{FuzzConfig::kCompressed, 66,
                 {40, 4142, 0, 0, 4912, 4912, 15, 568, 107, 266, 12, 363, 0, 0,
                  0, 0, 0, 0, 0, 0, 0}},
        FuzzCase{FuzzConfig::kCompressed, 77,
                 {49, 5322, 0, 0, 6272, 6272, 9, 362, 107, 268, 18, 485, 0, 0,
                  0, 0, 0, 0, 0, 0, 0}},
        FuzzCase{FuzzConfig::kCompressed, 88,
                 {40, 5043, 0, 0, 5800, 5800, 18, 685, 84, 309, 10, 326, 0, 0,
                  0, 0, 0, 0, 0, 0, 0}}));
INSTANTIATE_TEST_SUITE_P(
    BudgetedSeeds, MemoryTrunkFuzzTest,
    ::testing::Values(
        FuzzCase{FuzzConfig::kBudgeted, 11,
                 {45, 3179, 0, 0, 3696, 3696, 242, 5359, 16, 323, 6, 184, 19,
                  2143, 619, 354, 72157, 39147, 0, 0, 0}},
        FuzzCase{FuzzConfig::kBudgeted, 22,
                 {39, 3582, 0, 0, 4160, 4160, 256, 5450, 7, 376, 6, 138, 10,
                  832, 640, 394, 79722, 51198, 0, 0, 0}},
        FuzzCase{FuzzConfig::kBudgeted, 33,
                 {48, 3107, 0, 0, 3688, 3688, 273, 5688, 6, 396, 10, 270, 18,
                  2492, 717, 423, 85770, 53440, 0, 0, 0}},
        FuzzCase{FuzzConfig::kBudgeted, 44,
                 {44, 3384, 0, 0, 4088, 4088, 266, 5714, 14, 360, 14, 346, 8,
                  876, 683, 411, 84479, 47787, 0, 0, 0}},
        FuzzCase{FuzzConfig::kBudgeted, 55,
                 {35, 2893, 0, 0, 3568, 3568, 264, 5491, 7, 355, 17, 445, 0, 0,
                  664, 405, 84476, 52203, 0, 0, 0}},
        FuzzCase{FuzzConfig::kBudgeted, 66,
                 {40, 3478, 0, 0, 4160, 4160, 257, 5330, 13, 360, 11, 345, 4,
                  664, 687, 432, 80762, 50444, 0, 0, 0}},
        FuzzCase{FuzzConfig::kBudgeted, 77,
                 {49, 3585, 0, 0, 4144, 4144, 258, 5701, 9, 366, 11, 317, 20,
                  1737, 721, 455, 86361, 54999, 0, 0, 0}},
        FuzzCase{FuzzConfig::kBudgeted, 88,
                 {40, 3533, 0, 0, 4000, 4000, 286, 5691, 13, 380, 3, 86, 15,
                  1510, 783, 472, 97744, 61640, 0, 0, 0}}));

TEST(MemoryStorageTest, AttachDetachTrunks) {
  MemoryStorage::Options options;
  options.trunk = SmallTrunk();
  MemoryStorage storage(options);
  ASSERT_TRUE(storage.AttachTrunk(0).ok());
  ASSERT_TRUE(storage.AttachTrunk(1).ok());
  EXPECT_TRUE(storage.AttachTrunk(0).IsAlreadyExists());
  EXPECT_NE(storage.Pin()->primary_at(0), nullptr);
  EXPECT_EQ(storage.Pin()->primary_at(9), nullptr);
  std::size_t hosted = 0;
  storage.Pin()->ForEachPrimary([&](TrunkId, MemoryTrunk&) { ++hosted; });
  EXPECT_EQ(hosted, 2u);
  ASSERT_TRUE(storage.DetachTrunk(0).ok());
  EXPECT_TRUE(storage.DetachTrunk(0).IsNotFound());
}

// A pin is a snapshot: detach, promotion and attach publish new snapshots
// and leave a held one, and the trunks in it, as they were.
TEST(MemoryStorageTest, PinnedTrunksOutliveDetachAndPromotion) {
  MemoryStorage::Options options;
  options.trunk = SmallTrunk();
  MemoryStorage storage(options);
  ASSERT_TRUE(storage.AttachTrunk(0).ok());
  ASSERT_TRUE(storage.AttachReplicaTrunk(1).ok());
  ASSERT_TRUE(
      storage.Pin()->primary_at(0)->AddCell(5, Slice("still here")).ok());

  const auto old_pin = storage.Pin();
  ASSERT_TRUE(storage.DetachTrunk(0).ok());
  ASSERT_TRUE(storage.PromoteReplicaTrunk(1).ok());
  ASSERT_TRUE(storage.AttachTrunk(40).ok());  // Past the vector's end.

  std::string out;
  ASSERT_NE(old_pin->primary_at(0), nullptr);
  ASSERT_TRUE(old_pin->primary_at(0)->GetCell(5, &out).ok());
  EXPECT_EQ(out, "still here");
  EXPECT_EQ(old_pin->primary_at(1), nullptr);
  EXPECT_NE(old_pin->replica_at(1), nullptr);
  EXPECT_EQ(old_pin->primary_at(40), nullptr);

  const auto pin = storage.Pin();
  EXPECT_EQ(pin->primary_at(0), nullptr);
  EXPECT_NE(pin->primary_at(1), nullptr);
  EXPECT_EQ(pin->replica_at(1), nullptr);
  EXPECT_NE(pin->primary_at(40), nullptr);
  EXPECT_EQ(pin->primary_at(-1), nullptr);
  EXPECT_EQ(pin->primary_at(1 << 20), nullptr);
  EXPECT_EQ(pin->replica_at(-1), nullptr);
  EXPECT_EQ(pin->replica_at(1 << 20), nullptr);
}

TEST(MemoryStorageTest, SaveAndLoadViaTfs) {
  const std::string root = ::testing::TempDir() + "/storage_tfs";
  std::filesystem::remove_all(root);
  tfs::Tfs::Options tfs_options;
  tfs_options.root = root;
  std::unique_ptr<tfs::Tfs> tfs;
  ASSERT_TRUE(tfs::Tfs::Open(tfs_options, &tfs).ok());

  MemoryStorage::Options options;
  options.trunk = SmallTrunk();
  MemoryStorage storage(options);
  ASSERT_TRUE(storage.AttachTrunk(3).ok());
  ASSERT_TRUE(
      storage.Pin()->primary_at(3)->AddCell(7, Slice("persist me")).ok());
  ASSERT_TRUE(storage.SaveToTfs(tfs.get(), "m0").ok());

  std::unique_ptr<MemoryTrunk> restored;
  ASSERT_TRUE(MemoryStorage::LoadTrunkFromTfs(tfs.get(), "m0", 3,
                                              SmallTrunk(), &restored)
                  .ok());
  std::string out;
  ASSERT_TRUE(restored->GetCell(7, &out).ok());
  EXPECT_EQ(out, "persist me");
}

TEST(MemoryStorageTest, DefragDaemonSweeps) {
  MemoryStorage::Options options;
  options.trunk = SmallTrunk();
  options.defrag_threshold = 0.01;
  MemoryStorage storage(options);
  ASSERT_TRUE(storage.AttachTrunk(0).ok());
  auto trunk = storage.Pin()->primary_at(0);
  for (CellId id = 0; id < 100; ++id) {
    ASSERT_TRUE(trunk->AddCell(id, Slice(std::string(64, 'd'))).ok());
  }
  for (CellId id = 0; id < 100; id += 2) {
    ASSERT_TRUE(trunk->RemoveCell(id).ok());
  }
  storage.StartDefragDaemon(std::chrono::milliseconds(5));
  // Give the daemon a few periods to run.
  for (int i = 0; i < 200 && trunk->stats().dead_bytes > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  storage.StopDefragDaemon();
  EXPECT_EQ(trunk->stats().dead_bytes, 0u);
  EXPECT_GT(trunk->stats().defrag_passes, 0u);
}

}  // namespace
}  // namespace trinity::storage
