// Memory-hierarchy suite (docs/memory_hierarchy.md): the delta-varint
// adjacency codec, the trunk's transparent compressed storage, and the
// TFS-backed cold tier with clock eviction and fault-in. The chaos cases at
// the bottom derive their seeds from TRINITY_CHAOS_SEED_OFFSET exactly like
// tests/chaos_test.cc, so scripts/check.sh --chaos-sweep reruns them against
// disjoint fault schedules.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "cloud/memory_cloud.h"
#include "common/random.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "storage/cell_codec.h"
#include "storage/cold_tier.h"
#include "storage/memory_trunk.h"
#include "tfs/tfs.h"

namespace trinity::storage {
namespace {

std::uint64_t SeedOffset() {
  static const std::uint64_t offset = [] {
    const char* env = std::getenv("TRINITY_CHAOS_SEED_OFFSET");
    return env == nullptr ? 0ULL : std::strtoull(env, nullptr, 10);
  }();
  return offset;
}

std::string FreshTfsRoot(const std::string& tag) {
  const std::string root = ::testing::TempDir() + "/coldtier_" + tag + "_" +
                           std::to_string(::getpid());
  std::filesystem::remove_all(root);
  return root;
}

std::unique_ptr<tfs::Tfs> NewTfs(const std::string& tag) {
  tfs::Tfs::Options options;
  options.root = FreshTfsRoot(tag);
  std::unique_ptr<tfs::Tfs> tfs;
  EXPECT_TRUE(tfs::Tfs::Open(options, &tfs).ok());
  return tfs;
}

// A node cell whose id lists are sorted, i.e. codec-eligible.
std::string SortedNode(std::vector<CellId> in, std::vector<CellId> out,
                       std::string data = {}) {
  std::sort(in.begin(), in.end());
  std::sort(out.begin(), out.end());
  graph::NodeImage node;
  node.id = 0;
  node.data = std::move(data);
  node.in = std::move(in);
  node.out = std::move(out);
  return graph::Graph::EncodeNode(node);
}

// ------------------------------------------------------------ Codec units

TEST(CellCodecTest, VarintRoundTrip) {
  const std::vector<std::uint64_t> values = {
      0, 1, 127, 128, 16383, 16384, (1ull << 32) - 1, 1ull << 32,
      ~static_cast<std::uint64_t>(0)};
  for (std::uint64_t v : values) {
    std::string buf;
    CellCodec::PutVarint(&buf, v);
    const char* p = buf.data();
    std::uint64_t got = 0;
    ASSERT_TRUE(CellCodec::GetVarint(&p, buf.data() + buf.size(), &got));
    EXPECT_EQ(got, v);
    EXPECT_EQ(p, buf.data() + buf.size());
  }
}

TEST(CellCodecTest, VarintRejectsTruncationAndOverlong) {
  std::string buf;
  CellCodec::PutVarint(&buf, 300);
  const char* p = buf.data();
  std::uint64_t v = 0;
  // Truncated: continuation bit set but no next byte.
  EXPECT_FALSE(CellCodec::GetVarint(&p, buf.data() + 1, &v));
  EXPECT_EQ(p, buf.data());  // Not advanced on failure.
  // Overlong: ten 0x80 continuation bytes overflow u64.
  const std::string overlong(10, '\x80');
  p = overlong.data();
  EXPECT_FALSE(
      CellCodec::GetVarint(&p, overlong.data() + overlong.size(), &v));
}

TEST(CellCodecTest, EmptyListsRoundTrip) {
  // No neighbors at all: the 8-byte header still shrinks to four varints.
  const std::string raw = SortedNode({}, {});
  std::string enc;
  ASSERT_TRUE(CellCodec::EncodeAdjacency(Slice(raw), &enc));
  EXPECT_LT(enc.size(), raw.size());
  std::string dec;
  ASSERT_TRUE(CellCodec::DecodeAdjacency(Slice(enc), &dec).ok());
  EXPECT_EQ(dec, raw);
  // Empty id lists around a bulky data payload round-trip too.
  const std::string raw2 = SortedNode({}, {5, 5, 5, 5, 5, 5}, "payload");
  ASSERT_TRUE(CellCodec::EncodeAdjacency(Slice(raw2), &enc));
  ASSERT_TRUE(CellCodec::DecodeAdjacency(Slice(enc), &dec).ok());
  EXPECT_EQ(dec, raw2);
}

TEST(CellCodecTest, SingleIdRoundTrip) {
  const std::string raw = SortedNode({7}, {9});
  std::string enc;
  ASSERT_TRUE(CellCodec::EncodeAdjacency(Slice(raw), &enc));
  EXPECT_LT(enc.size(), raw.size());
  std::string dec;
  ASSERT_TRUE(CellCodec::DecodeAdjacency(Slice(enc), &dec).ok());
  EXPECT_EQ(dec, raw);
  std::uint64_t size = 0;
  ASSERT_TRUE(CellCodec::DecodedSize(Slice(enc), &size).ok());
  EXPECT_EQ(size, raw.size());
}

TEST(CellCodecTest, MaxGapU64RoundTrip) {
  // First id 0, second id u64 max: the gap needs the full 10-byte varint.
  const CellId top = ~static_cast<CellId>(0);
  const std::string raw = SortedNode({0, top}, {0, 1, 2, top - 1, top});
  std::string enc;
  ASSERT_TRUE(CellCodec::EncodeAdjacency(Slice(raw), &enc));
  std::string dec;
  ASSERT_TRUE(CellCodec::DecodeAdjacency(Slice(enc), &dec).ok());
  EXPECT_EQ(dec, raw);
}

TEST(CellCodecTest, DuplicateIdsAllowed) {
  // Parallel edges: non-decreasing, gap 0.
  const std::string raw = SortedNode({3, 3, 3}, {8, 8, 9, 9});
  std::string enc;
  ASSERT_TRUE(CellCodec::EncodeAdjacency(Slice(raw), &enc));
  std::string dec;
  ASSERT_TRUE(CellCodec::DecodeAdjacency(Slice(enc), &dec).ok());
  EXPECT_EQ(dec, raw);
}

TEST(CellCodecTest, UnsortedRejected) {
  graph::NodeImage node;
  node.id = 0;
  node.out = {9, 3, 7};  // Descending pair -> store raw.
  const std::string raw = graph::Graph::EncodeNode(node);
  std::string enc;
  EXPECT_FALSE(CellCodec::EncodeAdjacency(Slice(raw), &enc));
}

TEST(CellCodecTest, NonNodePayloadRejected) {
  std::string enc;
  EXPECT_FALSE(CellCodec::EncodeAdjacency(Slice("not a node cell"), &enc));
  EXPECT_FALSE(CellCodec::EncodeAdjacency(Slice(), &enc));
  // Header promises more ids than the blob carries.
  std::string short_blob = SortedNode({1, 2, 3}, {});
  short_blob.resize(short_blob.size() - 8);
  EXPECT_FALSE(CellCodec::EncodeAdjacency(Slice(short_blob), &enc));
}

TEST(CellCodecTest, DecodeRejectsCorruptInput) {
  const std::string raw =
      SortedNode({1, 2, 3, 4}, {10, 20, 30, 40, 50, 60, 70});
  std::string enc;
  ASSERT_TRUE(CellCodec::EncodeAdjacency(Slice(raw), &enc));
  std::string dec;
  // Every truncation must fail cleanly, never read out of bounds.
  for (std::size_t len = 0; len < enc.size(); ++len) {
    EXPECT_FALSE(CellCodec::DecodeAdjacency(Slice(enc.data(), len), &dec).ok())
        << "truncated to " << len;
  }
  EXPECT_TRUE(CellCodec::DecodeAdjacency(Slice(), &dec).IsCorruption());
}

// ----------------------------------------------- Compressed trunk storage

MemoryTrunk::Options CompressedTrunk() {
  MemoryTrunk::Options options;
  options.capacity = 1 << 20;
  options.compress_adjacency = true;
  return options;
}

std::unique_ptr<MemoryTrunk> NewTrunk(const MemoryTrunk::Options& options) {
  std::unique_ptr<MemoryTrunk> trunk;
  EXPECT_TRUE(MemoryTrunk::Create(options, &trunk).ok());
  return trunk;
}

TEST(CompressedTrunkTest, ReadsAreBitIdentical) {
  auto trunk = NewTrunk(CompressedTrunk());
  std::vector<std::string> raws;
  for (CellId id = 0; id < 64; ++id) {
    std::vector<CellId> in, out;
    for (CellId k = 0; k < 16; ++k) {
      in.push_back(id * 3 + k * 7);
      out.push_back(id + k * 11);
    }
    raws.push_back(SortedNode(in, out, "node"));
    ASSERT_TRUE(trunk->AddCell(id, Slice(raws.back())).ok());
  }
  const auto stats = trunk->stats();
  EXPECT_EQ(stats.compressed_cells, 64u);
  EXPECT_LT(stats.compressed_bytes, 64u * raws[0].size());
  for (CellId id = 0; id < 64; ++id) {
    std::string out;
    ASSERT_TRUE(trunk->GetCell(id, &out).ok());
    EXPECT_EQ(out, raws[id]) << "cell " << id;
    std::uint64_t size = 0;
    ASSERT_TRUE(trunk->GetCellSize(id, &size).ok());
    EXPECT_EQ(size, raws[id].size());
    // Accessor path: compressed cells materialize into an owned buffer.
    MemoryTrunk::ConstAccessor acc;
    ASSERT_TRUE(trunk->Access(id, &acc).ok());
    ASSERT_TRUE(acc.valid());
    EXPECT_EQ(acc.data().ToString(), raws[id]);
  }
}

TEST(CompressedTrunkTest, NonCompressiblePayloadsStayRaw) {
  auto trunk = NewTrunk(CompressedTrunk());
  ASSERT_TRUE(trunk->AddCell(1, Slice("opaque blob, not a node")).ok());
  EXPECT_EQ(trunk->stats().compressed_cells, 0u);
  std::string out;
  ASSERT_TRUE(trunk->GetCell(1, &out).ok());
  EXPECT_EQ(out, "opaque blob, not a node");
}

TEST(CompressedTrunkTest, AppendAndWriteAtOnCompressedCell) {
  auto trunk = NewTrunk(CompressedTrunk());
  std::string raw = SortedNode({1, 2, 3, 4, 5, 6}, {10, 20, 30, 40, 50, 60});
  ASSERT_TRUE(trunk->AddCell(1, Slice(raw)).ok());
  ASSERT_EQ(trunk->stats().compressed_cells, 1u);
  // Append one more out-id (the graph layer's hot path).
  CellId extra = 70;
  char suffix[8];
  std::memcpy(suffix, &extra, 8);
  ASSERT_TRUE(trunk->AppendToCell(1, Slice(suffix, 8)).ok());
  raw += std::string(suffix, 8);
  std::string out;
  ASSERT_TRUE(trunk->GetCell(1, &out).ok());
  EXPECT_EQ(out, raw);
  // Patch bytes mid-payload through the decoded view.
  ASSERT_TRUE(trunk->WriteAt(1, 8, Slice("\x2a", 1)).ok());
  raw[8] = '\x2a';
  ASSERT_TRUE(trunk->GetCell(1, &out).ok());
  EXPECT_EQ(out, raw);
  // Defrag re-compresses the materialized cell when it still qualifies.
  trunk->Defragment();
  ASSERT_TRUE(trunk->GetCell(1, &out).ok());
  EXPECT_EQ(out, raw);
}

TEST(CompressedTrunkTest, SerializeRoundTripsFormats) {
  auto trunk = NewTrunk(CompressedTrunk());
  const std::string adj =
      SortedNode({1, 2, 3, 4, 5, 6, 7, 8}, {2, 4, 6, 8, 10, 12, 14, 16});
  ASSERT_TRUE(trunk->AddCell(1, Slice(adj)).ok());
  ASSERT_TRUE(trunk->AddCell(2, Slice("plain raw payload")).ok());
  std::string image;
  ASSERT_TRUE(trunk->Serialize(&image).ok());
  std::unique_ptr<MemoryTrunk> copy;
  ASSERT_TRUE(
      MemoryTrunk::Deserialize(Slice(image), CompressedTrunk(), &copy).ok());
  EXPECT_EQ(copy->stats().compressed_cells, 1u);
  std::string out;
  ASSERT_TRUE(copy->GetCell(1, &out).ok());
  EXPECT_EQ(out, adj);
  ASSERT_TRUE(copy->GetCell(2, &out).ok());
  EXPECT_EQ(out, "plain raw payload");
}

// Acceptance: on a power-law graph, compressed adjacency cuts resident
// bytes by >= 30% while every read stays bit-identical to the raw config.
TEST(CompressedTrunkTest, PowerLawFootprintShrinksThirtyPercent) {
  cloud::MemoryCloud::Options options;
  options.num_slaves = 2;
  options.p_bits = 4;
  options.storage.trunk.capacity = 8 << 20;
  std::unique_ptr<cloud::MemoryCloud> raw_cloud;
  ASSERT_TRUE(cloud::MemoryCloud::Create(options, &raw_cloud).ok());
  options.storage.trunk.compress_adjacency = true;
  std::unique_ptr<cloud::MemoryCloud> comp_cloud;
  ASSERT_TRUE(cloud::MemoryCloud::Create(options, &comp_cloud).ok());

  const auto edges = graph::Generators::PowerLaw(3000, 16.0, 2.2, 42);
  for (cloud::MemoryCloud* c : {raw_cloud.get(), comp_cloud.get()}) {
    graph::Graph g(c, graph::Graph::Options{});
    ASSERT_TRUE(graph::Generators::Load(&g, edges, /*with_names=*/false,
                                        /*seed=*/42,
                                        /*sort_adjacency=*/true)
                    .ok());
  }
  const auto raw_stats = raw_cloud->AggregateTrunkStats();
  const auto comp_stats = comp_cloud->AggregateTrunkStats();
  ASSERT_GT(raw_stats.resident_bytes, 0u);
  EXPECT_GT(comp_stats.compressed_cells, 0u);
  EXPECT_LE(static_cast<double>(comp_stats.resident_bytes),
            0.7 * static_cast<double>(raw_stats.resident_bytes))
      << "compressed resident " << comp_stats.resident_bytes << " vs raw "
      << raw_stats.resident_bytes;
  for (CellId id = 0; id < 3000; ++id) {
    std::string raw_cell, comp_cell;
    ASSERT_TRUE(raw_cloud->GetCell(id, &raw_cell).ok()) << "cell " << id;
    ASSERT_TRUE(comp_cloud->GetCell(id, &comp_cell).ok()) << "cell " << id;
    ASSERT_EQ(comp_cell, raw_cell) << "cell " << id;
  }
}

// --------------------------------------------------- Cold tier spill/fault

MemoryTrunk::Options BudgetedTrunk(tfs::Tfs* tfs,
                                   std::uint64_t budget = 64 << 10) {
  MemoryTrunk::Options options;
  options.capacity = 1 << 20;
  options.memory_budget = budget;
  options.cold_tfs = tfs;
  options.cold_page_bytes = 8 << 10;
  return options;
}

std::string Payload(CellId id, std::size_t n = 1024) {
  return std::string(n, static_cast<char>('a' + id % 26));
}

TEST(ColdTierTest, BudgetRequiresColdTfs) {
  MemoryTrunk::Options options;
  options.memory_budget = 1 << 20;
  std::unique_ptr<MemoryTrunk> trunk;
  EXPECT_TRUE(MemoryTrunk::Create(options, &trunk).IsInvalidArgument());
}

TEST(ColdTierTest, SpillsOverBudgetAndFaultsBack) {
  auto tfs = NewTfs("spill");
  auto trunk = NewTrunk(BudgetedTrunk(tfs.get()));
  const int kCells = 200;  // ~200 KB of payload against a 64 KB budget.
  for (CellId id = 0; id < kCells; ++id) {
    ASSERT_TRUE(trunk->AddCell(id, Slice(Payload(id))).ok());
  }
  auto stats = trunk->stats();
  EXPECT_GT(stats.cells_evicted, 0u);
  EXPECT_GT(stats.spilled_cells, 0u);
  EXPECT_GT(stats.cold_bytes_written, 0u);
  EXPECT_LE(stats.used_bytes, 64u << 10);
  EXPECT_EQ(stats.live_cells, static_cast<std::uint64_t>(kCells));
  EXPECT_GT(tfs->bytes_written(), 0u);

  // Every cell — resident or spilled — must read back exactly; reads of
  // spilled cells fault them in.
  for (CellId id = 0; id < kCells; ++id) {
    EXPECT_TRUE(trunk->Contains(id));
    std::uint64_t size = 0;
    ASSERT_TRUE(trunk->GetCellSize(id, &size).ok());
    EXPECT_EQ(size, 1024u);
    std::string out;
    ASSERT_TRUE(trunk->GetCell(id, &out).ok()) << "cell " << id;
    EXPECT_EQ(out, Payload(id)) << "cell " << id;
  }
  stats = trunk->stats();
  EXPECT_GT(stats.cells_faulted, 0u);
  EXPECT_GT(stats.cold_bytes_read, 0u);
  EXPECT_GT(tfs->bytes_read(), 0u);
  EXPECT_EQ(trunk->CellIds().size(), static_cast<std::size_t>(kCells));
}

TEST(ColdTierTest, GetCellSizeNeverFaults) {
  auto tfs = NewTfs("sizes");
  auto trunk = NewTrunk(BudgetedTrunk(tfs.get()));
  for (CellId id = 0; id < 200; ++id) {
    ASSERT_TRUE(trunk->AddCell(id, Slice(Payload(id))).ok());
  }
  ASSERT_GT(trunk->stats().spilled_cells, 0u);
  const std::uint64_t faults_before = trunk->stats().cells_faulted;
  for (CellId id = 0; id < 200; ++id) {
    std::uint64_t size = 0;
    ASSERT_TRUE(trunk->GetCellSize(id, &size).ok());
    EXPECT_EQ(size, 1024u);
  }
  EXPECT_EQ(trunk->stats().cells_faulted, faults_before);
}

TEST(ColdTierTest, MutationsOnSpilledCells) {
  auto tfs = NewTfs("mutate");
  auto trunk = NewTrunk(BudgetedTrunk(tfs.get()));
  for (CellId id = 0; id < 200; ++id) {
    ASSERT_TRUE(trunk->AddCell(id, Slice(Payload(id))).ok());
  }
  ASSERT_GT(trunk->stats().spilled_cells, 0u);
  // The clock spills from the tail, so the earliest ids are cold.
  ASSERT_TRUE(trunk->AddCell(0, Slice("dup")).IsAlreadyExists());
  ASSERT_TRUE(trunk->PutCell(1, Slice("overwrite")).ok());
  std::string out;
  ASSERT_TRUE(trunk->GetCell(1, &out).ok());
  EXPECT_EQ(out, "overwrite");
  ASSERT_TRUE(trunk->AppendToCell(2, Slice("+tail")).ok());
  ASSERT_TRUE(trunk->GetCell(2, &out).ok());
  EXPECT_EQ(out, Payload(2) + "+tail");
  ASSERT_TRUE(trunk->WriteAt(3, 0, Slice("XYZ")).ok());
  ASSERT_TRUE(trunk->GetCell(3, &out).ok());
  EXPECT_EQ(out, "XYZ" + Payload(3).substr(3));
  ASSERT_TRUE(trunk->RemoveCell(4).ok());
  EXPECT_FALSE(trunk->Contains(4));
  EXPECT_TRUE(trunk->GetCell(4, &out).IsNotFound());
  EXPECT_TRUE(trunk->RemoveCell(4).IsNotFound());
}

TEST(ColdTierTest, SecondChanceKeepsHotCellsResident) {
  auto tfs = NewTfs("clock");
  auto trunk = NewTrunk(BudgetedTrunk(tfs.get()));
  for (CellId id = 0; id < 40; ++id) {
    ASSERT_TRUE(trunk->AddCell(id, Slice(Payload(id))).ok());
  }
  // Keep touching a working set sitting at the *tail* of the ring — first
  // in line for the clock hand — while pushing past the budget. Each sweep
  // clears the second-chance bits it honors, so a genuinely hot set is one
  // that is re-read between sweeps.
  std::string out;
  for (CellId id = 40; id < 200; ++id) {
    for (CellId hot = 0; hot < 8; ++hot) {
      ASSERT_TRUE(trunk->GetCell(hot, &out).ok());
    }
    ASSERT_TRUE(trunk->AddCell(id, Slice(Payload(id))).ok());
  }
  ASSERT_GT(trunk->stats().spilled_cells, 0u);
  // The touched cells had the second-chance bit, so re-reading them must
  // not fault (they were skipped, not spilled).
  const std::uint64_t faults_before = trunk->stats().cells_faulted;
  for (CellId id = 0; id < 8; ++id) {
    ASSERT_TRUE(trunk->GetCell(id, &out).ok());
    EXPECT_EQ(out, Payload(id));
  }
  EXPECT_EQ(trunk->stats().cells_faulted, faults_before)
      << "hot cells were evicted despite their ref bits";
}

TEST(ColdTierTest, PinnedCellsAreNeverEvicted) {
  auto tfs = NewTfs("pinned");
  auto trunk = NewTrunk(BudgetedTrunk(tfs.get()));
  ASSERT_TRUE(trunk->AddCell(0, Slice(Payload(0))).ok());
  {
    MemoryTrunk::ConstAccessor acc;
    ASSERT_TRUE(trunk->Access(0, &acc).ok());
    const char* pinned_data = acc.data().data();
    for (CellId id = 1; id < 200; ++id) {
      ASSERT_TRUE(trunk->AddCell(id, Slice(Payload(id))).ok());
    }
    ASSERT_GT(trunk->stats().spilled_cells, 0u);
    // The accessor's view must still be the original mapping and bytes.
    EXPECT_EQ(acc.data().data(), pinned_data);
    EXPECT_EQ(acc.data().ToString(), Payload(0));
  }
  std::string out;
  ASSERT_TRUE(trunk->GetCell(0, &out).ok());
  EXPECT_EQ(out, Payload(0));
}

TEST(ColdTierTest, CompressedCellsSpillInStoredForm) {
  auto tfs = NewTfs("compspill");
  auto options = BudgetedTrunk(tfs.get(), 8 << 10);
  options.compress_adjacency = true;
  auto trunk = NewTrunk(options);
  std::vector<std::string> raws;
  for (CellId id = 0; id < 200; ++id) {
    std::vector<CellId> out;
    for (CellId k = 0; k < 64; ++k) out.push_back(id + k * 3);
    raws.push_back(SortedNode({}, out));
    ASSERT_TRUE(trunk->AddCell(id, Slice(raws.back())).ok());
  }
  const auto stats = trunk->stats();
  ASSERT_GT(stats.spilled_cells, 0u);
  // Spilled bytes are stored (compressed) bytes, well under the raw sizes.
  EXPECT_LT(stats.spilled_bytes, stats.spilled_cells * raws[0].size());
  for (CellId id = 0; id < 200; ++id) {
    std::string out;
    ASSERT_TRUE(trunk->GetCell(id, &out).ok());
    ASSERT_EQ(out, raws[id]) << "cell " << id;
  }
}

TEST(ColdTierTest, SerializedImageIsSelfContained) {
  auto tfs = NewTfs("image");
  auto trunk = NewTrunk(BudgetedTrunk(tfs.get()));
  for (CellId id = 0; id < 200; ++id) {
    ASSERT_TRUE(trunk->AddCell(id, Slice(Payload(id))).ok());
  }
  ASSERT_GT(trunk->stats().spilled_cells, 0u);
  std::string image;
  ASSERT_TRUE(trunk->Serialize(&image).ok());
  // The image must load into a trunk with NO cold tier at all: spilled
  // cells were folded back in.
  MemoryTrunk::Options plain;
  plain.capacity = 1 << 20;
  std::unique_ptr<MemoryTrunk> copy;
  ASSERT_TRUE(MemoryTrunk::Deserialize(Slice(image), plain, &copy).ok());
  EXPECT_EQ(copy->cell_count(), 200u);
  for (CellId id = 0; id < 200; ++id) {
    std::string out;
    ASSERT_TRUE(copy->GetCell(id, &out).ok()) << "cell " << id;
    ASSERT_EQ(out, Payload(id));
  }
}

// ------------------------------------------- Failure windows (abort safety)

TEST(ColdTierTest, FailedSpillKeepsVictimsResident) {
  auto tfs = NewTfs("spillfail");
  auto trunk = NewTrunk(BudgetedTrunk(tfs.get()));
  for (CellId id = 0; id < 40; ++id) {
    ASSERT_TRUE(trunk->AddCell(id, Slice(Payload(id))).ok());
  }
  ASSERT_EQ(trunk->stats().spilled_cells, 0u);
  // Kill every datanode: page writes now fail, so eviction must abort and
  // leave all victims resident and readable (crash-mid-eviction safety).
  for (int d = 0; d < tfs->num_datanodes(); ++d) {
    ASSERT_TRUE(tfs->KillDatanode(d).ok());
  }
  for (CellId id = 40; id < 200; ++id) {
    ASSERT_TRUE(trunk->AddCell(id, Slice(Payload(id))).ok());
  }
  auto stats = trunk->stats();
  EXPECT_EQ(stats.spilled_cells, 0u);
  EXPECT_EQ(stats.live_cells, 200u);
  for (CellId id = 0; id < 200; ++id) {
    std::string out;
    ASSERT_TRUE(trunk->GetCell(id, &out).ok()) << "cell " << id;
    ASSERT_EQ(out, Payload(id));
  }
  // Storage heals: once the datanodes return, the next pass spills.
  for (int d = 0; d < tfs->num_datanodes(); ++d) {
    ASSERT_TRUE(tfs->ReviveDatanode(d).ok());
  }
  trunk->Defragment();
  EXPECT_GT(trunk->stats().spilled_cells, 0u);
  for (CellId id = 0; id < 200; ++id) {
    std::string out;
    ASSERT_TRUE(trunk->GetCell(id, &out).ok()) << "cell " << id;
    ASSERT_EQ(out, Payload(id));
  }
}

TEST(ColdTierTest, FailedFaultInLosesNothing) {
  auto tfs = NewTfs("faultfail");
  auto trunk = NewTrunk(BudgetedTrunk(tfs.get()));
  for (CellId id = 0; id < 200; ++id) {
    ASSERT_TRUE(trunk->AddCell(id, Slice(Payload(id))).ok());
  }
  ASSERT_GT(trunk->stats().spilled_cells, 0u);
  // With the cold store down, reads of resident cells still succeed but a
  // spilled cell's fault-in fails — and must NOT surface as NotFound or
  // drop the cell.
  for (int d = 0; d < tfs->num_datanodes(); ++d) {
    ASSERT_TRUE(tfs->KillDatanode(d).ok());
  }
  CellId spilled = kInvalidCell;
  std::string out;
  for (CellId id = 0; id < 200; ++id) {
    const Status s = trunk->GetCell(id, &out);
    if (s.ok()) continue;  // Resident.
    ASSERT_FALSE(s.IsNotFound()) << "cell " << id << " reported missing";
    spilled = id;
    break;
  }
  ASSERT_NE(spilled, kInvalidCell) << "no read hit the cold tier";
  EXPECT_TRUE(trunk->Contains(spilled));
  for (int d = 0; d < tfs->num_datanodes(); ++d) {
    ASSERT_TRUE(tfs->ReviveDatanode(d).ok());
  }
  ASSERT_TRUE(trunk->GetCell(spilled, &out).ok());
  EXPECT_EQ(out, Payload(spilled));
}

// --------------------------------------------------- Chaos (seed-swept)

// Out-of-core cloud under crash/recovery churn: a budgeted, compressed
// cluster must preserve exactly the reference map's cells across machine
// crashes that interleave with evictions and fault-ins (ISSUE 10: a crash
// mid-eviction or mid-fault-in loses no cells).
class ColdTierChaosTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ColdTierChaosTest, ChurnConservesCellsAcrossCrashes) {
  const std::uint64_t seed = GetParam() + SeedOffset();
  SCOPED_TRACE("seed " + std::to_string(seed));
  auto tfs = NewTfs("chaos_" + std::to_string(seed));
  cloud::MemoryCloud::Options options;
  options.num_slaves = 4;
  options.p_bits = 4;
  options.storage.trunk.capacity = 1 << 20;
  options.storage.trunk.compress_adjacency = true;
  options.storage.trunk.memory_budget = 8 << 10;
  options.storage.trunk.cold_page_bytes = 4 << 10;
  options.tfs = tfs.get();
  options.buffered_logging = true;
  std::unique_ptr<cloud::MemoryCloud> cloud;
  ASSERT_TRUE(cloud::MemoryCloud::Create(options, &cloud).ok());

  Random rng(seed);
  std::map<CellId, std::string> reference;
  ASSERT_TRUE(cloud->SaveSnapshot().ok());
  // Mix of bulky raw payloads (fill the budget fast) and sorted adjacency
  // cells (exercise the compressed spill path).
  auto random_payload = [&](CellId id) {
    if (rng.Bernoulli(0.5)) {
      return std::string(1000 + rng.Uniform(3000),
                         static_cast<char>('a' + id % 26));
    }
    std::vector<CellId> out;
    const std::uint64_t degree = 8 + rng.Uniform(120);
    for (std::uint64_t k = 0; k < degree; ++k) out.push_back(rng.Uniform(4096));
    return SortedNode({}, out);
  };
  // Crashes are scheduled by op index, not drawn: every seed gets exactly
  // kCrashes of them, spread evenly through the churn (the last one right
  // before the audit).
  constexpr int kOps = 1200;
  constexpr int kCrashes = 8;
  int crashes = 0;
  for (int op = 0; op < kOps; ++op) {
    if (op % (kOps / kCrashes) == kOps / kCrashes - 1) {
      if (rng.Bernoulli(0.5)) {
        ASSERT_TRUE(cloud->SaveSnapshot().ok());
      }
      const MachineId victim = static_cast<MachineId>(rng.Uniform(4));
      ASSERT_TRUE(cloud->FailMachine(victim).ok());
      ASSERT_TRUE(cloud->RecoverMachine(victim).ok());
      ASSERT_TRUE(cloud->RestartMachine(victim).ok());
      ++crashes;
      continue;
    }
    const CellId id = rng.Uniform(192);
    switch (rng.Uniform(5)) {
      case 0: {
        const std::string payload = random_payload(id);
        if (cloud->AddCell(id, Slice(payload)).ok()) {
          ASSERT_EQ(reference.count(id), 0u);
          reference[id] = payload;
        } else {
          ASSERT_EQ(reference.count(id), 1u);
        }
        break;
      }
      case 1: {
        const std::string payload = random_payload(id);
        ASSERT_TRUE(cloud->PutCell(id, Slice(payload)).ok());
        reference[id] = payload;
        break;
      }
      case 2: {
        const Status s = cloud->RemoveCell(id);
        ASSERT_EQ(s.ok(), reference.erase(id) > 0);
        break;
      }
      case 3: {
        const std::string suffix(1 + rng.Uniform(16), 'z');
        const Status s = cloud->AppendToCell(id, Slice(suffix));
        auto it = reference.find(id);
        if (it == reference.end()) {
          ASSERT_TRUE(s.IsNotFound());
        } else {
          ASSERT_TRUE(s.ok());
          it->second += suffix;
        }
        break;
      }
      case 4: {
        std::string out;
        const Status s = cloud->GetCell(id, &out);
        auto it = reference.find(id);
        if (it == reference.end()) {
          ASSERT_TRUE(s.IsNotFound());
        } else {
          ASSERT_TRUE(s.ok());
          ASSERT_EQ(out, it->second)
              << "cell " << id << " after " << crashes << " crashes";
        }
        break;
      }
    }
  }
  ASSERT_EQ(crashes, kCrashes);
  // The churn must actually have exercised the hierarchy.
  const auto stats = cloud->AggregateTrunkStats();
  EXPECT_GT(stats.cells_evicted, 0u) << "budget never triggered eviction";
  // Conservation audit vs the fault-free model: nothing lost, no ghosts.
  for (const auto& [id, expected] : reference) {
    std::string out;
    ASSERT_TRUE(cloud->GetCell(id, &out).ok()) << "cell " << id;
    ASSERT_EQ(out, expected) << "cell " << id;
  }
  for (CellId id = 0; id < 192; ++id) {
    if (reference.count(id) == 0) {
      bool exists = false;
      ASSERT_TRUE(cloud->Contains(id, &exists).ok());
      ASSERT_FALSE(exists) << "ghost cell " << id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColdTierChaosTest,
                         ::testing::Values(11, 23, 35));

}  // namespace
}  // namespace trinity::storage
