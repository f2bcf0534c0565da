#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <queue>
#include <set>

#include "algos/pagerank.h"
#include "algos/wcc.h"
#include "common/hash.h"
#include "compute/async_engine.h"
#include "compute/bsp.h"
#include "compute/message_optimizer.h"
#include "compute/scheduler.h"
#include "compute/traversal.h"
#include "graph/generators.h"
#include "net/fault_injector.h"

namespace trinity::compute {
namespace {

// Per-process scratch root: the suite runs from several build trees (e.g.
// the default and TSan presets), and a shared /tmp path would let two
// concurrently running processes clobber each other's checkpoint files.
std::string FreshTfsRoot(const std::string& tag) {
  const std::string root = ::testing::TempDir() + "/" + tag + "_" +
                           std::to_string(::getpid());
  std::filesystem::remove_all(root);
  return root;
}

struct Fixture {
  std::unique_ptr<cloud::MemoryCloud> cloud;
  std::unique_ptr<graph::Graph> graph;
};

Fixture NewGraph(int slaves = 4, bool track_inlinks = true) {
  Fixture f;
  cloud::MemoryCloud::Options options;
  options.num_slaves = slaves;
  options.p_bits = 4;
  options.storage.trunk.capacity = 4 << 20;
  EXPECT_TRUE(cloud::MemoryCloud::Create(options, &f.cloud).ok());
  graph::Graph::Options gopts;
  gopts.track_inlinks = track_inlinks;
  f.graph = std::make_unique<graph::Graph>(f.cloud.get(), gopts);
  return f;
}

// Builds the 5-node test graph  0 -> 1 -> 2 -> 3 -> 4 with a chord 0 -> 3.
void BuildChain(graph::Graph* graph) {
  for (CellId v = 0; v < 5; ++v) {
    ASSERT_TRUE(graph->AddNode(v, Slice()).ok());
  }
  ASSERT_TRUE(graph->AddEdge(0, 1).ok());
  ASSERT_TRUE(graph->AddEdge(1, 2).ok());
  ASSERT_TRUE(graph->AddEdge(2, 3).ok());
  ASSERT_TRUE(graph->AddEdge(3, 4).ok());
  ASSERT_TRUE(graph->AddEdge(0, 3).ok());
}

TEST(BspEngineTest, PropagatesTokensAlongEdges) {
  Fixture f = NewGraph();
  BuildChain(f.graph.get());
  BspEngine engine(f.graph.get(), BspEngine::Options{});
  BspEngine::RunStats stats;
  // Each vertex stores the count of messages it ever received; vertex 0
  // sends one token to each out-neighbor in superstep 0.
  ASSERT_TRUE(engine
                  .Run(
                      [](BspEngine::VertexContext& ctx) {
                        if (ctx.superstep() == 0) {
                          ctx.value() = "0";
                          if (ctx.vertex() == 0) {
                            ctx.SendToAllOut(Slice("t"));
                          }
                        } else {
                          int count = std::stoi(ctx.value());
                          count += static_cast<int>(ctx.messages().size());
                          ctx.value() = std::to_string(count);
                        }
                        ctx.VoteToHalt();
                      },
                      &stats)
                  .ok());
  std::string value;
  ASSERT_TRUE(engine.GetValue(1, &value).ok());
  EXPECT_EQ(value, "1");
  ASSERT_TRUE(engine.GetValue(3, &value).ok());
  EXPECT_EQ(value, "1");
  ASSERT_TRUE(engine.GetValue(4, &value).ok());
  EXPECT_EQ(value, "0");  // Two hops away: no token (everyone halted).
  EXPECT_GE(stats.supersteps, 2);
}

TEST(BspEngineTest, HaltedVerticesReawakenOnMessage) {
  Fixture f = NewGraph();
  BuildChain(f.graph.get());
  BspEngine engine(f.graph.get(), BspEngine::Options{});
  BspEngine::RunStats stats;
  // Forward a token down the chain: each vertex relays once, then halts.
  ASSERT_TRUE(engine
                  .Run(
                      [](BspEngine::VertexContext& ctx) {
                        if (ctx.superstep() == 0) {
                          if (ctx.vertex() == 0) ctx.SendToAllOut(Slice("t"));
                        } else if (!ctx.messages().empty()) {
                          ctx.value() = "reached";
                          ctx.SendToAllOut(Slice("t"));
                        }
                        ctx.VoteToHalt();
                      },
                      &stats)
                  .ok());
  std::string value;
  ASSERT_TRUE(engine.GetValue(4, &value).ok());
  EXPECT_EQ(value, "reached");  // Token traveled the whole chain.
}

TEST(BspEngineTest, CombinerFoldsMessages) {
  Fixture f = NewGraph();
  for (CellId v = 0; v < 4; ++v) {
    ASSERT_TRUE(f.graph->AddNode(v, Slice()).ok());
  }
  // 1, 2, 3 all point at 0.
  for (CellId v = 1; v < 4; ++v) {
    ASSERT_TRUE(f.graph->AddEdge(v, 0).ok());
  }
  BspEngine::Options options;
  options.combiner = [](std::string* acc, Slice msg) {
    std::int64_t a = 0, b = 0;
    std::memcpy(&a, acc->data(), 8);
    std::memcpy(&b, msg.data(), 8);
    a += b;
    std::memcpy(acc->data(), &a, 8);
  };
  BspEngine engine(f.graph.get(), options);
  BspEngine::RunStats stats;
  ASSERT_TRUE(engine
                  .Run(
                      [](BspEngine::VertexContext& ctx) {
                        if (ctx.superstep() == 0) {
                          const std::int64_t one = 1;
                          ctx.SendToAllOut(
                              Slice(reinterpret_cast<const char*>(&one), 8));
                        } else if (!ctx.messages().empty()) {
                          // Combined into exactly one message.
                          EXPECT_EQ(ctx.messages().size(), 1u);
                          ctx.value() = ctx.messages().front().ToString();
                        }
                        ctx.VoteToHalt();
                      },
                      &stats)
                  .ok());
  std::string value;
  ASSERT_TRUE(engine.GetValue(0, &value).ok());
  std::int64_t total = 0;
  std::memcpy(&total, value.data(), 8);
  EXPECT_EQ(total, 3);
}

TEST(BspEngineTest, StatsAreMeaningful) {
  Fixture f = NewGraph();
  ASSERT_TRUE(graph::Generators::LoadRmat(f.graph.get(), 256, 4.0, 3).ok());
  BspEngine engine(f.graph.get(), BspEngine::Options{});
  BspEngine::RunStats stats;
  ASSERT_TRUE(engine
                  .Run(
                      [](BspEngine::VertexContext& ctx) {
                        if (ctx.superstep() == 0) {
                          ctx.SendToAllOut(Slice("m"));
                        }
                        ctx.VoteToHalt();
                      },
                      &stats)
                  .ok());
  EXPECT_GT(stats.messages, 0u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_GT(stats.modeled_seconds, 0.0);
  EXPECT_EQ(stats.superstep_seconds.size(),
            static_cast<std::size_t>(stats.supersteps));
}

TEST(BspEngineTest, CheckpointAndRestore) {
  const std::string root = FreshTfsRoot("bsp_ckpt");
  tfs::Tfs::Options tfs_options;
  tfs_options.root = root;
  std::unique_ptr<tfs::Tfs> tfs;
  ASSERT_TRUE(tfs::Tfs::Open(tfs_options, &tfs).ok());

  Fixture f = NewGraph();
  BuildChain(f.graph.get());
  // A counter program that runs exactly 6 supersteps.
  auto program = [](BspEngine::VertexContext& ctx) {
    const int count = ctx.value().empty() ? 0 : std::stoi(ctx.value());
    ctx.value() = std::to_string(count + 1);
    if (ctx.superstep() >= 5) {
      ctx.VoteToHalt();
    } else if (ctx.vertex() == 0) {
      ctx.SendToAllOut(Slice("go"));  // Keep targets awake.
    }
  };
  BspEngine::Options options;
  options.checkpoint_interval = 2;
  options.tfs = tfs.get();
  BspEngine engine(f.graph.get(), options);
  BspEngine::RunStats stats;
  ASSERT_TRUE(engine.Run(program, &stats).ok());
  EXPECT_GT(stats.checkpoints_written, 0);
  std::string final_value;
  ASSERT_TRUE(engine.GetValue(0, &final_value).ok());

  // A second engine on the same TFS restores from the checkpoint and
  // continues rather than starting at superstep 0.
  BspEngine resumed(f.graph.get(), options);
  BspEngine::RunStats resumed_stats;
  ASSERT_TRUE(resumed.Run(program, &resumed_stats).ok());
  EXPECT_TRUE(resumed_stats.restored_from_checkpoint);
  EXPECT_LT(resumed_stats.supersteps, stats.supersteps);
}

// PageRank-style program with a sum combiner: deterministic given a
// deterministic inbox order, so parallel and sequential runs must agree to
// the last bit.
BspEngine::Options PageRankStyleOptions(int num_threads) {
  BspEngine::Options options;
  options.num_threads = num_threads;
  options.superstep_limit = 6;
  options.combiner = [](std::string* acc, Slice msg) {
    double a = 0, b = 0;
    std::memcpy(&a, acc->data(), 8);
    std::memcpy(&b, msg.data(), 8);
    a += b;
    std::memcpy(acc->data(), &a, 8);
  };
  return options;
}

BspEngine::Program PageRankStyleProgram() {
  return [](BspEngine::VertexContext& ctx) {
    double rank = 1.0;
    if (ctx.superstep() > 0) {
      double sum = 0;
      for (Slice msg : ctx.messages()) {
        double v = 0;
        std::memcpy(&v, msg.data(), 8);
        sum += v;
      }
      rank = 0.15 + 0.85 * sum;
    }
    ctx.value().assign(reinterpret_cast<const char*>(&rank), 8);
    if (ctx.out_count() > 0) {
      const double share = rank / static_cast<double>(ctx.out_count());
      ctx.SendToAllOut(Slice(reinterpret_cast<const char*>(&share), 8));
    }
  };
}

TEST(BspEngineTest, ParallelRunIsBitIdenticalToSequential) {
  // The tentpole determinism guarantee: inboxes merge at the barrier in
  // canonical (source machine, arrival order) order, so thread count must
  // not change a single byte of the result.
  auto run = [](int num_threads) {
    Fixture f = NewGraph(8);
    EXPECT_TRUE(graph::Generators::LoadRmat(f.graph.get(), 512, 6.0, 9).ok());
    BspEngine engine(f.graph.get(), PageRankStyleOptions(num_threads));
    BspEngine::RunStats stats;
    EXPECT_TRUE(engine.Run(PageRankStyleProgram(), &stats).ok());
    std::map<CellId, std::string> values;
    engine.ForEachValue([&](CellId v, const std::string& value) {
      values[v] = value;
    });
    return values;
  };
  const auto sequential = run(1);
  const auto parallel = run(8);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (const auto& [vertex, value] : sequential) {
    auto it = parallel.find(vertex);
    ASSERT_NE(it, parallel.end()) << "vertex " << vertex;
    EXPECT_EQ(it->second, value) << "vertex " << vertex;
  }
}

TEST(BspEngineTest, NonCombinedMessagesArriveInCanonicalOrder) {
  // Without a combiner every vertex sees its messages ordered by source
  // machine, then arrival — identical for any thread count.
  auto run = [](int num_threads) {
    Fixture f = NewGraph(8);
    EXPECT_TRUE(graph::Generators::LoadRmat(f.graph.get(), 256, 5.0, 3).ok());
    BspEngine::Options options;
    options.num_threads = num_threads;
    options.superstep_limit = 3;
    BspEngine engine(f.graph.get(), options);
    BspEngine::RunStats stats;
    EXPECT_TRUE(engine
                    .Run(
                        [](BspEngine::VertexContext& ctx) {
                          // Concatenate received sender ids in inbox order.
                          for (Slice msg : ctx.messages()) {
                            ctx.value().append(msg.data(), msg.size());
                          }
                          const CellId self = ctx.vertex();
                          ctx.SendToAllOut(Slice(
                              reinterpret_cast<const char*>(&self), 8));
                        },
                        &stats)
                    .ok());
    std::map<CellId, std::string> values;
    engine.ForEachValue([&](CellId v, const std::string& value) {
      values[v] = value;
    });
    return values;
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(BspEngineTest, CheckpointsAreByteDeterministic) {
  // Two engines computing identical state — one sequential, one parallel —
  // must write byte-identical checkpoints (the serializer sorts every
  // unordered container).
  auto checkpoint_bytes = [](int num_threads, const std::string& dir) {
    const std::string root = FreshTfsRoot(dir);
    tfs::Tfs::Options tfs_options;
    tfs_options.root = root;
    std::unique_ptr<tfs::Tfs> tfs;
    EXPECT_TRUE(tfs::Tfs::Open(tfs_options, &tfs).ok());
    Fixture f = NewGraph(4);
    EXPECT_TRUE(graph::Generators::LoadRmat(f.graph.get(), 256, 4.0, 11).ok());
    BspEngine::Options options = PageRankStyleOptions(num_threads);
    options.checkpoint_interval = 2;
    options.tfs = tfs.get();
    BspEngine engine(f.graph.get(), options);
    BspEngine::RunStats stats;
    EXPECT_TRUE(engine.Run(PageRankStyleProgram(), &stats).ok());
    EXPECT_GT(stats.checkpoints_written, 0);
    std::string image;
    EXPECT_TRUE(tfs->ReadFile("bsp_ckpt/state", &image).ok());
    return image;
  };
  const std::string a = checkpoint_bytes(1, "bsp_ckpt_det_a");
  const std::string b = checkpoint_bytes(8, "bsp_ckpt_det_b");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // Recorded from the engine that kept hash-map inboxes: the checkpoint
  // format and its ascending-id order are part of the engine's contract.
  EXPECT_EQ(HashBytes(a.data(), a.size()), 14077320153116142842ULL);
}

TEST(BspEngineTest, PackedTransfersAreQuadraticInMachinesNotMessages) {
  // The packed send path hands the fabric at most one payload per
  // (src,dst) machine pair per superstep, so physical transfers are bounded
  // by machines² per superstep no matter how many messages flow.
  const int slaves = 4;
  Fixture f = NewGraph(slaves);
  ASSERT_TRUE(graph::Generators::LoadRmat(f.graph.get(), 512, 6.0, 21).ok());
  BspEngine::Options options;
  options.superstep_limit = 4;
  BspEngine engine(f.graph.get(), options);
  BspEngine::RunStats stats;
  ASSERT_TRUE(engine
                  .Run(
                      [](BspEngine::VertexContext& ctx) {
                        ctx.SendToAllOut(Slice("eight-by"));
                      },
                      &stats)
                  .ok());
  // Thousands of logical messages per superstep...
  EXPECT_GT(stats.messages / stats.supersteps,
            static_cast<std::uint64_t>(slaves * slaves));
  // ...but at most machines² packed payloads (each under the 64 KiB pack
  // threshold, so exactly one transfer per pair with traffic).
  EXPECT_LE(stats.transfers,
            static_cast<std::uint64_t>(stats.supersteps) * slaves * slaves);
}

// ------------------------------------------------- Superstep golden pins

// FNV digest of an (id, value bytes) image in ascending id order. A change
// in send, arrival or fold order moves some double's last bit and shows.
std::uint64_t ImageDigest(const std::map<CellId, std::string>& image_of) {
  std::string image;
  for (const auto& [v, bytes] : image_of) {
    image.append(reinterpret_cast<const char*>(&v), sizeof(v));
    image += bytes;
  }
  return HashBytes(image.data(), image.size());
}

template <typename T>
std::map<CellId, std::string> AsBytes(
    const std::unordered_map<CellId, T>& values) {
  std::map<CellId, std::string> out;
  for (const auto& [v, x] : values) {
    out[v].assign(reinterpret_cast<const char*>(&x), sizeof(x));
  }
  return out;
}

std::map<CellId, std::string> ValuesOf(const BspEngine& engine) {
  std::map<CellId, std::string> values;
  engine.ForEachValue(
      [&](CellId v, const std::string& value) { values[v] = value; });
  return values;
}

// perfbench's analytics graph: R-MAT(16,384, degree 8, seed 1) on 8 slaves
// with p_bits 6.
Fixture AnalyticsGraph() {
  Fixture f;
  cloud::MemoryCloud::Options options;
  options.num_slaves = 8;
  options.p_bits = 6;
  EXPECT_TRUE(cloud::MemoryCloud::Create(options, &f.cloud).ok());
  f.graph = std::make_unique<graph::Graph>(f.cloud.get());
  const auto edges = graph::Generators::Rmat(16384, 8.0, 1);
  EXPECT_TRUE(graph::Generators::Load(f.graph.get(), edges,
                                      /*with_names=*/false, 1)
                  .ok());
  return f;
}

// The counters and digests below were recorded on the engine that staged
// inboxes in hash maps and stable-sorted them; the superstep must reproduce
// them bit for bit at any thread count.
TEST(BspGoldenTest, PageRankMatchesRecordedImage) {
  for (int threads : {1, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    Fixture f = AnalyticsGraph();
    algos::PageRankOptions options;
    options.iterations = 20;
    options.bsp.num_threads = threads;
    algos::PageRankResult result;
    ASSERT_TRUE(algos::RunPageRank(f.graph.get(), options, &result).ok());
    EXPECT_EQ(result.stats.messages, 2290960u);
    EXPECT_EQ(result.stats.transfers, 1120u);
    EXPECT_EQ(result.stats.bytes, 45837120u);
    EXPECT_EQ(result.stats.supersteps, 22);
    EXPECT_EQ(ImageDigest(AsBytes(result.ranks)), 2727246524298971286ULL);
  }
}

// WCC is the min-combiner user: labels travel both edge directions.
TEST(BspGoldenTest, WccMatchesRecordedLabels) {
  for (int threads : {1, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    Fixture f = AnalyticsGraph();
    algos::WccOptions options;
    options.bsp.num_threads = threads;
    algos::WccResult result;
    ASSERT_TRUE(algos::RunWcc(f.graph.get(), options, &result).ok());
    EXPECT_EQ(result.num_components, 5392u);
    EXPECT_EQ(result.stats.messages, 507229u);
    EXPECT_EQ(result.stats.bytes, 10149988u);
    EXPECT_EQ(result.stats.supersteps, 7);
    EXPECT_EQ(ImageDigest(AsBytes(result.component)), 706268862269324901ULL);
  }
}

// A message to an id that no vertex holds is kept on the id's owner: it
// keeps that superstep from going quiet and is written into a checkpoint,
// but no program ever sees it and the id gets no value.
TEST(BspEngineTest, SendToIdWithoutVertexKeepsOneSuperstepAwake) {
  constexpr CellId kNoVertex = 1000;
  const std::uint64_t kCheckpointDigest[2] = {4253747564714735775ULL,
                                              3711396055027539528ULL};
  for (bool combine : {false, true}) {
    SCOPED_TRACE(combine ? "combiner" : "no combiner");
    const std::string root =
        FreshTfsRoot(combine ? "bsp_novertex_c" : "bsp_novertex");
    tfs::Tfs::Options tfs_options;
    tfs_options.root = root;
    std::unique_ptr<tfs::Tfs> tfs;
    ASSERT_TRUE(tfs::Tfs::Open(tfs_options, &tfs).ok());
    Fixture f = NewGraph();
    BuildChain(f.graph.get());
    BspEngine::Options options =
        combine ? PageRankStyleOptions(2) : BspEngine::Options{};
    options.superstep_limit = 64;
    const BspEngine::Program program = [](BspEngine::VertexContext& ctx) {
      if (ctx.superstep() == 0) {
        const double one = 1.0;
        const Slice msg(reinterpret_cast<const char*>(&one), 8);
        ctx.Send(kNoVertex, msg);
        ctx.Send(kNoVertex, msg);
      }
      ctx.value() = std::to_string(ctx.messages().size());
      ctx.VoteToHalt();
    };
    BspEngine engine(f.graph.get(), options);
    BspEngine::RunStats stats;
    ASSERT_TRUE(engine.Run(program, &stats).ok());
    EXPECT_EQ(stats.supersteps, 2);
    EXPECT_EQ(stats.messages, 10u);
    std::string value;
    EXPECT_TRUE(engine.GetValue(kNoVertex, &value).IsNotFound());
    EXPECT_EQ(ValuesOf(engine).size(), 5u);

    // Stop right after superstep 0: the checkpoint holds the stored message.
    options.checkpoint_interval = 1;
    options.tfs = tfs.get();
    options.superstep_limit = 1;
    BspEngine first(f.graph.get(), options);
    ASSERT_TRUE(first.Run(program, &stats).ok());
    std::string image;
    ASSERT_TRUE(tfs->ReadFile("bsp_ckpt/state", &image).ok());
    EXPECT_EQ(HashBytes(image.data(), image.size()),
              kCheckpointDigest[combine ? 1 : 0]);
    // Restored, the message wakes no vertex: one quiet superstep.
    options.superstep_limit = 64;
    BspEngine resumed(f.graph.get(), options);
    ASSERT_TRUE(resumed.Run(program, &stats).ok());
    EXPECT_TRUE(stats.restored_from_checkpoint);
    EXPECT_EQ(stats.supersteps, 1);
    EXPECT_EQ(stats.messages, 0u);
    EXPECT_TRUE(resumed.GetValue(kNoVertex, &value).IsNotFound());
  }
}

// A checkpoint value for an id that has no vertex on the restoring engine
// (the cell came back after the engine was built) is kept: GetValue returns
// it and the next checkpoint writes it again.
TEST(BspEngineTest, RestoredValueForIdWithoutVertexIsKept) {
  const std::string root = FreshTfsRoot("bsp_ckpt_stray_value");
  tfs::Tfs::Options tfs_options;
  tfs_options.root = root;
  std::unique_ptr<tfs::Tfs> tfs;
  ASSERT_TRUE(tfs::Tfs::Open(tfs_options, &tfs).ok());
  Fixture f = NewGraph();
  BuildChain(f.graph.get());
  ASSERT_TRUE(f.graph->AddNode(5, Slice()).ok());
  const BspEngine::Program program = [](BspEngine::VertexContext& ctx) {
    ctx.value() = std::to_string(ctx.vertex()) + "@" +
                  std::to_string(ctx.superstep());
    if (ctx.superstep() == 0) {
      ctx.SendToAllOut(Slice("x"));
    } else {
      ctx.VoteToHalt();
    }
  };
  BspEngine::Options options;
  options.checkpoint_interval = 1;
  options.tfs = tfs.get();
  options.superstep_limit = 1;
  BspEngine first(f.graph.get(), options);
  BspEngine::RunStats stats;
  ASSERT_TRUE(first.Run(program, &stats).ok());

  ASSERT_TRUE(f.cloud->RemoveCell(5).ok());
  options.superstep_limit = 64;
  BspEngine resumed(f.graph.get(), options);  // No vertex 5 here.
  ASSERT_TRUE(f.graph->AddNode(5, Slice()).ok());
  ASSERT_TRUE(resumed.Run(program, &stats).ok());
  EXPECT_TRUE(stats.restored_from_checkpoint);
  std::string value;
  ASSERT_TRUE(resumed.GetValue(5, &value).ok());
  EXPECT_EQ(value, "5@0");
  ASSERT_TRUE(resumed.GetValue(3, &value).ok());
  EXPECT_EQ(value, "3@1");
  EXPECT_EQ(ValuesOf(resumed).size(), 6u);
  std::string image;
  ASSERT_TRUE(tfs->ReadFile("bsp_ckpt/state", &image).ok());
  EXPECT_EQ(HashBytes(image.data(), image.size()), 6095614542811734552ULL);
}

// Cloud with TFS snapshots, so a failed machine's trunks reload onto the
// survivors.
Fixture NewRecoverableGraph(tfs::Tfs* tfs) {
  Fixture f;
  cloud::MemoryCloud::Options options;
  options.num_slaves = 4;
  options.p_bits = 4;
  options.storage.trunk.capacity = 4 << 20;
  options.tfs = tfs;
  EXPECT_TRUE(cloud::MemoryCloud::Create(options, &f.cloud).ok());
  f.graph = std::make_unique<graph::Graph>(f.cloud.get());
  EXPECT_TRUE(graph::Generators::LoadRmat(f.graph.get(), 256, 4.0, 11).ok());
  EXPECT_TRUE(f.cloud->SaveSnapshot().ok());
  return f;
}

// Fixed-point rank sums with a combiner: exact, so a run whose second half
// folds in a different order (vertices moved owner) still matches bit for
// bit.
BspEngine::Options FixedPointOptions() {
  BspEngine::Options options;
  options.superstep_limit = 8;
  options.combiner = [](std::string* acc, Slice msg) {
    std::uint64_t a = 0, b = 0;
    std::memcpy(&a, acc->data(), 8);
    std::memcpy(&b, msg.data(), 8);
    a += b;
    std::memcpy(acc->data(), &a, 8);
  };
  return options;
}

BspEngine::Program FixedPointProgram() {
  return [](BspEngine::VertexContext& ctx) {
    std::uint64_t rank = 1000000;
    if (ctx.superstep() > 0) {
      std::uint64_t sum = 0;
      for (Slice msg : ctx.messages()) {
        std::uint64_t v = 0;
        std::memcpy(&v, msg.data(), 8);
        sum += v;
      }
      rank = 150000 + sum * 85 / 100;
    }
    ctx.value().assign(reinterpret_cast<const char*>(&rank), 8);
    if (ctx.out_count() > 0) {
      const std::uint64_t share = rank / ctx.out_count();
      ctx.SendToAllOut(Slice(reinterpret_cast<const char*>(&share), 8));
    }
  };
}

// A checkpoint taken before a failover restores onto the vertices' new
// owners: values, halted flags and inbox groups re-bucket by id, and the
// resumed run ends where a crash-free run does.
TEST(BspEngineTest, RestoreFollowsVerticesMovedByFailover) {
  const std::string root = FreshTfsRoot("bsp_ckpt_failover");
  tfs::Tfs::Options tfs_options;
  tfs_options.root = root;
  std::unique_ptr<tfs::Tfs> tfs;
  ASSERT_TRUE(tfs::Tfs::Open(tfs_options, &tfs).ok());
  Fixture f = NewRecoverableGraph(tfs.get());
  std::map<CellId, std::string> expected;
  {
    BspEngine engine(f.graph.get(), FixedPointOptions());
    BspEngine::RunStats stats;
    ASSERT_TRUE(engine.Run(FixedPointProgram(), &stats).ok());
    expected = ValuesOf(engine);
  }
  BspEngine::Options options = FixedPointOptions();
  options.checkpoint_interval = 4;
  options.checkpoint_prefix = "moved";
  options.tfs = tfs.get();
  options.superstep_limit = 4;
  {
    BspEngine engine(f.graph.get(), options);
    BspEngine::RunStats stats;
    ASSERT_TRUE(engine.Run(FixedPointProgram(), &stats).ok());
    ASSERT_EQ(stats.checkpoints_written, 1);
  }
  ASSERT_TRUE(f.cloud->FailMachine(1).ok());
  ASSERT_TRUE(f.cloud->RecoverMachine(1).ok());
  for (TrunkId t = 0; t < f.cloud->table()->num_slots(); ++t) {
    ASSERT_NE(f.cloud->table()->machine_of_trunk(t), 1);
  }
  options.superstep_limit = 8;
  BspEngine resumed(f.graph.get(), options);
  BspEngine::RunStats stats;
  ASSERT_TRUE(resumed.Run(FixedPointProgram(), &stats).ok());
  EXPECT_TRUE(stats.restored_from_checkpoint);
  EXPECT_EQ(stats.supersteps, 4);
  EXPECT_EQ(ValuesOf(resumed), expected);
  EXPECT_EQ(ImageDigest(expected), 9046038516723205881ULL);
}

// The vertex loop pins each machine's trunks once per superstep. A machine
// that goes down before its loop starts pins nothing; its first vertex read
// must fail as a clean Unavailable, not NotFound. One thread runs the
// machines in id order, so machine 0's first vertex in superstep 1 fails
// machine 2 before machine 2's loop pins.
TEST(BspEngineTest, MachineDownBeforeItsLoopIsUnavailable) {
  Fixture f = NewGraph(4);
  ASSERT_TRUE(graph::Generators::Load(f.graph.get(),
                                      graph::Generators::Rmat(256, 4.0, 3),
                                      /*with_names=*/false)
                  .ok());
  ASSERT_FALSE(f.graph->LocalNodes(2).empty());
  BspEngine::Options options;
  options.num_threads = 1;
  options.superstep_limit = 4;
  BspEngine engine(f.graph.get(), options);
  bool failed = false;
  BspEngine::RunStats stats;
  const Status s = engine.Run(
      [&](BspEngine::VertexContext& ctx) {
        if (ctx.superstep() == 1 && !failed &&
            f.graph->MachineOfNode(ctx.vertex()) == 0) {
          failed = true;
          ASSERT_TRUE(f.cloud->FailMachine(2).ok());
        }
        ctx.SendToAllOut(Slice("x", 1));
      },
      &stats);
  ASSERT_TRUE(failed);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_NE(s.message().find("machine 2"), std::string::npos) << s.message();
  EXPECT_EQ(stats.supersteps, 1);
}

// A run aborted by a crash strands messages in the engine; the next Run on
// the same engine discards them. The program records every message it
// receives, so a stale one would show in some value.
TEST(BspEngineTest, RerunAfterCrashAbortSeesNoStaleMessages) {
  const std::string root = FreshTfsRoot("bsp_crash_rerun");
  tfs::Tfs::Options tfs_options;
  tfs_options.root = root;
  std::unique_ptr<tfs::Tfs> tfs;
  ASSERT_TRUE(tfs::Tfs::Open(tfs_options, &tfs).ok());
  Fixture f = NewRecoverableGraph(tfs.get());
  const BspEngine::Program program = [](BspEngine::VertexContext& ctx) {
    if (ctx.superstep() == 0) ctx.value().clear();
    for (Slice msg : ctx.messages()) {
      ctx.value().append(msg.data(), msg.size());
    }
    const CellId self = ctx.vertex();
    ctx.SendToAllOut(Slice(reinterpret_cast<const char*>(&self), 8));
  };
  BspEngine::Options options;
  options.superstep_limit = 4;
  std::map<CellId, std::string> expected;
  {
    BspEngine engine(f.graph.get(), options);
    BspEngine::RunStats stats;
    ASSERT_TRUE(engine.Run(program, &stats).ok());
    expected = ValuesOf(engine);
  }
  constexpr MachineId kVictim = 1;
  std::vector<TrunkId> victim_trunks;
  for (TrunkId t = 0; t < f.cloud->table()->num_slots(); ++t) {
    if (f.cloud->table()->machine_of_trunk(t) == kVictim) {
      victim_trunks.push_back(t);
    }
  }
  BspEngine engine(f.graph.get(), options);
  net::FaultInjector injector(7);
  // Each remote packed payload is one fabric message: machine 1 touches six
  // per superstep, so the crash lands in superstep 1.
  injector.CrashAfter(kVictim, 8);
  f.cloud->fabric().SetFaultInjector(&injector);
  BspEngine::RunStats stats;
  const Status crashed = engine.Run(program, &stats);
  f.cloud->fabric().SetFaultInjector(nullptr);
  ASSERT_TRUE(crashed.IsUnavailable()) << crashed.ToString();
  EXPECT_EQ(stats.supersteps, 1);
  // Heal and move the victim's trunks home, so the engine's ownership
  // snapshot holds again.
  ASSERT_TRUE(f.cloud->RecoverMachine(kVictim).ok());
  ASSERT_TRUE(f.cloud->RestartMachine(kVictim).ok());
  for (TrunkId t : victim_trunks) {
    ASSERT_TRUE(f.cloud->MigrateTrunk(t, kVictim).ok());
  }
  ASSERT_TRUE(engine.Run(program, &stats).ok());
  EXPECT_EQ(stats.supersteps, 4);
  EXPECT_EQ(ValuesOf(engine), expected);
}

TEST(TraversalTest, KHopVisitsExactlyOnce) {
  Fixture f = NewGraph();
  BuildChain(f.graph.get());
  TraversalEngine engine(f.graph.get());
  TraversalEngine::QueryStats stats;
  std::map<CellId, int> depth;
  ASSERT_TRUE(engine
                  .KHopExplore(0, 2,
                               [&](CellId v, int d, Slice) {
                                 EXPECT_EQ(depth.count(v), 0u);
                                 depth[v] = d;
                                 return true;
                               },
                               &stats)
                  .ok());
  // 0 at depth 0; {1,3} at 1; {2,4} at 2.
  EXPECT_EQ(depth[0], 0);
  EXPECT_EQ(depth[1], 1);
  EXPECT_EQ(depth[3], 1);
  EXPECT_EQ(depth[2], 2);
  EXPECT_EQ(depth[4], 2);
  EXPECT_EQ(stats.visited, 5u);
}

// The OS thread count of this process, from /proc/self/status.
int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(TraversalTest, DefaultEngineStartsNoThread) {
  Fixture f = NewGraph();
  BuildChain(f.graph.get());
  const int before = ProcessThreads();
  ASSERT_GT(before, 0);
  TraversalEngine engine(f.graph.get());  // num_threads = 1: runs inline.
  EXPECT_EQ(ProcessThreads(), before);
  TraversalEngine::QueryStats stats;
  ASSERT_TRUE(engine
                  .KHopExplore(0, 2, [](CellId, int, Slice) { return true; },
                               &stats)
                  .ok());
  EXPECT_EQ(ProcessThreads(), before);
}

TEST(TraversalTest, DepthLimitEnforced) {
  Fixture f = NewGraph();
  BuildChain(f.graph.get());
  TraversalEngine engine(f.graph.get());
  TraversalEngine::QueryStats stats;
  int max_depth_seen = 0;
  ASSERT_TRUE(engine
                  .KHopExplore(0, 1,
                               [&](CellId, int d, Slice) {
                                 max_depth_seen = std::max(max_depth_seen, d);
                                 return true;
                               },
                               &stats)
                  .ok());
  EXPECT_EQ(max_depth_seen, 1);
  EXPECT_EQ(stats.visited, 3u);  // 0, 1, 3.
}

TEST(TraversalTest, VisitorCanPrune) {
  Fixture f = NewGraph();
  BuildChain(f.graph.get());
  TraversalEngine engine(f.graph.get());
  TraversalEngine::QueryStats stats;
  std::set<CellId> visited;
  ASSERT_TRUE(engine
                  .KHopExplore(0, 4,
                               [&](CellId v, int, Slice) {
                                 visited.insert(v);
                                 return v != 3;  // Prune below vertex 3.
                               },
                               &stats)
                  .ok());
  EXPECT_TRUE(visited.count(3));
  // 4 is reachable only through 3 (0->3->4 or chain): 2->3 pruned too, so 4
  // must be absent.
  EXPECT_FALSE(visited.count(4));
}

TEST(TraversalTest, BfsMatchesReference) {
  Fixture f = NewGraph(4);
  const auto edges = graph::Generators::Rmat(512, 6.0, 77);
  ASSERT_TRUE(graph::Generators::Load(f.graph.get(), edges, false, 0).ok());
  TraversalEngine engine(f.graph.get());
  TraversalEngine::QueryStats stats;
  std::unordered_map<CellId, std::uint32_t> distances;
  ASSERT_TRUE(engine.Bfs(0, &distances, &stats).ok());

  // Reference in-memory BFS over the same edges.
  std::vector<std::vector<CellId>> adjacency(edges.num_nodes);
  for (const auto& [s, d] : edges.edges) adjacency[s].push_back(d);
  std::vector<std::int64_t> ref(edges.num_nodes, -1);
  std::queue<CellId> q;
  q.push(0);
  ref[0] = 0;
  while (!q.empty()) {
    const CellId v = q.front();
    q.pop();
    for (CellId u : adjacency[v]) {
      if (ref[u] < 0) {
        ref[u] = ref[v] + 1;
        q.push(u);
      }
    }
  }
  std::size_t reachable = 0;
  for (CellId v = 0; v < edges.num_nodes; ++v) {
    if (ref[v] >= 0) {
      ++reachable;
      ASSERT_TRUE(distances.count(v)) << "missing vertex " << v;
      EXPECT_EQ(distances[v], static_cast<std::uint32_t>(ref[v]));
    } else {
      EXPECT_FALSE(distances.count(v));
    }
  }
  EXPECT_EQ(distances.size(), reachable);
  EXPECT_GT(stats.rounds, 0);
  EXPECT_GT(stats.modeled_millis, 0.0);
}

TEST(TraversalTest, ParallelBfsMatchesSequential) {
  auto run = [](int num_threads) {
    Fixture f = NewGraph(8);
    const auto edges = graph::Generators::Rmat(512, 6.0, 77);
    EXPECT_TRUE(graph::Generators::Load(f.graph.get(), edges, false, 0).ok());
    TraversalEngine::Options options;
    options.num_threads = num_threads;
    TraversalEngine engine(f.graph.get(), options);
    TraversalEngine::QueryStats stats;
    std::unordered_map<CellId, std::uint32_t> distances;
    EXPECT_TRUE(engine.Bfs(0, &distances, &stats).ok());
    return distances;
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(AsyncEngineTest, ParallelSweepsMatchSequential) {
  auto run = [](int num_threads) {
    Fixture f = NewGraph(8);
    EXPECT_TRUE(graph::Generators::LoadRmat(f.graph.get(), 256, 5.0, 13).ok());
    AsyncEngine::Options options;
    options.num_threads = num_threads;
    AsyncEngine engine(f.graph.get(), options);
    EXPECT_TRUE(engine.Seed(0, Slice("seed")).ok());
    AsyncEngine::RunStats stats;
    EXPECT_TRUE(engine
                    .Run(
                        [](AsyncEngine::Context& ctx, Slice) {
                          if (!ctx.value().empty()) return;
                          ctx.value() = "visited";
                          for (std::size_t i = 0; i < ctx.out_count(); ++i) {
                            ctx.Send(ctx.out()[i], Slice("fwd"));
                          }
                        },
                        &stats)
                    .ok());
    std::map<CellId, std::string> values;
    engine.ForEachValue([&](CellId v, const std::string& value) {
      values[v] = value;
    });
    return values;
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(AsyncEngineTest, RunsToTerminationViaSafra) {
  Fixture f = NewGraph();
  BuildChain(f.graph.get());
  AsyncEngine engine(f.graph.get(), AsyncEngine::Options{});
  ASSERT_TRUE(engine.Seed(0, Slice("seed")).ok());
  std::uint64_t handled = 0;
  AsyncEngine::RunStats stats;
  ASSERT_TRUE(engine
                  .Run(
                      [&](AsyncEngine::Context& ctx, Slice) {
                        ++handled;
                        if (ctx.value().empty()) {
                          ctx.value() = "visited";
                          for (std::size_t i = 0; i < ctx.out_count(); ++i) {
                            ctx.Send(ctx.out()[i], Slice("fwd"));
                          }
                        }
                      },
                      &stats)
                  .ok());
  EXPECT_GT(stats.updates, 0u);
  EXPECT_EQ(stats.updates, handled);
  EXPECT_GT(stats.safra_probes, 0);
  std::string value;
  ASSERT_TRUE(engine.GetValue(4, &value).ok());
  EXPECT_EQ(value, "visited");
}

TEST(AsyncEngineTest, SnapshotsWrittenPeriodically) {
  const std::string root = FreshTfsRoot("async_snap");
  tfs::Tfs::Options tfs_options;
  tfs_options.root = root;
  std::unique_ptr<tfs::Tfs> tfs;
  ASSERT_TRUE(tfs::Tfs::Open(tfs_options, &tfs).ok());

  Fixture f = NewGraph();
  const auto edges = graph::Generators::Rmat(128, 4.0, 5);
  ASSERT_TRUE(graph::Generators::Load(f.graph.get(), edges, false, 0).ok());
  AsyncEngine::Options options;
  options.snapshot_interval = 50;
  options.tfs = tfs.get();
  AsyncEngine engine(f.graph.get(), options);
  ASSERT_TRUE(engine.Seed(0, Slice("x")).ok());
  AsyncEngine::RunStats stats;
  ASSERT_TRUE(engine
                  .Run(
                      [](AsyncEngine::Context& ctx, Slice) {
                        if (!ctx.value().empty()) return;
                        ctx.value() = "v";
                        for (std::size_t i = 0; i < ctx.out_count(); ++i) {
                          ctx.Send(ctx.out()[i], Slice("m"));
                        }
                      },
                      &stats)
                  .ok());
  if (stats.updates >= 50) {
    EXPECT_GT(stats.snapshots, 0);
    EXPECT_FALSE(tfs->List("async_snap/").empty());
  }
}

TEST(AsyncEngineTest, UpdateLimitIsExactAndDistinct) {
  Fixture f = NewGraph();
  BuildChain(f.graph.get());
  AsyncEngine::Options options;
  options.max_updates = 3;
  AsyncEngine engine(f.graph.get(), options);
  ASSERT_TRUE(engine.Seed(0, Slice("ping")).ok());
  AsyncEngine::RunStats stats;
  // Ping-pong forever between 0 -> 1 -> ... without convergence check.
  const Status s = engine.Run(
      [](AsyncEngine::Context& ctx, Slice) {
        for (std::size_t i = 0; i < ctx.out_count(); ++i) {
          ctx.Send(ctx.out()[i], Slice("ping"));
        }
      },
      &stats);
  // The safety valve is enforced per update (budgeted before each sweep),
  // so the run stops at exactly the limit — no machines×batch_size
  // overshoot — and reports a distinct terminal status naming it.
  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
  EXPECT_EQ(stats.updates, 3u);
  EXPECT_NE(s.message().find("max_updates limit (3)"), std::string::npos)
      << s.message();
}

TEST(AsyncEngineTest, RunAtExactlyTheLimitTerminatesNormally) {
  // A program whose natural termination coincides with the limit is not a
  // limit hit: no work is pending, so Safra certifies a normal finish.
  Fixture f = NewGraph();
  BuildChain(f.graph.get());
  AsyncEngine::Options options;
  options.max_updates = 1;
  AsyncEngine engine(f.graph.get(), options);
  ASSERT_TRUE(engine.Seed(0, Slice("once")).ok());
  AsyncEngine::RunStats stats;
  ASSERT_TRUE(engine.Run([](AsyncEngine::Context&, Slice) {}, &stats).ok());
  EXPECT_EQ(stats.updates, 1u);
}

// ----------------------------------------------------- Scheduler semantics

TEST(PriorityIndexTest, PopsInPriorityOrderWithIdTieBreak) {
  PriorityIndex heap;
  heap.PushOrUpdate(5, 1.0);
  heap.PushOrUpdate(3, 2.0);
  heap.PushOrUpdate(9, 2.0);  // Tie with 3: smaller id first.
  heap.PushOrUpdate(1, 0.5);
  EXPECT_EQ(heap.size(), 4u);
  double p = 0;
  EXPECT_EQ(heap.PopTop(&p), 3u);
  EXPECT_EQ(p, 2.0);
  EXPECT_EQ(heap.PopTop(), 9u);
  EXPECT_EQ(heap.PopTop(), 5u);
  EXPECT_EQ(heap.PopTop(), 1u);
  EXPECT_TRUE(heap.empty());
  EXPECT_GT(heap.ops(), 0u);
}

TEST(PriorityIndexTest, ChangeKeyRestoresHeapOrderBothDirections) {
  PriorityIndex heap;
  for (CellId v = 0; v < 64; ++v) {
    heap.PushOrUpdate(v, static_cast<double>(v % 7));
  }
  // Increase-key: a mid vertex jumps to the front.
  heap.PushOrUpdate(33, 100.0);
  EXPECT_EQ(heap.PriorityOf(33), 100.0);
  EXPECT_EQ(heap.PopTop(), 33u);
  // Decrease-key: the would-be top sinks to the back.
  CellId top = 6;  // Highest remaining priority class, smallest id: 6.
  EXPECT_EQ(heap.PriorityOf(top), 6.0);
  heap.PushOrUpdate(top, -1.0);
  std::vector<CellId> order;
  while (!heap.empty()) order.push_back(heap.PopTop());
  EXPECT_EQ(order.back(), top);
  // Full pop order is non-increasing in (priority, -id).
  EXPECT_EQ(order.size(), 63u);
}

TEST(PriorityIndexTest, RemoveKeepsInvariant) {
  PriorityIndex heap;
  for (CellId v = 0; v < 32; ++v) {
    heap.PushOrUpdate(v, static_cast<double>((v * 13) % 11));
  }
  EXPECT_TRUE(heap.Remove(17));
  EXPECT_FALSE(heap.Remove(17));
  EXPECT_FALSE(heap.Contains(17));
  double last = std::numeric_limits<double>::infinity();
  while (!heap.empty()) {
    double p = 0;
    heap.PopTop(&p);
    EXPECT_LE(p, last);
    last = p;
  }
}

// Spoke graph: vertices 1..kSpokes all point at vertex 0.
constexpr int kSpokes = 12;

void BuildSpokes(graph::Graph* graph) {
  for (CellId v = 0; v <= kSpokes; ++v) {
    ASSERT_TRUE(graph->AddNode(v, Slice()).ok());
  }
  for (CellId v = 1; v <= kSpokes; ++v) {
    ASSERT_TRUE(graph->AddEdge(v, 0).ok());
  }
}

Slice EncodeI64(const std::int64_t& v) {
  return Slice(reinterpret_cast<const char*>(&v), 8);
}

// Every scheduler mode and thread count folds coalesced messages through a
// commutative combiner to the same total: the fold commutes, so coalescing
// order cannot change the answer.
TEST(AsyncEngineTest, CoalescedFoldsCommuteAcrossModes) {
  auto run = [](SchedulerMode mode, int threads) {
    Fixture f = NewGraph(4);
    BuildSpokes(f.graph.get());
    AsyncEngine::Options options;
    options.num_threads = threads;
    options.scheduler = mode;
    options.combiner = [](std::string* acc, Slice msg) {
      std::int64_t a = 0, b = 0;
      std::memcpy(&a, acc->data(), 8);
      std::memcpy(&b, msg.data(), 8);
      a += b;
      std::memcpy(acc->data(), &a, 8);
    };
    if (mode == SchedulerMode::kPriority) {
      options.priority = [](CellId, Slice delta, Slice) {
        std::int64_t v = 0;
        std::memcpy(&v, delta.data(), 8);
        return static_cast<double>(v);
      };
    }
    AsyncEngine engine(f.graph.get(), options);
    for (CellId v = 1; v <= kSpokes; ++v) {
      EXPECT_TRUE(
          engine.Seed(v, EncodeI64(static_cast<std::int64_t>(v))).ok());
    }
    AsyncEngine::RunStats stats;
    EXPECT_TRUE(engine
                    .Run(
                        [](AsyncEngine::Context& ctx, Slice message) {
                          std::int64_t delta = 0, sum = 0;
                          std::memcpy(&delta, message.data(), 8);
                          if (ctx.value().size() == 8) {
                            std::memcpy(&sum, ctx.value().data(), 8);
                          }
                          sum += delta;
                          ctx.value().assign(
                              reinterpret_cast<const char*>(&sum), 8);
                          if (ctx.vertex() != 0) {
                            for (std::size_t i = 0; i < ctx.out_count();
                                 ++i) {
                              ctx.Send(ctx.out()[i], message);
                            }
                          }
                        },
                        &stats)
                    .ok());
    std::string value;
    EXPECT_TRUE(engine.GetValue(0, &value).ok());
    std::int64_t total = 0;
    std::memcpy(&total, value.data(), 8);
    // Delta caching: at most one pending entry per vertex, so the hub is
    // processed far fewer times than it received messages.
    EXPECT_GT(stats.coalesced_updates, 0u) << "no folds happened";
    EXPECT_EQ(stats.messages,
              static_cast<std::uint64_t>(kSpokes) + kSpokes);
    return total;
  };
  const std::int64_t expected = kSpokes * (kSpokes + 1) / 2;  // 1+..+12.
  for (SchedulerMode mode : {SchedulerMode::kFifo, SchedulerMode::kPriority,
                             SchedulerMode::kSweep}) {
    EXPECT_EQ(run(mode, 1), expected) << "mode " << static_cast<int>(mode);
    EXPECT_EQ(run(mode, 4), expected) << "mode " << static_cast<int>(mode);
  }
}

TEST(AsyncEngineTest, EpsilonDropNeverLosesLastWriterState) {
  // 0 -> 1 -> 2. Both seeds carry super-threshold work; every pushed share
  // is sub-threshold and must be dropped at the queue door — without
  // touching the values earlier updates wrote.
  Fixture f = NewGraph(4);
  for (CellId v = 0; v < 3; ++v) {
    ASSERT_TRUE(f.graph->AddNode(v, Slice()).ok());
  }
  ASSERT_TRUE(f.graph->AddEdge(0, 1).ok());
  ASSERT_TRUE(f.graph->AddEdge(1, 2).ok());
  AsyncEngine::Options options;
  options.num_threads = 1;
  options.scheduler = SchedulerMode::kPriority;
  options.combiner = [](std::string* acc, Slice msg) {
    double a = 0, b = 0;
    std::memcpy(&a, acc->data(), 8);
    std::memcpy(&b, msg.data(), 8);
    a += b;
    std::memcpy(acc->data(), &a, 8);
  };
  options.priority = [](CellId, Slice delta, Slice) {
    double v = 0;
    std::memcpy(&v, delta.data(), 8);
    return std::abs(v);
  };
  options.priority_epsilon = 1.0;
  AsyncEngine engine(f.graph.get(), options);
  const double five = 5.0, two = 2.0;
  ASSERT_TRUE(
      engine.Seed(1, Slice(reinterpret_cast<const char*>(&two), 8)).ok());
  ASSERT_TRUE(
      engine.Seed(0, Slice(reinterpret_cast<const char*>(&five), 8)).ok());
  AsyncEngine::RunStats stats;
  ASSERT_TRUE(engine
                  .Run(
                      [](AsyncEngine::Context& ctx, Slice message) {
                        double delta = 0, value = 0;
                        std::memcpy(&delta, message.data(), 8);
                        if (ctx.value().size() == 8) {
                          std::memcpy(&value, ctx.value().data(), 8);
                        }
                        value += delta;
                        ctx.value().assign(
                            reinterpret_cast<const char*>(&value), 8);
                        const double share = delta / 8;
                        for (std::size_t i = 0; i < ctx.out_count(); ++i) {
                          ctx.Send(ctx.out()[i],
                                   Slice(reinterpret_cast<const char*>(
                                             &share),
                                         8));
                        }
                      },
                      &stats)
                  .ok());
  // Exactly the two seeds ran; both pushed shares (0.625, 0.25) dropped.
  EXPECT_EQ(stats.updates, 2u);
  EXPECT_EQ(stats.epsilon_dropped, 2u);
  std::string value;
  ASSERT_TRUE(engine.GetValue(0, &value).ok());
  double d = 0;
  std::memcpy(&d, value.data(), 8);
  EXPECT_EQ(d, 5.0);
  // Last-writer state survives the drop aimed at it.
  ASSERT_TRUE(engine.GetValue(1, &value).ok());
  std::memcpy(&d, value.data(), 8);
  EXPECT_EQ(d, 2.0);
  // A vertex that only ever received dropped work has no materialized value.
  EXPECT_TRUE(engine.GetValue(2, &value).IsNotFound());
}

TEST(AsyncEngineTest, InvalidSchedulerConfigsAreReported) {
  Fixture f = NewGraph(4);
  BuildChain(f.graph.get());
  AsyncEngine::RunStats stats;
  auto noop = [](AsyncEngine::Context&, Slice) {};
  {
    AsyncEngine::Options options;
    options.scheduler = SchedulerMode::kPriority;  // No combiner.
    AsyncEngine engine(f.graph.get(), options);
    EXPECT_TRUE(engine.Run(noop, &stats).IsInvalidArgument());
  }
  {
    AsyncEngine::Options options;
    options.scheduler = SchedulerMode::kPriority;
    options.combiner = [](std::string*, Slice) {};  // No priority fn.
    AsyncEngine engine(f.graph.get(), options);
    EXPECT_TRUE(engine.Run(noop, &stats).IsInvalidArgument());
  }
  {
    AsyncEngine::Options options;
    options.priority_epsilon = 0.5;  // Epsilon without a priority fn.
    AsyncEngine engine(f.graph.get(), options);
    EXPECT_TRUE(engine.Run(noop, &stats).IsInvalidArgument());
  }
}

// The fifo-mode determinism anchor: this workload, hash, and update count
// were captured from the engine BEFORE the scheduler refactor (the plain
// per-machine std::deque). Fifo mode without a combiner must stay
// bit-identical to that engine for any thread count.
TEST(AsyncEngineTest, FifoModeBitIdenticalToPreSchedulerEngine) {
  constexpr std::uint64_t kGoldenHash = 0xcc71ff681b451826ULL;
  constexpr std::uint64_t kGoldenUpdates = 152099;
  for (int threads : {1, 8}) {
    Fixture f = NewGraph(8);
    ASSERT_TRUE(graph::Generators::LoadRmat(f.graph.get(), 256, 5.0, 13).ok());
    AsyncEngine::Options options;
    options.num_threads = threads;
    AsyncEngine engine(f.graph.get(), options);
    const std::uint32_t hops = 3;
    char seed_msg[4];
    std::memcpy(seed_msg, &hops, 4);
    ASSERT_TRUE(engine.Seed(0, Slice(seed_msg, 4)).ok());
    AsyncEngine::RunStats stats;
    ASSERT_TRUE(engine
                    .Run(
                        [](AsyncEngine::Context& ctx, Slice message) {
                          std::uint32_t budget = 0;
                          std::memcpy(&budget, message.data(), 4);
                          // Order-sensitive: append the remaining budget in
                          // processing order; any reordering changes some
                          // vertex's concatenation, hence the hash.
                          ctx.value().push_back(
                              static_cast<char>('0' + budget));
                          if (budget == 0) return;
                          const std::uint32_t next = budget - 1;
                          char buf[4];
                          std::memcpy(buf, &next, 4);
                          for (std::size_t i = 0; i < ctx.out_count(); ++i) {
                            ctx.Send(ctx.out()[i], Slice(buf, 4));
                          }
                        },
                        &stats)
                    .ok());
    EXPECT_EQ(stats.updates, kGoldenUpdates) << "threads " << threads;
    std::map<CellId, std::string> values;
    engine.ForEachValue([&](CellId v, const std::string& value) {
      values[v] = value;
    });
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto& [v, value] : values) {
      h ^= HashBytes(&v, 8);
      h *= 0x100000001b3ULL;
      h ^= HashBytes(value.data(), value.size());
      h *= 0x100000001b3ULL;
    }
    EXPECT_EQ(h, kGoldenHash) << "threads " << threads;
  }
}

TEST(AsyncEngineTest, PriorityAndSweepParallelRunsMatchSequential) {
  // Delta-caching modes keep the engine's bit-identical determinism
  // guarantee: same seed + same scheduler => same bytes, at any thread
  // count. Double folds happen in canonical arrival order, never
  // reassociated by scheduling.
  auto run = [](SchedulerMode mode, int threads) {
    Fixture f = NewGraph(8, /*track_inlinks=*/false);
    EXPECT_TRUE(graph::Generators::LoadRmat(f.graph.get(), 512, 6.0, 9).ok());
    algos::DeltaPageRankOptions options;
    options.epsilon = 1e-7;
    options.async.num_threads = threads;
    options.async.scheduler = mode;
    algos::DeltaPageRankResult result;
    EXPECT_TRUE(
        algos::RunDeltaPageRank(f.graph.get(), options, &result).ok());
    return result;
  };
  for (SchedulerMode mode : {SchedulerMode::kPriority,
                             SchedulerMode::kSweep, SchedulerMode::kFifo}) {
    const auto sequential = run(mode, 1);
    const auto parallel = run(mode, 8);
    ASSERT_EQ(sequential.ranks.size(), parallel.ranks.size());
    for (const auto& [vertex, rank] : sequential.ranks) {
      auto it = parallel.ranks.find(vertex);
      ASSERT_NE(it, parallel.ranks.end()) << "vertex " << vertex;
      EXPECT_EQ(it->second, rank)
          << "vertex " << vertex << " mode " << static_cast<int>(mode);
    }
    EXPECT_EQ(sequential.stats.updates, parallel.stats.updates);
    EXPECT_EQ(sequential.stats.coalesced_updates,
              parallel.stats.coalesced_updates);
    EXPECT_EQ(sequential.stats.epsilon_dropped,
              parallel.stats.epsilon_dropped);
  }
}

TEST(MessageOptimizerTest, PolicyOrderings) {
  Fixture f = NewGraph(4);
  const auto edges = graph::Generators::PowerLaw(2000, 8.0, 2.16, 1);
  ASSERT_TRUE(graph::Generators::Load(f.graph.get(), edges, false, 0).ok());

  MessageOptimizer::Options base;
  base.hub_fraction = 0.05;
  base.num_partitions = 8;

  MessagePlanReport buffer_all, on_demand, hub, hub_part;
  base.policy = DeliveryPolicy::kBufferAll;
  ASSERT_TRUE(
      MessageOptimizer::Analyze(f.graph.get(), 0, base, &buffer_all).ok());
  base.policy = DeliveryPolicy::kOnDemand;
  ASSERT_TRUE(
      MessageOptimizer::Analyze(f.graph.get(), 0, base, &on_demand).ok());
  base.policy = DeliveryPolicy::kHubBuffered;
  ASSERT_TRUE(MessageOptimizer::Analyze(f.graph.get(), 0, base, &hub).ok());
  base.policy = DeliveryPolicy::kHubPlusPartition;
  ASSERT_TRUE(
      MessageOptimizer::Analyze(f.graph.get(), 0, base, &hub_part).ok());

  // All policies serve the same logical demand.
  EXPECT_EQ(buffer_all.logical_messages, on_demand.logical_messages);
  // Deliveries: buffer-all <= hub+partition <= hub-only <= on-demand.
  EXPECT_LE(buffer_all.delivered_messages, hub_part.delivered_messages);
  EXPECT_LE(hub_part.delivered_messages, hub.delivered_messages);
  EXPECT_LE(hub.delivered_messages, on_demand.delivered_messages);
  // Buffering: on-demand <= hub <= hub+partition <= buffer-all.
  EXPECT_LE(on_demand.peak_buffer_bytes, hub.peak_buffer_bytes);
  EXPECT_LE(hub_part.peak_buffer_bytes, buffer_all.peak_buffer_bytes);
  // Hubs cover a disproportionate share of needs on a power-law graph
  // (§5.4: a few percent of hubs cover most messages).
  EXPECT_GT(hub.hub_coverage, 0.1);
}

TEST(MessageOptimizerTest, MultilevelPartitionBeatsContiguous) {
  Fixture f = NewGraph(4);
  const auto edges = graph::Generators::PowerLaw(3000, 8.0, 2.16, 2);
  ASSERT_TRUE(graph::Generators::Load(f.graph.get(), edges, false, 0).ok());
  MessageOptimizer::Options options;
  options.policy = DeliveryPolicy::kHubPlusPartition;
  options.hub_fraction = 0.01;
  options.num_partitions = 8;
  MessagePlanReport contiguous, multilevel;
  ASSERT_TRUE(
      MessageOptimizer::Analyze(f.graph.get(), 0, options, &contiguous).ok());
  options.use_multilevel_partition = true;
  ASSERT_TRUE(
      MessageOptimizer::Analyze(f.graph.get(), 0, options, &multilevel).ok());
  EXPECT_EQ(multilevel.logical_messages, contiguous.logical_messages);
  // Grouping co-fed receivers lets each sender hit fewer partitions.
  EXPECT_LT(multilevel.delivered_messages, contiguous.delivered_messages);
}

TEST(MessageOptimizerTest, ResidencyFormulaMatchesPaperExample) {
  // §5.4: k = l = m = 8, p = 0.1, Facebook-scale graph (0.8e9 vertices,
  // ~104e9 undirected-ish edge slots): "78 GB memory space can be saved".
  const auto report = MessageOptimizer::Residency(
      800'000'000ull, 10'400'000'000ull, 8, 8, 8, 0.1);
  EXPECT_GT(report.saved_bytes, 60e9);
  EXPECT_LT(report.saved_bytes, 100e9);
  EXPECT_LT(report.offline_bytes, report.full_bytes);
  // Formula identity: S - S' = (1-p)(k+l)V + (1-p) 8E.
  const double v = 800e6, e = 10.4e9, p = 0.1;
  EXPECT_NEAR(report.saved_bytes, (1 - p) * 16 * v + (1 - p) * 8 * e, 1e6);
}

}  // namespace
}  // namespace trinity::compute
