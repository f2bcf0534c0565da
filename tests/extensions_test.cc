// Tests for the extension surfaces the paper sketches beyond the core:
// MultiOp mini-transactions (§4.4), TQL (§4.2), StructEdge/HyperEdge
// modeling (§4.1), the proxy tier (§2), and trunk-level parallelism (§3).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "cloud/multiop.h"
#include "graph/generators.h"
#include "graph/rich_edges.h"
#include "query/tql.h"

namespace trinity {
namespace {

bool CellExists(cloud::MemoryCloud* cloud, CellId id) {
  bool exists = false;
  EXPECT_TRUE(cloud->Contains(id, &exists).ok());
  return exists;
}

std::unique_ptr<cloud::MemoryCloud> NewCloud(int slaves = 4,
                                             int proxies = 0) {
  cloud::MemoryCloud::Options options;
  options.num_slaves = slaves;
  options.num_proxies = proxies;
  options.p_bits = 4;
  options.storage.trunk.capacity = 4 << 20;
  std::unique_ptr<cloud::MemoryCloud> cloud;
  EXPECT_TRUE(cloud::MemoryCloud::Create(options, &cloud).ok());
  return cloud;
}

// ---------------------------------------------------------------- MultiOp

TEST(MultiOpTest, GuardedSwapAppliesAtomically) {
  auto cloud = NewCloud();
  ASSERT_TRUE(cloud->AddCell(1, Slice("alice:100")).ok());
  ASSERT_TRUE(cloud->AddCell(2, Slice("bob:50")).ok());
  cloud::MultiOp op(cloud.get());
  op.CompareEquals(1, Slice("alice:100"))
      .CompareEquals(2, Slice("bob:50"))
      .Put(1, Slice("alice:70"))
      .Put(2, Slice("bob:80"));
  ASSERT_TRUE(op.Execute().ok());
  std::string a, b;
  ASSERT_TRUE(cloud->GetCell(1, &a).ok());
  ASSERT_TRUE(cloud->GetCell(2, &b).ok());
  EXPECT_EQ(a, "alice:70");
  EXPECT_EQ(b, "bob:80");
}

TEST(MultiOpTest, FailedGuardAppliesNothing) {
  auto cloud = NewCloud();
  ASSERT_TRUE(cloud->AddCell(1, Slice("v1")).ok());
  ASSERT_TRUE(cloud->AddCell(2, Slice("v2")).ok());
  cloud::MultiOp op(cloud.get());
  op.CompareEquals(1, Slice("WRONG")).Put(1, Slice("x")).Remove(2);
  EXPECT_TRUE(op.Execute().IsAborted());
  std::string v;
  ASSERT_TRUE(cloud->GetCell(1, &v).ok());
  EXPECT_EQ(v, "v1");
  EXPECT_TRUE(CellExists(cloud.get(), 2));
}

TEST(MultiOpTest, ExistenceGuards) {
  auto cloud = NewCloud();
  ASSERT_TRUE(cloud->AddCell(1, Slice("present")).ok());
  cloud::MultiOp creates(cloud.get());
  creates.CompareAbsent(5).Put(5, Slice("created"));
  ASSERT_TRUE(creates.Execute().ok());
  EXPECT_TRUE(CellExists(cloud.get(), 5));
  // Running the same guarded create again aborts.
  cloud::MultiOp again(cloud.get());
  again.CompareAbsent(5).Put(5, Slice("clobber"));
  EXPECT_TRUE(again.Execute().IsAborted());
  cloud::MultiOp needs_existing(cloud.get());
  needs_existing.CompareExists(999).Put(1, Slice("x"));
  EXPECT_TRUE(needs_existing.Execute().IsAborted());
}

TEST(MultiOpTest, AppendAndRemoveActions) {
  auto cloud = NewCloud();
  ASSERT_TRUE(cloud->AddCell(1, Slice("log:")).ok());
  ASSERT_TRUE(cloud->AddCell(2, Slice("temp")).ok());
  cloud::MultiOp op(cloud.get());
  op.CompareExists(1).Append(1, Slice("entry1;")).Remove(2);
  ASSERT_TRUE(op.Execute().ok());
  std::string v;
  ASSERT_TRUE(cloud->GetCell(1, &v).ok());
  EXPECT_EQ(v, "log:entry1;");
  EXPECT_FALSE(CellExists(cloud.get(), 2));
}

TEST(MultiOpTest, CompareAndSwapHelper) {
  auto cloud = NewCloud();
  ASSERT_TRUE(cloud->AddCell(7, Slice("old")).ok());
  ASSERT_TRUE(cloud::MultiOp::CompareAndSwap(cloud.get(), 7, Slice("old"),
                                             Slice("new"))
                  .ok());
  EXPECT_TRUE(cloud::MultiOp::CompareAndSwap(cloud.get(), 7, Slice("old"),
                                             Slice("newer"))
                  .IsAborted());
  std::string v;
  ASSERT_TRUE(cloud->GetCell(7, &v).ok());
  EXPECT_EQ(v, "new");
}

TEST(MultiOpTest, GuardFailureCarriesSubcode) {
  auto cloud = NewCloud();
  ASSERT_TRUE(cloud->AddCell(1, Slice("actual")).ok());
  cloud::MultiOp op(cloud.get());
  op.CompareEquals(1, Slice("expected")).Put(1, Slice("next"));
  const Status s = op.Execute();
  EXPECT_TRUE(s.IsGuardFailed()) << s.ToString();
  EXPECT_FALSE(s.IsRetryable());  // Caller owns the re-read decision.
}

// Regression: single-cell Put/Remove used to bypass the MultiOp stripe
// table, so a racing bare write could land *between* guard evaluation and
// action apply — the guard checked "counter == 0", the racer wrote
// "poison", and the MultiOp then blindly overwrote it, violating the
// compare-and-swap contract. The phase hook below interleaves exactly that
// window deterministically: with the shared CellStripes table the racing
// Put must block until the MultiOp finishes, so it lands strictly after and
// its value wins.
TEST(MultiOpTest, SingleCellWriteCannotSplitGuardAndApply) {
  auto cloud = NewCloud();
  ASSERT_TRUE(cloud->AddCell(1, Slice("0")).ok());

  std::atomic<bool> racer_done{false};
  std::thread racer;
  cloud::MultiOp op(cloud.get());
  op.CompareEquals(1, Slice("0")).Put(1, Slice("1"));
  op.SetPhaseHookForTest([&] {
    // Guards have passed; actions not yet applied. Launch a bare Put of the
    // same cell and give it ample real time to run. Pre-fix it slipped in
    // here and was silently clobbered; post-fix it blocks on the stripe.
    racer = std::thread([&] {
      EXPECT_TRUE(cloud->PutCell(1, Slice("racer")).ok());
      racer_done.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(racer_done.load())
        << "bare Put overtook a MultiOp inside its critical section";
  });
  ASSERT_TRUE(op.Execute().ok());
  racer.join();

  // Serialized order: MultiOp fully first, then the racer's Put.
  std::string v;
  ASSERT_TRUE(cloud->GetCell(1, &v).ok());
  EXPECT_EQ(v, "racer");
}

// Each cloud owns its cell stripes: a MultiOp parked inside its critical
// section on cloud A must not hold up a Put of the same cell id on cloud B.
// The hook gives up waiting after 2 s, so stripes shared across clouds fail
// the test instead of hanging it.
TEST(MultiOpTest, CloudsDoNotShareCellLocks) {
  auto a = NewCloud();
  auto b = NewCloud();
  ASSERT_TRUE(a->AddCell(1, Slice("0")).ok());

  std::atomic<bool> put_done{false};
  std::thread other;
  cloud::MultiOp op(a.get());
  op.CompareEquals(1, Slice("0")).Put(1, Slice("a"));
  op.SetPhaseHookForTest([&] {
    other = std::thread([&] {
      EXPECT_TRUE(b->PutCell(1, Slice("b")).ok());
      put_done.store(true);
    });
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (!put_done.load() && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(put_done.load())
        << "a Put on cloud B waited for a MultiOp on cloud A";
  });
  ASSERT_TRUE(op.Execute().ok());
  other.join();

  std::string v;
  ASSERT_TRUE(a->GetCell(1, &v).ok());
  EXPECT_EQ(v, "a");
  ASSERT_TRUE(b->GetCell(1, &v).ok());
  EXPECT_EQ(v, "b");
}

TEST(MultiOpTest, ConcurrentCountersStayConsistent) {
  auto cloud = NewCloud();
  // Two counters whose sum must stay 0: concurrent +1/-1 MultiOps.
  ASSERT_TRUE(cloud->AddCell(1, Slice("0")).ok());
  ASSERT_TRUE(cloud->AddCell(2, Slice("0")).ok());
  auto read = [&](CellId id) {
    std::string v;
    EXPECT_TRUE(cloud->GetCell(id, &v).ok());
    return std::stoll(v);
  };
  std::atomic<int> applied{0};
  auto worker = [&](int delta) {
    for (int i = 0; i < 200; ++i) {
      for (;;) {
        // Optimistic read + guarded swap: retry on Aborted.
        std::string a, b;
        if (!cloud->GetCell(1, &a).ok() || !cloud->GetCell(2, &b).ok()) {
          continue;
        }
        cloud::MultiOp op(cloud.get());
        op.CompareEquals(1, Slice(a))
            .CompareEquals(2, Slice(b))
            .Put(1, Slice(std::to_string(std::stoll(a) + delta)))
            .Put(2, Slice(std::to_string(std::stoll(b) - delta)));
        if (op.Execute().ok()) {
          applied.fetch_add(1);
          break;
        }
      }
    }
  };
  std::thread plus(worker, 1), minus(worker, -1);
  plus.join();
  minus.join();
  EXPECT_EQ(applied.load(), 400);
  EXPECT_EQ(read(1) + read(2), 0);
}

// ------------------------------------------------------------------- TQL

class TqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cloud_ = NewCloud();
    graph_ = std::make_unique<graph::Graph>(cloud_.get());
    // 0 -> 1(David) -> 2(Erin) -> 3(David); 0 -> 4(Bob).
    ASSERT_TRUE(graph_->AddNode(0, Slice("Alice")).ok());
    ASSERT_TRUE(graph_->AddNode(1, Slice("David")).ok());
    ASSERT_TRUE(graph_->AddNode(2, Slice("Erin")).ok());
    ASSERT_TRUE(graph_->AddNode(3, Slice("David")).ok());
    ASSERT_TRUE(graph_->AddNode(4, Slice("Bob")).ok());
    ASSERT_TRUE(graph_->AddEdge(0, 1).ok());
    ASSERT_TRUE(graph_->AddEdge(1, 2).ok());
    ASSERT_TRUE(graph_->AddEdge(2, 3).ok());
    ASSERT_TRUE(graph_->AddEdge(0, 4).ok());
    tql_ = std::make_unique<query::Tql>(graph_.get());
  }
  std::unique_ptr<cloud::MemoryCloud> cloud_;
  std::unique_ptr<graph::Graph> graph_;
  std::unique_ptr<query::Tql> tql_;
};

TEST_F(TqlTest, ExploreWithNameFilter) {
  query::Tql::Result result;
  ASSERT_TRUE(
      tql_->Execute("EXPLORE FROM 0 HOPS 1..3 WHERE NAME = 'David'", &result)
          .ok());
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0][2], "David");
  EXPECT_EQ(result.columns,
            (std::vector<std::string>{"node", "hops", "name"}));
}

TEST_F(TqlTest, MinHopsExcludesNearMatches) {
  query::Tql::Result result;
  ASSERT_TRUE(
      tql_->Execute("explore from 0 hops 2..3 where name = 'David'", &result)
          .ok());
  ASSERT_EQ(result.rows.size(), 1u);  // Only the David at depth 3.
  EXPECT_EQ(result.rows[0][0], "3");
}

TEST_F(TqlTest, CountAndLimit) {
  query::Tql::Result result;
  ASSERT_TRUE(tql_->Execute("COUNT FROM 0 HOPS 1..3", &result).ok());
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0], "4");  // 1, 4, 2, 3.
  ASSERT_TRUE(tql_->Execute("EXPLORE FROM 0 HOPS 1..3 LIMIT 2", &result).ok());
  EXPECT_EQ(result.rows.size(), 2u);
}

TEST_F(TqlTest, NeighborsAndNode) {
  query::Tql::Result result;
  ASSERT_TRUE(tql_->Execute("NEIGHBORS OF 0 OUT", &result).ok());
  EXPECT_EQ(result.rows.size(), 2u);
  ASSERT_TRUE(tql_->Execute("NEIGHBORS OF 1 IN", &result).ok());
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0], "0");
  ASSERT_TRUE(tql_->Execute("NODE 1", &result).ok());
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][1], "David");
  EXPECT_EQ(result.rows[0][2], "1");  // Out-degree.
}

TEST_F(TqlTest, PathQueries) {
  query::Tql::Result result;
  ASSERT_TRUE(tql_->Execute("PATH FROM 0 TO 3", &result).ok());
  EXPECT_EQ(result.rows[0][2], "3");
  ASSERT_TRUE(tql_->Execute("PATH FROM 0 TO 3 MAXHOPS 2", &result).ok());
  EXPECT_EQ(result.rows[0][2], "unreachable");
  ASSERT_TRUE(tql_->Execute("PATH FROM 4 TO 1", &result).ok());
  EXPECT_EQ(result.rows[0][2], "unreachable");
}

TEST_F(TqlTest, SyntaxErrorsAreInvalidArgument) {
  query::Tql::Result result;
  EXPECT_TRUE(tql_->Execute("FROBNICATE 1", &result).IsInvalidArgument());
  EXPECT_TRUE(tql_->Execute("EXPLORE FROM x", &result).IsInvalidArgument());
  EXPECT_TRUE(
      tql_->Execute("EXPLORE FROM 0 HOPS 3..1", &result).IsInvalidArgument());
  EXPECT_TRUE(tql_->Execute("EXPLORE FROM 0 HOPS 1..2 WHERE NAME = David",
                            &result)
                  .IsInvalidArgument());
}

TEST_F(TqlTest, FormatRendersTable) {
  query::Tql::Result result;
  ASSERT_TRUE(tql_->Execute("NODE 1", &result).ok());
  const std::string table = query::Tql::Format(result);
  EXPECT_NE(table.find("node"), std::string::npos);
  EXPECT_NE(table.find("David"), std::string::npos);
  EXPECT_NE(table.find("1 rows"), std::string::npos);
}

// ------------------------------------------------------------- Rich edges

TEST(RichEdgesTest, StructEdgeRoundTrip) {
  auto cloud = NewCloud();
  graph::Graph graph(cloud.get());
  graph::RichEdges rich(&graph);
  ASSERT_TRUE(graph.AddNode(1, Slice("paper A")).ok());
  ASSERT_TRUE(graph.AddNode(2, Slice("paper B")).ok());
  const CellId kEdgeBase = 1ull << 32;  // Edge ids in their own range.
  ASSERT_TRUE(
      rich.AddStructEdge(kEdgeBase, 1, 2, Slice("cites, 2013")).ok());
  graph::StructEdge edge;
  ASSERT_TRUE(rich.GetStructEdge(kEdgeBase, &edge).ok());
  EXPECT_EQ(edge.from, 1u);
  EXPECT_EQ(edge.to, 2u);
  EXPECT_EQ(edge.data, "cites, 2013");
  // The node's out-list holds the edge id.
  std::vector<graph::StructEdge> out;
  ASSERT_TRUE(rich.GetStructOutEdges(1, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].to, 2u);
  // Rich data is mutable.
  ASSERT_TRUE(rich.SetStructEdgeData(kEdgeBase, Slice("updated")).ok());
  ASSERT_TRUE(rich.GetStructEdge(kEdgeBase, &edge).ok());
  EXPECT_EQ(edge.data, "updated");
}

TEST(RichEdgesTest, StructEdgeValidation) {
  auto cloud = NewCloud();
  graph::Graph graph(cloud.get());
  graph::RichEdges rich(&graph);
  ASSERT_TRUE(graph.AddNode(1, Slice()).ok());
  EXPECT_TRUE(rich.AddStructEdge(100, 1, 999, Slice()).IsNotFound());
  graph::StructEdge edge;
  EXPECT_TRUE(rich.GetStructEdge(1, &edge).IsCorruption());  // A node cell.
}

TEST(RichEdgesTest, HyperEdgeRoundTripAndGrowth) {
  auto cloud = NewCloud();
  graph::Graph graph(cloud.get());
  graph::RichEdges rich(&graph);
  for (CellId v = 1; v <= 4; ++v) {
    ASSERT_TRUE(graph.AddNode(v, Slice()).ok());
  }
  const CellId kEdge = 1ull << 33;
  ASSERT_TRUE(rich.AddHyperEdge(kEdge, {1, 2, 3}, Slice("committee")).ok());
  graph::HyperEdge edge;
  ASSERT_TRUE(rich.GetHyperEdge(kEdge, &edge).ok());
  EXPECT_EQ(edge.members, (std::vector<CellId>{1, 2, 3}));
  EXPECT_EQ(edge.data, "committee");
  // Growing the hyperedge is an append on both sides.
  ASSERT_TRUE(rich.AddMemberToHyperEdge(kEdge, 4).ok());
  ASSERT_TRUE(rich.GetHyperEdge(kEdge, &edge).ok());
  EXPECT_EQ(edge.members.size(), 4u);
  std::vector<CellId> out;
  ASSERT_TRUE(graph.GetOutlinks(4, &out).ok());
  EXPECT_EQ(out, (std::vector<CellId>{kEdge}));
  EXPECT_TRUE(rich.AddHyperEdge(kEdge + 1, {}, Slice()).IsInvalidArgument());
}

// ------------------------------------------------------------ Proxy tier

TEST(ProxyTest, ProxyAggregatesFanOut) {
  // Paper §2: "a proxy may serve as an information aggregator: it
  // dispatches requests from clients to slaves and sends results back to
  // the clients after aggregating partial results."
  auto cloud = NewCloud(/*slaves=*/4, /*proxies=*/1);
  const MachineId proxy = 4;  // First id after the slaves.
  ASSERT_TRUE(cloud->IsProxy(proxy));
  for (CellId id = 0; id < 100; ++id) {
    ASSERT_TRUE(cloud->AddCell(id, Slice("x")).ok());
  }
  // Each slave answers with its local cell count; the proxy fans out,
  // aggregates, and serves the client.
  net::Fabric& fabric = cloud->fabric();
  constexpr net::HandlerId kCountCells = cloud::kUserHandlerBase + 7;
  constexpr net::HandlerId kAggregate = cloud::kUserHandlerBase + 8;
  for (MachineId m = 0; m < cloud->num_slaves(); ++m) {
    fabric.RegisterSyncHandler(
        m, kCountCells,
        [cloud = cloud.get(), m](MachineId, Slice, std::string* response) {
          *response =
              std::to_string(cloud->storage(m)->TotalCellCount());
          return Status::OK();
        });
  }
  fabric.RegisterSyncHandler(
      proxy, kAggregate,
      [cloud = cloud.get(), proxy](MachineId, Slice, std::string* response) {
        std::uint64_t total = 0;
        for (MachineId m = 0; m < cloud->num_slaves(); ++m) {
          std::string partial;
          Status s = cloud->fabric().Call(proxy, m,
                                          cloud::kUserHandlerBase + 7,
                                          Slice(), &partial);
          if (!s.ok()) return s;
          total += std::stoull(partial);
        }
        *response = std::to_string(total);
        return Status::OK();
      });
  std::string answer;
  ASSERT_TRUE(fabric
                  .Call(cloud->client_id(), proxy, kAggregate, Slice(),
                        &answer)
                  .ok());
  EXPECT_EQ(answer, "100");
  // Proxies own no data.
  EXPECT_EQ(cloud->storage(proxy), nullptr);
}

// -------------------------------------------------- Trunk-level parallelism

TEST(TrunkParallelismTest, ConcurrentWritesToDistinctTrunks) {
  // §3: a machine's memory is split into multiple trunks so "trunk level
  // parallelism can be achieved without any overhead of locking".
  storage::MemoryStorage::Options options;
  options.trunk.capacity = 8 << 20;
  storage::MemoryStorage storage(options);
  const int kTrunks = 8;
  for (TrunkId t = 0; t < kTrunks; ++t) {
    ASSERT_TRUE(storage.AttachTrunk(t).ok());
  }
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kTrunks; ++t) {
    threads.emplace_back([&storage, &failures, t] {
      auto trunk = storage.Pin()->primary_at(t);
      for (CellId id = 0; id < 2000; ++id) {
        if (!trunk->AddCell(id, Slice("concurrent")).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(storage.TotalCellCount(), 2000u * kTrunks);
}

TEST(TrunkParallelismTest, ConcurrentMixedOpsOnOneTrunkStayCoherent) {
  storage::MemoryStorage::Options options;
  options.trunk.capacity = 8 << 20;
  storage::MemoryStorage storage(options);
  ASSERT_TRUE(storage.AttachTrunk(0).ok());
  auto trunk = storage.Pin()->primary_at(0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([trunk, t] {
      // Disjoint id ranges per thread; shared trunk structures.
      const CellId base = static_cast<CellId>(t) * 100000;
      for (CellId i = 0; i < 1000; ++i) {
        (void)trunk->AddCell(base + i, Slice("a"));
        (void)trunk->AppendToCell(base + i, Slice("b"));
        if (i % 3 == 0) (void)trunk->RemoveCell(base + i);
        if (i % 97 == 0) trunk->Defragment();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Survivors hold exactly "ab".
  for (int t = 0; t < 4; ++t) {
    const CellId base = static_cast<CellId>(t) * 100000;
    for (CellId i = 0; i < 1000; ++i) {
      std::string v;
      if (trunk->GetCell(base + i, &v).ok()) {
        ASSERT_EQ(v, "ab");
      } else {
        ASSERT_EQ(i % 3, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace trinity
