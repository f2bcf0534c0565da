// Serving front-door suite: RetryPolicy/RetryBudget/CallContext unit tests
// plus QueryFrontend terminal-status coverage — OK, NotFound,
// DeadlineExceeded (backoff-spent and injected-straggler variants),
// ResourceExhausted (admission shed and retry-budget denial), degraded
// replica reads — and chaos tests proving that a machine killed mid-load
// leaves every in-flight request with a terminal status and that the retry
// budget bounds call amplification versus a no-budget ablation.
//
// Carries the `serving` ctest label; chaos-style cases derive their seeds
// from TRINITY_CHAOS_SEED_OFFSET exactly like tests/chaos_test.cc so
// scripts/check.sh --chaos-sweep covers them too.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "algos/pagerank.h"
#include "analytics/triangles.h"
#include "cloud/memory_cloud.h"
#include "common/call_context.h"
#include "compute/traversal.h"
#include "common/retry.h"
#include "common/status.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "net/fault_injector.h"
#include "serving/query_frontend.h"
#include "tfs/tfs.h"

namespace trinity {
namespace {

using cloud::MemoryCloud;
using serving::QueryFrontend;
using serving::ServingStats;

std::uint64_t SeedOffset() {
  static const std::uint64_t offset = [] {
    const char* env = std::getenv("TRINITY_CHAOS_SEED_OFFSET");
    return env == nullptr ? 0ULL : std::strtoull(env, nullptr, 10);
  }();
  return offset;
}

// --- Status ---------------------------------------------------------------

TEST(ServingStatusTest, RetryableClassification) {
  EXPECT_TRUE(Status::Unavailable("x").IsRetryable());
  EXPECT_TRUE(Status::TimedOut("x").IsRetryable());
  EXPECT_FALSE(Status::OK().IsRetryable());
  EXPECT_FALSE(Status::NotFound("x").IsRetryable());
  EXPECT_FALSE(Status::Aborted("fenced").IsRetryable());
  EXPECT_FALSE(Status::DeadlineExceeded("x").IsRetryable());
  EXPECT_FALSE(Status::ResourceExhausted("x").IsRetryable());
}

TEST(ServingStatusTest, NewCodesRoundTrip) {
  const Status d = Status::DeadlineExceeded("too slow");
  EXPECT_TRUE(d.IsDeadlineExceeded());
  EXPECT_EQ(d.ToString(), "DeadlineExceeded: too slow");
  const Status r = Status::ResourceExhausted("shed");
  EXPECT_TRUE(r.IsResourceExhausted());
  EXPECT_EQ(r.ToString(), "ResourceExhausted: shed");
}

// --- CallContext ----------------------------------------------------------

TEST(CallContextTest, ConsumeExpireAndCheck) {
  CallContext ctx(1000.0);
  EXPECT_TRUE(ctx.has_deadline());
  EXPECT_TRUE(ctx.Check().ok());
  ctx.Consume(400.0);
  EXPECT_DOUBLE_EQ(ctx.remaining_micros(), 600.0);
  ctx.Consume(600.0);
  EXPECT_TRUE(ctx.expired());
  EXPECT_TRUE(ctx.Check().IsDeadlineExceeded());
}

TEST(CallContextTest, NoDeadlineNeverExpires) {
  CallContext ctx;
  EXPECT_FALSE(ctx.has_deadline());
  ctx.Consume(1e12);
  EXPECT_FALSE(ctx.expired());
  EXPECT_TRUE(ctx.Check().ok());
}

TEST(CallContextTest, CancellationWinsOverDeadline) {
  CallContext ctx(100.0);
  ctx.Cancel();
  EXPECT_TRUE(ctx.Check().IsAborted());
}

TEST(CallContextTest, ExternalCancelToken) {
  std::atomic<bool> token{false};
  CallContext ctx(1000.0);
  ctx.set_cancel_token(&token);
  EXPECT_TRUE(ctx.Check().ok());
  token.store(true);
  EXPECT_TRUE(ctx.cancelled());
  EXPECT_TRUE(ctx.Check().IsAborted());
}

// --- RetryPolicy ----------------------------------------------------------

TEST(RetryPolicyTest, MaxAttemptsOneRunsExactlyOnce) {
  RetryPolicy policy;
  policy.max_attempts = 1;
  int attempts = 0;
  const Status s = policy.Run({}, [&](int) {
    ++attempts;
    return Status::Unavailable("always");
  });
  EXPECT_EQ(attempts, 1);
  EXPECT_TRUE(s.IsUnavailable());
}

TEST(RetryPolicyTest, ZeroBaseBackoffStillRetries) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.backoff_base_micros = 0.0;
  double charged = 0.0;
  RetryPolicy::RunHooks hooks;
  hooks.charge = [&](double micros) { charged += micros; };
  int attempts = 0;
  const Status s = policy.Run(hooks, [&](int) {
    return ++attempts < 3 ? Status::Unavailable("transient") : Status::OK();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(attempts, 3);
  EXPECT_DOUBLE_EQ(charged, 0.0);  // Zero base -> zero (jittered) backoff.
}

TEST(RetryPolicyTest, BudgetExhaustionMidLoop) {
  RetryBudget::Options budget_options;
  budget_options.capacity = 2.0;
  budget_options.initial = 2.0;
  budget_options.refill_per_op = 0.0;
  RetryBudget budget(budget_options);
  CallContext ctx(0.0, &budget);  // No deadline, budget only.
  RetryPolicy policy;
  policy.max_attempts = 10;
  RetryPolicy::RunHooks hooks;
  hooks.ctx = &ctx;
  int attempts = 0;
  const Status s = policy.Run(hooks, [&](int) {
    ++attempts;
    return Status::Unavailable("always");
  });
  // Initial attempt + the 2 banked retry tokens; the third retry is denied.
  EXPECT_EQ(attempts, 3);
  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
  EXPECT_EQ(budget.denied(), 1u);
  EXPECT_EQ(budget.granted(), 2u);
}

TEST(RetryPolicyTest, DeadlineStopsBackoffLoop) {
  CallContext ctx(500.0);
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.backoff_base_micros = 400.0;
  policy.jitter_fraction = 0.0;
  RetryPolicy::RunHooks hooks;
  hooks.ctx = &ctx;
  int attempts = 0;
  const Status s = policy.Run(hooks, [&](int) {
    ++attempts;
    return Status::Unavailable("always");
  });
  // Retry 1 waits 400 (affordable); retry 2 would wait 800 > 100 left.
  EXPECT_EQ(attempts, 2);
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
  EXPECT_TRUE(ctx.expired());
}

TEST(RetryPolicyTest, NonRetryableStopsImmediately) {
  RetryPolicy policy;
  int attempts = 0;
  const Status s = policy.Run({}, [&](int) {
    ++attempts;
    return Status::Aborted("fenced");
  });
  EXPECT_EQ(attempts, 1);
  EXPECT_TRUE(s.IsAborted());
}

TEST(RetryPolicyTest, KeepTryingPredicateStopsWithLastStatus) {
  RetryPolicy policy;
  policy.max_attempts = 10;
  RetryPolicy::RunHooks hooks;
  int attempts = 0;
  hooks.keep_trying = [&] { return attempts < 2; };
  const Status s = policy.Run(hooks, [&](int) {
    ++attempts;
    return Status::Unavailable("replica dead");
  });
  EXPECT_EQ(attempts, 2);
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_EQ(s.message(), "replica dead");
}

TEST(RetryPolicyTest, JitterIsDeterministicAndSaltDecorrelated) {
  RetryPolicy policy;
  policy.jitter_fraction = 0.25;
  policy.jitter_seed = 42;
  const double a1 = policy.BackoffMicros(1, /*salt=*/7);
  const double a2 = policy.BackoffMicros(1, /*salt=*/7);
  EXPECT_DOUBLE_EQ(a1, a2);  // Pure function of (seed, salt, retry).
  // Jitter stays within +/- jitter_fraction of the base.
  EXPECT_GE(a1, policy.backoff_base_micros * 0.75);
  EXPECT_LE(a1, policy.backoff_base_micros * 1.25);
  // Different salts decorrelate (with this seed the draws differ).
  const double b1 = policy.BackoffMicros(1, /*salt=*/8);
  EXPECT_NE(a1, b1);
}

// --- QueryFrontend --------------------------------------------------------

struct ServingCluster {
  std::unique_ptr<tfs::Tfs> tfs;  // May stay null (pure in-memory).
  std::unique_ptr<net::FaultInjector> injector;
  std::unique_ptr<MemoryCloud> cloud;
};

ServingCluster NewServingCluster(std::uint64_t seed, int slaves = 4,
                                 int replication_factor = 0,
                                 bool auto_promote = true) {
  ServingCluster c;
  c.injector = std::make_unique<net::FaultInjector>(seed);
  MemoryCloud::Options options;
  options.num_slaves = slaves;
  options.p_bits = 4;
  options.storage.trunk.capacity = 256 * 1024;
  options.replication_factor = replication_factor;
  options.auto_promote = auto_promote;
  EXPECT_TRUE(MemoryCloud::Create(options, &c.cloud).ok());
  c.cloud->fabric().SetFaultInjector(c.injector.get());
  return c;
}

// Every request lands in exactly one terminal-outcome tally.
std::uint64_t TerminalOutcomes(const ServingStats& s) {
  return s.ok + s.not_found + s.shed + s.deadline_exceeded + s.cancelled +
         s.txn_conflicts + s.unavailable + s.other_errors;
}

TEST(QueryFrontendTest, OkNotFoundAndMultiGet) {
  ServingCluster c = NewServingCluster(1);
  QueryFrontend frontend(c.cloud.get(), nullptr, QueryFrontend::Options());
  ASSERT_TRUE(c.cloud->PutCell(1, Slice("alpha")).ok());
  ASSERT_TRUE(c.cloud->PutCell(2, Slice("beta")).ok());

  QueryFrontend::Request get;
  get.type = QueryFrontend::RequestType::kGet;
  get.id = 1;
  QueryFrontend::Response response;
  EXPECT_TRUE(frontend.Execute(get, &response).ok());
  EXPECT_EQ(response.value, "alpha");
  EXPECT_GT(response.latency_micros, 0.0);

  get.id = 999;
  EXPECT_TRUE(frontend.Execute(get, &response).IsNotFound());
  EXPECT_GT(response.latency_micros, 0.0);

  QueryFrontend::Request put;
  put.type = QueryFrontend::RequestType::kPut;
  put.id = 3;
  put.payload = "gamma";
  EXPECT_TRUE(frontend.Execute(put, &response).ok());
  EXPECT_GT(response.latency_micros, 0.0);

  QueryFrontend::Request multi;
  multi.type = QueryFrontend::RequestType::kMultiGet;
  multi.ids = {1, 2, 3, 999};
  EXPECT_TRUE(frontend.Execute(multi, &response).ok());
  ASSERT_EQ(response.values.size(), 4u);
  EXPECT_EQ(response.values[0].value, "alpha");
  EXPECT_EQ(response.values[1].value, "beta");
  EXPECT_EQ(response.values[2].value, "gamma");
  EXPECT_TRUE(response.values[3].status.IsNotFound());
  EXPECT_GT(response.latency_micros, 0.0);

  const ServingStats stats = frontend.stats();
  EXPECT_EQ(stats.received, 4u);
  EXPECT_EQ(stats.admitted, 4u);
  EXPECT_EQ(stats.ok, 3u);
  EXPECT_EQ(stats.not_found, 1u);
}

TEST(QueryFrontendTest, DeadlineExceededViaInjectedStraggler) {
  ServingCluster c = NewServingCluster(2);
  net::FaultInjector::Policy slow;
  slow.call_delay_prob = 1.0;
  slow.call_delay_min_micros = 50000.0;
  slow.call_delay_max_micros = 50000.0;
  c.injector->SetHandlerRangePolicy(cloud::kCellOpHandler,
                                    cloud::kCellOpHandler, slow);
  QueryFrontend frontend(c.cloud.get(), nullptr, QueryFrontend::Options());
  QueryFrontend::Request get;
  get.type = QueryFrontend::RequestType::kGet;
  get.id = 1;
  get.deadline_micros = 10000.0;  // The 50 ms straggler blows this budget.
  QueryFrontend::Response response;
  EXPECT_TRUE(frontend.Execute(get, &response).IsDeadlineExceeded())
      << response.status.ToString();
  EXPECT_EQ(frontend.stats().deadline_exceeded, 1u);
}

TEST(QueryFrontendTest, DeadlineExceededViaRetryBackoff) {
  ServingCluster c = NewServingCluster(3);
  net::FaultInjector::Policy flaky;
  flaky.call_fail_prob = 1.0;  // Every op call fails; retries burn backoff.
  c.injector->SetHandlerRangePolicy(cloud::kCellOpHandler,
                                    cloud::kCellOpHandler, flaky);
  QueryFrontend frontend(c.cloud.get(), nullptr, QueryFrontend::Options());
  QueryFrontend::Request get;
  get.type = QueryFrontend::RequestType::kGet;
  get.id = 7;
  // Default retry backoff is 200/400/800 µs: the deadline dies mid-loop.
  get.deadline_micros = 500.0;
  QueryFrontend::Response response;
  EXPECT_TRUE(frontend.Execute(get, &response).IsDeadlineExceeded())
      << response.status.ToString();
}

TEST(QueryFrontendTest, AdmissionShedsWhenQueueFull) {
  ServingCluster c = NewServingCluster(4);
  ASSERT_TRUE(c.cloud->PutCell(1, Slice("x")).ok());
  QueryFrontend::Options options;
  options.max_inflight_total = 0;  // Every request finds the queue full.
  QueryFrontend frontend(c.cloud.get(), nullptr, options);
  QueryFrontend::Request get;
  get.type = QueryFrontend::RequestType::kGet;
  get.id = 1;
  QueryFrontend::Response response;
  EXPECT_TRUE(frontend.Execute(get, &response).IsResourceExhausted())
      << response.status.ToString();
  const ServingStats stats = frontend.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.admitted, 0u);
}

TEST(QueryFrontendTest, RetryBudgetDenialIsResourceExhausted) {
  ServingCluster c = NewServingCluster(5);
  net::FaultInjector::Policy flaky;
  flaky.call_fail_prob = 1.0;
  c.injector->SetHandlerRangePolicy(cloud::kCellOpHandler,
                                    cloud::kCellOpHandler, flaky);
  QueryFrontend::Options options;
  options.retry_budget.initial = 0.0;  // Not a single retry available.
  options.retry_budget.refill_per_op = 0.0;
  QueryFrontend frontend(c.cloud.get(), nullptr, options);
  QueryFrontend::Request get;
  get.type = QueryFrontend::RequestType::kGet;
  get.id = 1;
  QueryFrontend::Response response;
  EXPECT_TRUE(frontend.Execute(get, &response).IsResourceExhausted())
      << response.status.ToString();
  const ServingStats stats = frontend.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_GE(stats.retries_denied, 1u);
}

TEST(QueryFrontendTest, CancellationTokenAborts) {
  ServingCluster c = NewServingCluster(6);
  ASSERT_TRUE(c.cloud->PutCell(1, Slice("x")).ok());
  QueryFrontend frontend(c.cloud.get(), nullptr, QueryFrontend::Options());
  std::atomic<bool> cancel{true};  // Cancelled before it starts.
  QueryFrontend::Request get;
  get.type = QueryFrontend::RequestType::kGet;
  get.id = 1;
  get.cancel = &cancel;
  QueryFrontend::Response response;
  EXPECT_TRUE(frontend.Execute(get, &response).IsAborted())
      << response.status.ToString();
  EXPECT_EQ(frontend.stats().cancelled, 1u);
}

TEST(QueryFrontendTest, DegradedReadServedByReplica) {
  // k=1 hot standby, no auto-promotion: reads must fail over to replicas
  // while the primary stays dead.
  ServingCluster c = NewServingCluster(7, /*slaves=*/4,
                                       /*replication_factor=*/1,
                                       /*auto_promote=*/false);
  // Pick a cell owned by a non-leader machine so the leader survives.
  const MachineId victim = 2;
  CellId probe = 0;
  while (c.cloud->MachineOf(probe) != victim) ++probe;
  for (CellId id = 0; id < 64; ++id) {
    ASSERT_TRUE(c.cloud->PutCell(id, Slice("v" + std::to_string(id))).ok());
  }
  ASSERT_TRUE(c.cloud->FailMachine(victim).ok());

  QueryFrontend frontend(c.cloud.get(), nullptr, QueryFrontend::Options());
  QueryFrontend::Request get;
  get.type = QueryFrontend::RequestType::kGet;
  get.id = probe;
  QueryFrontend::Response response;
  EXPECT_TRUE(frontend.Execute(get, &response).ok())
      << response.status.ToString();
  EXPECT_EQ(response.value, "v" + std::to_string(probe));
  const ServingStats stats = frontend.stats();
  EXPECT_GE(stats.degraded_reads, 1u);
  EXPECT_EQ(stats.ok, 1u);
}

TEST(QueryFrontendTest, KHopAndTqlWithDeadline) {
  ServingCluster c = NewServingCluster(8);
  graph::Graph graph(c.cloud.get());
  // A chain spanning several expansion rounds: 0 -> 1 -> 2 -> 3 -> 4.
  for (CellId v = 0; v < 5; ++v) {
    ASSERT_TRUE(graph.AddNode(v, Slice("n" + std::to_string(v))).ok());
  }
  for (CellId v = 0; v + 1 < 5; ++v) {
    ASSERT_TRUE(graph.AddEdge(v, v + 1).ok());
  }
  QueryFrontend frontend(c.cloud.get(), &graph, QueryFrontend::Options());

  QueryFrontend::Request khop;
  khop.type = QueryFrontend::RequestType::kKHop;
  khop.id = 0;
  khop.hops = 4;
  QueryFrontend::Response response;
  EXPECT_TRUE(frontend.Execute(khop, &response).ok())
      << response.status.ToString();
  EXPECT_EQ(response.visited, 5u);

  // A vanishing deadline lets round 1 run (the gate re-checks between
  // rounds) but kills the query before it finishes the chain.
  khop.deadline_micros = 0.001;
  EXPECT_TRUE(frontend.Execute(khop, &response).IsDeadlineExceeded())
      << response.status.ToString();

  QueryFrontend::Request tql;
  tql.type = QueryFrontend::RequestType::kTql;
  tql.statement = "COUNT FROM 0 HOPS 1..4";
  EXPECT_TRUE(frontend.Execute(tql, &response).ok())
      << response.status.ToString();
  ASSERT_EQ(response.tql.rows.size(), 1u);
  EXPECT_EQ(response.tql.rows[0][0], "4");

  tql.deadline_micros = 0.001;
  EXPECT_TRUE(frontend.Execute(tql, &response).IsDeadlineExceeded())
      << response.status.ToString();
}

// Traversals no longer serialize: 8 k-hop requests run through one frontend
// while a BSP PageRank and a distributed triangle count share the cloud.
// Every run meters into its own set, so each one's answer and counters
// match its solo run exactly.
TEST(QueryFrontendTest, ConcurrentKHopsBesidePageRankAndTriangles) {
  ServingCluster c = NewServingCluster(11);
  graph::Graph graph(c.cloud.get());
  ASSERT_TRUE(graph::Generators::Load(
                  &graph, graph::Generators::Rmat(1024, 8.0, 11),
                  /*with_names=*/false, 11)
                  .ok());
  QueryFrontend frontend(c.cloud.get(), &graph, QueryFrontend::Options());
  compute::TraversalEngine shared_engine(&graph);
  constexpr int kTraversals = 8;

  struct KHopRun {
    std::uint64_t visited = 0;
    compute::TraversalEngine::QueryStats stats;
  };
  const auto khop = [&](CellId start, KHopRun* run) {
    QueryFrontend::Request request;
    request.type = QueryFrontend::RequestType::kKHop;
    request.id = start;
    request.hops = 2;
    QueryFrontend::Response response;
    EXPECT_TRUE(frontend.Execute(request, &response).ok())
        << response.status.ToString();
    run->visited = response.visited;
    EXPECT_TRUE(shared_engine
                    .KHopExplore(start, 2, [](CellId, int, Slice) {
                      return true;
                    }, &run->stats)
                    .ok());
  };
  algos::PageRankOptions pagerank_options;
  pagerank_options.bsp.num_threads = 2;
  analytics::TriangleOptions triangle_options;
  triangle_options.num_threads = 2;
  struct AnalyticsRun {
    algos::PageRankResult pagerank;
    analytics::TriangleStats triangles;
    analytics::SnapshotBuilder::BuildStats build;
  };
  const auto pagerank = [&](AnalyticsRun* run) {
    EXPECT_TRUE(
        algos::RunPageRank(&graph, pagerank_options, &run->pagerank).ok());
  };
  const auto triangles = [&](AnalyticsRun* run) {
    analytics::TriangleCounter counter(&graph, triangle_options);
    EXPECT_TRUE(counter.CountFromCells(&run->triangles, &run->build).ok());
  };

  std::vector<KHopRun> solo_khops(kTraversals);
  for (int i = 0; i < kTraversals; ++i) khop(i * 97, &solo_khops[i]);
  AnalyticsRun solo;
  pagerank(&solo);
  triangles(&solo);
  ASSERT_GT(solo.pagerank.stats.transfers, 0u);
  ASSERT_GT(solo.build.exchange_messages, 0u);

  // Each traversal thread repeats its query so the k-hops overlap the whole
  // PageRank and triangle runs.
  constexpr int kRepeats = 16;
  std::vector<std::vector<KHopRun>> khops(kTraversals,
                                          std::vector<KHopRun>(kRepeats));
  AnalyticsRun shared;
  std::vector<std::thread> threads;
  for (int i = 0; i < kTraversals; ++i) {
    threads.emplace_back([&, i] {
      for (KHopRun& run : khops[i]) khop(i * 97, &run);
    });
  }
  threads.emplace_back([&] { pagerank(&shared); });
  threads.emplace_back([&] { triangles(&shared); });
  for (std::thread& t : threads) t.join();

  for (int i = 0; i < kTraversals; ++i) {
    const KHopRun& solo_run = solo_khops[i];
    for (const KHopRun& run : khops[i]) {
      EXPECT_EQ(run.visited, solo_run.visited) << "start " << i * 97;
      EXPECT_EQ(run.stats.visited, solo_run.stats.visited);
      EXPECT_EQ(run.stats.rounds, solo_run.stats.rounds);
      EXPECT_EQ(run.stats.messages, solo_run.stats.messages);
      EXPECT_EQ(run.stats.transfers, solo_run.stats.transfers);
    }
  }
  EXPECT_EQ(shared.pagerank.ranks, solo.pagerank.ranks);  // Bit-identical.
  EXPECT_EQ(shared.pagerank.stats.supersteps, solo.pagerank.stats.supersteps);
  EXPECT_EQ(shared.pagerank.stats.messages, solo.pagerank.stats.messages);
  EXPECT_EQ(shared.pagerank.stats.transfers, solo.pagerank.stats.transfers);
  EXPECT_EQ(shared.pagerank.stats.bytes, solo.pagerank.stats.bytes);
  EXPECT_EQ(shared.triangles.triangles, solo.triangles.triangles);
  EXPECT_EQ(shared.triangles.boundary_calls, solo.triangles.boundary_calls);
  EXPECT_EQ(shared.triangles.boundary_bytes, solo.triangles.boundary_bytes);
  EXPECT_EQ(shared.build.exchange_messages, solo.build.exchange_messages);
  EXPECT_EQ(shared.build.exchange_bytes, solo.build.exchange_bytes);
}

// --- Chaos ----------------------------------------------------------------

std::string FreshTfsRoot(const std::string& tag, std::uint64_t seed) {
  const std::string root = ::testing::TempDir() + "/serving_" + tag + "_" +
                           std::to_string(seed) + "_" +
                           std::to_string(::getpid());
  std::filesystem::remove_all(root);
  return root;
}

// A machine killed mid-load must leave every in-flight request with a
// terminal status — no unbounded hangs, no unexpected codes.
TEST(ServingChaosTest, KillMidLoadEveryRequestResolvesTerminal) {
  const std::uint64_t seed = 0xC0FFEE + SeedOffset();
  SCOPED_TRACE("seed=" + std::to_string(seed));

  std::unique_ptr<tfs::Tfs> tfs;
  tfs::Tfs::Options tfs_options;
  tfs_options.root = FreshTfsRoot("killmidload", seed);
  ASSERT_TRUE(tfs::Tfs::Open(tfs_options, &tfs).ok());
  auto injector = std::make_unique<net::FaultInjector>(seed);
  MemoryCloud::Options options;
  options.num_slaves = 4;
  options.p_bits = 4;
  options.storage.trunk.capacity = 256 * 1024;
  options.tfs = tfs.get();
  options.replication_factor = 1;
  std::unique_ptr<MemoryCloud> cloud;
  ASSERT_TRUE(MemoryCloud::Create(options, &cloud).ok());
  cloud->fabric().SetFaultInjector(injector.get());

  constexpr int kCells = 128;
  for (CellId id = 0; id < kCells; ++id) {
    ASSERT_TRUE(cloud->PutCell(id, Slice("seed" + std::to_string(id))).ok());
  }

  // The victim dies after a deterministic number of further messages —
  // mid-way through the concurrent load below.
  const MachineId victim = 1;
  injector->CrashAfter(victim, 200);

  QueryFrontend::Options frontend_options;
  frontend_options.default_deadline_micros = 100000.0;
  QueryFrontend frontend(cloud.get(), nullptr, frontend_options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::atomic<std::uint64_t> ok_count{0};
  std::atomic<std::uint64_t> unexpected{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        QueryFrontend::Request request;
        const CellId id = static_cast<CellId>((t * kPerThread + i) % kCells);
        if (i % 4 == 3) {
          request.type = QueryFrontend::RequestType::kPut;
          request.id = id;
          request.payload = "w" + std::to_string(t) + "_" + std::to_string(i);
        } else {
          request.type = QueryFrontend::RequestType::kGet;
          request.id = id;
        }
        QueryFrontend::Response response;
        const Status s = frontend.Execute(request, &response);
        // Terminal set: the normal answers, deadline/shed outcomes, a
        // terminal Unavailable after bounded retries, or Aborted (fencing).
        if (s.ok()) {
          ok_count.fetch_add(1);
        } else if (!s.IsNotFound() && !s.IsDeadlineExceeded() &&
                   !s.IsResourceExhausted() && !s.IsUnavailable() &&
                   !s.IsTimedOut() && !s.IsAborted()) {
          unexpected.fetch_add(1);
          ADD_FAILURE() << "unexpected terminal status: " << s.ToString();
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();  // Bounded: no request hangs.

  EXPECT_EQ(unexpected.load(), 0u);
  EXPECT_GT(ok_count.load(), 0u);
  const ServingStats stats = frontend.stats();
  EXPECT_EQ(stats.received, static_cast<std::uint64_t>(kThreads) *
                                static_cast<std::uint64_t>(kPerThread));
  EXPECT_EQ(TerminalOutcomes(stats), stats.received);

  // The cluster heals: after a sweep the survivors serve everything again.
  cloud->DetectAndRecover();
  QueryFrontend::Request probe;
  probe.type = QueryFrontend::RequestType::kGet;
  probe.id = 5;
  QueryFrontend::Response response;
  EXPECT_TRUE(frontend.Execute(probe, &response).ok())
      << response.status.ToString();
  std::filesystem::remove_all(tfs_options.root);
}

// k-hop requests pin the addressing table while inline recovery rewrites
// it: each round kills the owner of a written key and writes the key through
// the frontend, whose routing promotes the key's replica. Every request
// resolves to a terminal status, and under TSan no engine reads the table
// while recovery moves a trunk.
TEST(ServingChaosTest, KHopsBesideInlineRecoveryResolveTerminal) {
  const std::uint64_t seed = 0x7AB1E + SeedOffset();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  ServingCluster c = NewServingCluster(seed, /*slaves=*/4,
                                       /*replication_factor=*/1);
  graph::Graph graph(c.cloud.get());
  ASSERT_TRUE(graph::Generators::Load(
                  &graph, graph::Generators::Rmat(256, 4.0, seed),
                  /*with_names=*/false, seed)
                  .ok());
  QueryFrontend frontend(c.cloud.get(), &graph, QueryFrontend::Options());
  const auto terminal = [](const Status& s) {
    return s.ok() || s.IsNotFound() || s.IsDeadlineExceeded() ||
           s.IsResourceExhausted() || s.IsUnavailable() || s.IsTimedOut() ||
           s.IsAborted();
  };
  constexpr CellId kKey = CellId{1} << 40;  // Not a graph vertex.
  QueryFrontend::Request put;
  put.type = QueryFrontend::RequestType::kPut;
  put.id = kKey;
  put.payload = "round0";
  QueryFrontend::Response response;
  ASSERT_TRUE(frontend.Execute(put, &response).ok());

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> khops{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      CellId start = static_cast<CellId>(t);
      do {
        QueryFrontend::Request khop;
        khop.type = QueryFrontend::RequestType::kKHop;
        khop.id = start;
        khop.hops = 2;
        QueryFrontend::Response r;
        const Status s = frontend.Execute(khop, &r);
        EXPECT_TRUE(terminal(s)) << s.ToString();
        khops.fetch_add(1);
        start = (start + 7) % 256;
      } while (!done.load());
    });
  }
  for (int round = 1; round <= 12; ++round) {
    const MachineId owner = c.cloud->MachineOf(kKey);
    if (!c.cloud->FailMachine(owner).ok()) break;
    put.payload = "round" + std::to_string(round);
    const Status s = frontend.Execute(put, &response);
    EXPECT_TRUE(s.ok()) << "round " << round << ": " << s.ToString();
    EXPECT_NE(c.cloud->MachineOf(kKey), owner);
    // Back to four machines and factor 1 before the next kill.
    EXPECT_TRUE(c.cloud->RestartMachine(owner).ok());
    c.cloud->DetectAndRecover();
  }
  done.store(true);
  for (std::thread& r : readers) r.join();

  EXPECT_GE(khops.load(), 2u);
  const ServingStats stats = frontend.stats();
  EXPECT_EQ(TerminalOutcomes(stats), stats.received);
  std::string out;
  ASSERT_TRUE(c.cloud->GetCell(kKey, &out).ok());
  EXPECT_EQ(out, "round12");
}

// NetworkStats call counts prove the token bucket bounds amplification: a
// dead-path workload with the budget enabled issues a fraction of the sync
// calls the no-budget ablation issues. Single-threaded and fully seeded, so
// the counts are deterministic.
TEST(ServingChaosTest, RetryBudgetBoundsAmplification) {
  const std::uint64_t seed = 0xBAD5EED + SeedOffset();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  constexpr int kRequests = 40;

  auto run = [&](bool enable_budget) -> std::uint64_t {
    ServingCluster c = NewServingCluster(seed);
    net::FaultInjector::Policy flaky;
    flaky.call_fail_prob = 1.0;  // The op path is dead; every call fails.
    c.injector->SetHandlerRangePolicy(cloud::kCellOpHandler,
                                      cloud::kCellOpHandler, flaky);
    QueryFrontend::Options options;
    options.enable_retry_budget = enable_budget;
    options.retry_budget.capacity = 5.0;
    options.retry_budget.initial = 5.0;
    options.retry_budget.refill_per_op = 0.0;
    options.default_deadline_micros = 0.0;  // Isolate the budget effect.
    QueryFrontend frontend(c.cloud.get(), nullptr, options);
    const std::uint64_t calls_before = c.cloud->fabric().stats().sync_calls;
    for (int i = 0; i < kRequests; ++i) {
      QueryFrontend::Request get;
      get.type = QueryFrontend::RequestType::kGet;
      get.id = static_cast<CellId>(i);
      QueryFrontend::Response response;
      const Status s = frontend.Execute(get, &response);
      EXPECT_TRUE(s.IsResourceExhausted() || s.IsUnavailable())
          << s.ToString();
    }
    return c.cloud->fabric().stats().sync_calls - calls_before;
  };

  const std::uint64_t with_budget = run(true);
  const std::uint64_t without_budget = run(false);
  // Without a budget every request retries to max_attempts (4 calls each);
  // with the 5-token bucket the whole workload affords 5 retries total.
  EXPECT_EQ(without_budget, static_cast<std::uint64_t>(kRequests) * 4);
  EXPECT_EQ(with_budget, static_cast<std::uint64_t>(kRequests) + 5);
  EXPECT_LT(with_budget * 2, without_budget);
}

}  // namespace
}  // namespace trinity
