#include "net/fabric.h"

#include <gtest/gtest.h>

#include <thread>

#include "cloud/memory_cloud.h"
#include "compute/traversal.h"
#include "graph/graph.h"
#include "net/cost_model.h"
#include "net/fault_injector.h"

namespace trinity::net {
namespace {

// Prevents the optimizer from discarding busy-work loops in timing tests.
volatile double benchmarkish_sink = 0;

TEST(FabricTest, AsyncDeliveryAfterFlush) {
  Fabric::Params params;
  params.pack_threshold_bytes = 1 << 20;  // Never auto-flush.
  Fabric fabric(2, params);
  std::vector<std::string> received;
  fabric.RegisterAsyncHandler(1, 7, [&](MachineId src, Slice payload) {
    EXPECT_EQ(src, 0);
    received.push_back(payload.ToString());
  });
  ASSERT_TRUE(fabric.SendAsync(0, 1, 7, Slice("msg1")).ok());
  ASSERT_TRUE(fabric.SendAsync(0, 1, 7, Slice("msg2")).ok());
  EXPECT_TRUE(received.empty());  // Buffered, not yet delivered.
  fabric.FlushAll();
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0], "msg1");
  EXPECT_EQ(received[1], "msg2");
}

TEST(FabricTest, PackingReducesTransfers) {
  Fabric fabric(2);  // Default 64 KiB pack threshold.
  int count = 0;
  fabric.RegisterAsyncHandler(1, 7, [&](MachineId, Slice) { ++count; });
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(fabric.SendAsync(0, 1, 7, Slice("tiny")).ok());
  }
  fabric.FlushAll();
  EXPECT_EQ(count, 1000);
  const NetworkStats stats = fabric.stats();
  EXPECT_EQ(stats.messages, 1000u);
  // 1000 x 20 wire bytes ~ 20 KB: everything fits one transfer.
  EXPECT_LE(stats.transfers, 2u);
}

TEST(FabricTest, UnpackedModeIsOneTransferPerMessage) {
  Fabric::Params params;
  params.pack_messages = false;
  Fabric fabric(2, params);
  int count = 0;
  fabric.RegisterAsyncHandler(1, 7, [&](MachineId, Slice) { ++count; });
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(fabric.SendAsync(0, 1, 7, Slice("tiny")).ok());
  }
  EXPECT_EQ(count, 100);  // Immediate delivery.
  EXPECT_EQ(fabric.stats().transfers, 100u);
}

TEST(FabricTest, ThresholdTriggersAutoFlush) {
  Fabric::Params params;
  params.pack_threshold_bytes = 256;
  Fabric fabric(2, params);
  int count = 0;
  fabric.RegisterAsyncHandler(1, 7, [&](MachineId, Slice) { ++count; });
  const std::string big(300, 'b');
  ASSERT_TRUE(fabric.SendAsync(0, 1, 7, Slice(big)).ok());
  EXPECT_EQ(count, 1);  // Exceeded threshold -> flushed immediately.
}

TEST(FabricTest, LocalMessagesAreFree) {
  Fabric fabric(2);
  int count = 0;
  fabric.RegisterAsyncHandler(0, 7, [&](MachineId, Slice) { ++count; });
  ASSERT_TRUE(fabric.SendAsync(0, 0, 7, Slice("local")).ok());
  EXPECT_EQ(count, 1);
  const NetworkStats stats = fabric.stats();
  EXPECT_EQ(stats.local_messages, 1u);
  EXPECT_EQ(stats.transfers, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(FabricTest, SendPackedDeliversOnceAndCountsMessages) {
  Fabric fabric(2);
  int handler_calls = 0;
  std::string got;
  fabric.RegisterAsyncHandler(1, 7, [&](MachineId src, Slice payload) {
    EXPECT_EQ(src, 0);
    ++handler_calls;
    got = payload.ToString();
  });
  ASSERT_TRUE(fabric.SendPacked(0, 1, 7, Slice("packed-batch"), 50).ok());
  EXPECT_EQ(handler_calls, 1);  // One payload, one handler invocation.
  EXPECT_EQ(got, "packed-batch");
  const NetworkStats stats = fabric.stats();
  EXPECT_EQ(stats.messages, 50u);  // Logical messages, not payloads.
  EXPECT_EQ(stats.transfers, 1u);  // Fits in one pack-threshold transfer.
}

TEST(FabricTest, SendPackedChargesTransfersByThreshold) {
  Fabric::Params params;
  params.pack_threshold_bytes = 1024;
  Fabric fabric(2, params);
  fabric.RegisterAsyncHandler(1, 7, [](MachineId, Slice) {});
  const std::string payload(4096, 'x');
  ASSERT_TRUE(fabric.SendPacked(0, 1, 7, Slice(payload), 100).ok());
  // 4096 bytes over a 1 KiB threshold = 4 physical transfers.
  EXPECT_EQ(fabric.stats().transfers, 4u);
}

TEST(FabricTest, SendPackedUnpackedModeChargesPerMessage) {
  Fabric::Params params;
  params.pack_messages = false;
  Fabric fabric(2, params);
  fabric.RegisterAsyncHandler(1, 7, [](MachineId, Slice) {});
  ASSERT_TRUE(fabric.SendPacked(0, 1, 7, Slice("abcdef"), 3).ok());
  // Ablation baseline: one transfer per logical message.
  EXPECT_EQ(fabric.stats().transfers, 3u);
}

TEST(FabricTest, SendPackedLocalSkipsTheWire) {
  Fabric fabric(2);
  int calls = 0;
  fabric.RegisterAsyncHandler(0, 7, [&](MachineId, Slice) { ++calls; });
  ASSERT_TRUE(fabric.SendPacked(0, 0, 7, Slice("local"), 5).ok());
  EXPECT_EQ(calls, 1);
  const NetworkStats stats = fabric.stats();
  EXPECT_EQ(stats.local_messages, 5u);
  EXPECT_EQ(stats.transfers, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(FabricTest, SendPackedToDownMachineDropsWholeBatch) {
  Fabric fabric(2);
  fabric.RegisterAsyncHandler(1, 7, [](MachineId, Slice) {});
  fabric.SetMachineDown(1);
  EXPECT_TRUE(fabric.SendPacked(0, 1, 7, Slice("batch"), 7).IsUnavailable());
  const NetworkStats stats = fabric.stats();
  EXPECT_EQ(stats.dropped, 7u);
  EXPECT_EQ(stats.transfers, 0u);
}

TEST(FabricTest, SyncCallRoundTrip) {
  Fabric fabric(2);
  fabric.RegisterSyncHandler(
      1, 9, [](MachineId, Slice payload, std::string* response) {
        *response = "echo:" + payload.ToString();
        return Status::OK();
      });
  std::string response;
  ASSERT_TRUE(fabric.Call(0, 1, 9, Slice("ping"), &response).ok());
  EXPECT_EQ(response, "echo:ping");
  EXPECT_EQ(fabric.stats().sync_calls, 1u);
  EXPECT_EQ(fabric.stats().transfers, 2u);  // Request + response.
}

TEST(FabricTest, SyncCallPropagatesHandlerStatus) {
  Fabric fabric(2);
  fabric.RegisterSyncHandler(1, 9, [](MachineId, Slice, std::string*) {
    return Status::NotFound("nothing here");
  });
  std::string response;
  EXPECT_TRUE(fabric.Call(0, 1, 9, Slice(), &response).IsNotFound());
}

TEST(FabricTest, MissingHandlerIsNotFound) {
  Fabric fabric(2);
  std::string response;
  EXPECT_TRUE(fabric.Call(0, 1, 99, Slice(), &response).IsNotFound());
}

TEST(FabricTest, DownMachineDropsAndReports) {
  Fabric fabric(2);
  int count = 0;
  fabric.RegisterAsyncHandler(1, 7, [&](MachineId, Slice) { ++count; });
  fabric.SetMachineDown(1);
  EXPECT_FALSE(fabric.IsMachineUp(1));
  EXPECT_TRUE(fabric.SendAsync(0, 1, 7, Slice("lost")).IsUnavailable());
  std::string response;
  EXPECT_TRUE(fabric.Call(0, 1, 7, Slice(), &response).IsUnavailable());
  fabric.FlushAll();
  EXPECT_EQ(count, 0);
  EXPECT_GT(fabric.stats().dropped, 0u);
  fabric.SetMachineUp(1);
  ASSERT_TRUE(fabric.SendAsync(0, 1, 7, Slice("back")).ok());
  fabric.FlushAll();
  EXPECT_EQ(count, 1);
}

TEST(FabricTest, HandlersCanSendRecursively) {
  Fabric fabric(3);
  std::vector<int> hops;
  fabric.RegisterAsyncHandler(1, 7, [&](MachineId, Slice payload) {
    hops.push_back(1);
    fabric.SendAsync(1, 2, 7, payload);
  });
  fabric.RegisterAsyncHandler(2, 7,
                              [&](MachineId, Slice) { hops.push_back(2); });
  ASSERT_TRUE(fabric.SendAsync(0, 1, 7, Slice("relay")).ok());
  fabric.FlushAll();  // Must drain recursively enqueued messages too.
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_EQ(hops[0], 1);
  EXPECT_EQ(hops[1], 2);
}

TEST(FabricTest, MeterSetsStayIsolatedAndSumToTotals) {
  // Two runs charge their own meter sets concurrently, on disjoint pairs
  // (a buffered transfer is charged to its first message's set).
  Fabric fabric(3);
  for (MachineId m = 0; m < 3; ++m) {
    fabric.RegisterAsyncHandler(m, 7, [](MachineId, Slice) {});
    fabric.RegisterSyncHandler(m, 8,
                               [](MachineId, Slice, std::string* response) {
                                 *response = "ok";
                                 return Status::OK();
                               });
  }
  MeterSet a(3), b(3);
  CallContext ctx_a, ctx_b;
  ctx_a.set_meters(&a);
  ctx_b.set_meters(&b);
  std::thread run_a([&] {
    const std::string packed(100, 'p');
    std::string response;
    for (int i = 0; i < 200; ++i) {
      EXPECT_TRUE(fabric.SendAsync(0, 1, 7, Slice("a"), &ctx_a).ok());
      EXPECT_TRUE(fabric.SendPacked(0, 2, 7, Slice(packed), 5, &ctx_a).ok());
      EXPECT_TRUE(fabric.Call(0, 2, 8, Slice("q"), &response, &ctx_a).ok());
    }
    fabric.Flush(0);
  });
  std::thread run_b([&] {
    std::string response;
    for (int i = 0; i < 300; ++i) {
      EXPECT_TRUE(fabric.SendAsync(2, 1, 7, Slice("bb"), &ctx_b).ok());
      EXPECT_TRUE(fabric.Call(2, 0, 8, Slice("q"), &response, &ctx_b).ok());
    }
    fabric.Flush(2);
  });
  run_a.join();
  run_b.join();

  const NetworkStats sa = a.stats();
  const NetworkStats sb = b.stats();
  EXPECT_EQ(sa.messages, 200u + 200u * 5u);
  EXPECT_EQ(sa.sync_calls, 200u);
  EXPECT_EQ(sb.messages, 300u);
  EXPECT_EQ(sb.sync_calls, 300u);
  // Call responses land in the caller's set: a's come back 2 -> 0, b's
  // 0 -> 2, one transfer each.
  EXPECT_EQ(a.traffic()[0].transfers_in, 200u);
  EXPECT_EQ(b.traffic()[2].transfers_in, 300u);

  // Every message, transfer and byte belongs to exactly one run.
  const NetworkStats total = fabric.stats();
  EXPECT_EQ(sa.messages + sb.messages, total.messages);
  EXPECT_EQ(sa.transfers + sb.transfers, total.transfers);
  EXPECT_EQ(sa.bytes + sb.bytes, total.bytes);
  EXPECT_EQ(sa.sync_calls + sb.sync_calls, total.sync_calls);
  const PerMachineTraffic ta = a.traffic(), tb = b.traffic();
  const PerMachineTraffic tt = fabric.traffic();
  for (int m = 0; m < 3; ++m) {
    EXPECT_EQ(ta[m].bytes_in + tb[m].bytes_in, tt[m].bytes_in);
    EXPECT_EQ(ta[m].bytes_out + tb[m].bytes_out, tt[m].bytes_out);
    EXPECT_EQ(ta[m].transfers_in + tb[m].transfers_in, tt[m].transfers_in);
    EXPECT_EQ(ta[m].transfers_out + tb[m].transfers_out, tt[m].transfers_out);
  }
  EXPECT_GT(a.cpu_micros(2), 0.0);  // a's handlers ran on 1 and 2.
  EXPECT_DOUBLE_EQ(b.cpu_micros(2), 0.0);

  // Reset zeroes only the owner's set.
  a.Reset();
  EXPECT_EQ(a.stats().messages, 0u);
  EXPECT_DOUBLE_EQ(a.MaxCpuMicros(), 0.0);
  EXPECT_EQ(b.stats().messages, 300u);
  EXPECT_EQ(fabric.stats().messages, total.messages);
}

TEST(FabricTest, TraversalEnginesReleaseTheirHandlers) {
  cloud::MemoryCloud::Options options;
  options.num_slaves = 3;
  options.p_bits = 3;
  std::unique_ptr<cloud::MemoryCloud> cloud;
  ASSERT_TRUE(cloud::MemoryCloud::Create(options, &cloud).ok());
  graph::Graph graph(cloud.get());
  for (CellId v = 0; v < 8; ++v) ASSERT_TRUE(graph.AddNode(v, Slice()).ok());
  for (CellId v = 0; v < 8; ++v) {
    ASSERT_TRUE(graph.AddEdge(v, (v + 1) % 8).ok());
    ASSERT_TRUE(graph.AddEdge(v, (v + 3) % 8).ok());
  }
  const std::size_t handlers = cloud->fabric().num_handlers();
  for (int i = 0; i < 1000; ++i) {
    compute::TraversalEngine engine(&graph);
    compute::TraversalEngine::QueryStats stats;
    std::uint64_t visited = 0;
    ASSERT_TRUE(engine
                    .KHopExplore(static_cast<CellId>(i % 8), 2,
                                 [&visited](CellId, int, Slice) {
                                   ++visited;
                                   return true;
                                 },
                                 &stats)
                    .ok());
    ASSERT_EQ(visited, 6u);  // v; v+1, v+3; v+2, v+4, v+6.
  }
  EXPECT_EQ(cloud->fabric().num_handlers(), handlers);
}

TEST(FabricTest, HandlerExecutionIsMetered) {
  Fabric fabric(2);
  fabric.RegisterAsyncHandler(1, 7, [](MachineId, Slice) {
    double sink = 0;
    for (int i = 0; i < 200000; ++i) sink += i;
    benchmarkish_sink = sink;
  });
  ASSERT_TRUE(fabric.SendAsync(0, 1, 7, Slice("work")).ok());
  fabric.FlushAll();
  EXPECT_GT(fabric.totals().cpu_micros(1), 0.0);
  EXPECT_DOUBLE_EQ(fabric.totals().cpu_micros(0), 0.0);
}

TEST(FabricTest, TrafficAttribution) {
  Fabric::Params params;
  params.pack_threshold_bytes = 1;  // Flush every message.
  Fabric fabric(3, params);
  fabric.RegisterAsyncHandler(1, 7, [](MachineId, Slice) {});
  fabric.RegisterAsyncHandler(2, 7, [](MachineId, Slice) {});
  fabric.SendAsync(0, 1, 7, Slice("x"));
  fabric.SendAsync(0, 2, 7, Slice("y"));
  fabric.FlushAll();
  const PerMachineTraffic traffic = fabric.traffic();
  EXPECT_EQ(traffic[0].transfers_out, 2u);
  EXPECT_EQ(traffic[1].transfers_in, 1u);
  EXPECT_EQ(traffic[2].transfers_in, 1u);
  EXPECT_GT(traffic[0].bytes_out, 0u);
}

TEST(FabricTest, SendToDownMachineCountsDropped) {
  Fabric fabric(2);
  int count = 0;
  fabric.RegisterAsyncHandler(1, 7, [&](MachineId, Slice) { ++count; });
  fabric.SetMachineDown(1);
  const std::uint64_t before = fabric.stats().dropped;
  EXPECT_TRUE(fabric.SendAsync(0, 1, 7, Slice("lost")).IsUnavailable());
  EXPECT_EQ(fabric.stats().dropped, before + 1);
  // Messages already buffered toward a machine that dies before the flush
  // are dropped (and counted) at flush time.
  fabric.SetMachineUp(1);
  ASSERT_TRUE(fabric.SendAsync(0, 1, 7, Slice("buffered")).ok());
  fabric.SetMachineDown(1);
  fabric.FlushAll();
  EXPECT_EQ(count, 0);
  EXPECT_EQ(fabric.stats().dropped, before + 2);
}

TEST(FabricTest, DownMachineCannotOriginateTraffic) {
  Fabric fabric(2);
  fabric.RegisterAsyncHandler(1, 7, [](MachineId, Slice) {});
  fabric.RegisterSyncHandler(1, 9, [](MachineId, Slice, std::string*) {
    return Status::OK();
  });
  fabric.SetMachineDown(0);
  EXPECT_TRUE(fabric.SendAsync(0, 1, 7, Slice("x")).IsUnavailable());
  std::string response;
  EXPECT_TRUE(fabric.Call(0, 1, 9, Slice(), &response).IsUnavailable());
}

TEST(FabricTest, HandlerReregistrationAfterRestartReceivesTraffic) {
  Fabric fabric(2);
  int old_count = 0, new_count = 0;
  fabric.RegisterAsyncHandler(1, 7, [&](MachineId, Slice) { ++old_count; });
  ASSERT_TRUE(fabric.SendAsync(0, 1, 7, Slice("pre")).ok());
  fabric.FlushAll();
  EXPECT_EQ(old_count, 1);
  // Crash + restart: the restarted process registers a fresh handler, which
  // replaces the old registration and receives all subsequent traffic.
  fabric.SetMachineDown(1);
  fabric.SetMachineUp(1);
  fabric.RegisterAsyncHandler(1, 7, [&](MachineId, Slice) { ++new_count; });
  ASSERT_TRUE(fabric.SendAsync(0, 1, 7, Slice("post")).ok());
  fabric.FlushAll();
  EXPECT_EQ(old_count, 1);
  EXPECT_EQ(new_count, 1);
}

// ----------------------------------------------------- Fault injection

TEST(FaultInjectorTest, DropNextSwallowsExactlyOneMessage) {
  Fabric fabric(2);
  FaultInjector injector(1);
  fabric.SetFaultInjector(&injector);
  int count = 0;
  fabric.RegisterAsyncHandler(1, 7, [&](MachineId, Slice) { ++count; });
  injector.DropNext(0, 1);
  ASSERT_TRUE(fabric.SendAsync(0, 1, 7, Slice("eaten")).ok());  // Silent loss.
  ASSERT_TRUE(fabric.SendAsync(0, 1, 7, Slice("kept")).ok());
  fabric.FlushAll();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(injector.stats().dropped, 1u);
  EXPECT_EQ(fabric.stats().injected_drops, 1u);
}

TEST(FaultInjectorTest, CallPoliciesFailWithConfiguredStatus) {
  Fabric fabric(2);
  FaultInjector injector(2);
  fabric.SetFaultInjector(&injector);
  fabric.RegisterSyncHandler(1, 9, [](MachineId, Slice, std::string*) {
    return Status::OK();
  });
  FaultInjector::Policy policy;
  policy.call_fail_prob = 1.0;
  injector.SetDefaultPolicy(policy);
  std::string response;
  EXPECT_TRUE(fabric.Call(0, 1, 9, Slice(), &response).IsUnavailable());
  policy.call_fail_prob = 0.0;
  policy.call_timeout_prob = 1.0;
  injector.SetDefaultPolicy(policy);
  EXPECT_TRUE(fabric.Call(0, 1, 9, Slice(), &response).IsTimedOut());
  const FaultInjector::Stats stats = injector.stats();
  EXPECT_EQ(stats.failed_calls, 1u);
  EXPECT_EQ(stats.timed_out_calls, 1u);
  EXPECT_EQ(fabric.stats().injected_call_failures, 2u);
  injector.ClearPolicies();
  EXPECT_TRUE(fabric.Call(0, 1, 9, Slice(), &response).ok());
}

TEST(FaultInjectorTest, DuplicatePolicyDeliversTwice) {
  Fabric fabric(2);
  FaultInjector injector(3);
  fabric.SetFaultInjector(&injector);
  int count = 0;
  fabric.RegisterAsyncHandler(1, 7, [&](MachineId, Slice) { ++count; });
  FaultInjector::Policy policy;
  policy.duplicate_prob = 1.0;
  injector.SetDefaultPolicy(policy);
  ASSERT_TRUE(fabric.SendAsync(0, 1, 7, Slice("twice")).ok());
  fabric.FlushAll();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(injector.stats().duplicated, 1u);
  EXPECT_EQ(fabric.stats().injected_duplicates, 1u);
}

TEST(FaultInjectorTest, PartitionBlocksBothDirectionsUntilCleared) {
  Fabric fabric(4);
  FaultInjector injector(4);
  fabric.SetFaultInjector(&injector);
  int count = 0;
  for (MachineId m = 0; m < 4; ++m) {
    fabric.RegisterAsyncHandler(m, 7, [&](MachineId, Slice) { ++count; });
    fabric.RegisterSyncHandler(m, 9, [](MachineId, Slice, std::string*) {
      return Status::OK();
    });
  }
  injector.Partition({0, 1}, {2, 3});
  std::string response;
  // Cross-cut traffic is refused in both directions.
  EXPECT_TRUE(fabric.Call(0, 2, 9, Slice(), &response).IsUnavailable());
  EXPECT_TRUE(fabric.Call(3, 1, 9, Slice(), &response).IsUnavailable());
  ASSERT_TRUE(fabric.SendAsync(1, 3, 7, Slice("cut")).ok());  // Silent drop.
  fabric.FlushAll();
  EXPECT_EQ(count, 0);
  // Same-side traffic is unaffected.
  EXPECT_TRUE(fabric.Call(0, 1, 9, Slice(), &response).ok());
  EXPECT_TRUE(fabric.Call(2, 3, 9, Slice(), &response).ok());
  EXPECT_GT(injector.stats().partition_blocks, 0u);
  injector.ClearPartitions();
  EXPECT_TRUE(fabric.Call(0, 2, 9, Slice(), &response).ok());
  ASSERT_TRUE(fabric.SendAsync(1, 3, 7, Slice("healed")).ok());
  fabric.FlushAll();
  EXPECT_EQ(count, 1);
}

TEST(FaultInjectorTest, DelayedFlushHeldUntilFlushAll) {
  Fabric::Params params;
  params.pack_threshold_bytes = 1;  // Every send tries to flush immediately.
  Fabric fabric(2, params);
  FaultInjector injector(5);
  fabric.SetFaultInjector(&injector);
  int count = 0;
  fabric.RegisterAsyncHandler(1, 7, [&](MachineId, Slice) { ++count; });
  FaultInjector::Policy policy;
  policy.delay_flush_prob = 1.0;
  injector.SetDefaultPolicy(policy);
  ASSERT_TRUE(fabric.SendAsync(0, 1, 7, Slice("held")).ok());
  EXPECT_EQ(count, 0);  // Threshold flush was injected away.
  EXPECT_GT(injector.stats().delayed_flushes, 0u);
  EXPECT_GT(fabric.stats().delayed_flushes, 0u);
  fabric.FlushAll();  // The barrier overrides injected delays.
  EXPECT_EQ(count, 1);
}

TEST(FaultInjectorTest, CrashAfterTakesMachineDownAndNotifies) {
  Fabric fabric(3);
  FaultInjector injector(6);
  fabric.SetFaultInjector(&injector);
  std::vector<MachineId> crashed;
  fabric.SetCrashListener([&](MachineId m) { crashed.push_back(m); });
  fabric.RegisterSyncHandler(1, 9, [](MachineId, Slice, std::string*) {
    return Status::OK();
  });
  injector.CrashAfter(1, 2);
  std::string response;
  EXPECT_TRUE(fabric.Call(0, 1, 9, Slice(), &response).ok());
  EXPECT_TRUE(fabric.IsMachineUp(1));
  // The second message touching machine 1 completes, then the crash fires.
  EXPECT_TRUE(fabric.Call(0, 1, 9, Slice(), &response).ok());
  EXPECT_FALSE(fabric.IsMachineUp(1));
  ASSERT_EQ(crashed.size(), 1u);
  EXPECT_EQ(crashed[0], 1);
  EXPECT_EQ(injector.stats().crashes, 1u);
  EXPECT_EQ(fabric.stats().injected_crashes, 1u);
  EXPECT_TRUE(fabric.Call(0, 1, 9, Slice(), &response).IsUnavailable());
}

TEST(FaultInjectorTest, PairPolicyOverridesRangeAndDefault) {
  Fabric fabric(3);
  FaultInjector injector(7);
  fabric.SetFaultInjector(&injector);
  int count = 0;
  for (MachineId m = 0; m < 3; ++m) {
    fabric.RegisterAsyncHandler(m, 7, [&](MachineId, Slice) { ++count; });
  }
  FaultInjector::Policy drop_all;
  drop_all.drop_prob = 1.0;
  injector.SetDefaultPolicy(drop_all);
  injector.SetHandlerRangePolicy(7, 7, drop_all);
  // The pair policy (deliver everything) wins over both.
  injector.SetPairPolicy(0, 1, FaultInjector::Policy());
  ASSERT_TRUE(fabric.SendAsync(0, 1, 7, Slice("kept")).ok());
  ASSERT_TRUE(fabric.SendAsync(0, 2, 7, Slice("dropped")).ok());
  fabric.FlushAll();
  EXPECT_EQ(count, 1);
}

TEST(FaultInjectorTest, SameSeedMakesIdenticalDecisions) {
  auto run = [](std::uint64_t seed) {
    Fabric fabric(2);
    FaultInjector injector(seed);
    fabric.SetFaultInjector(&injector);
    fabric.RegisterAsyncHandler(1, 7, [](MachineId, Slice) {});
    FaultInjector::Policy policy;
    policy.drop_prob = 0.3;
    policy.duplicate_prob = 0.2;
    injector.SetDefaultPolicy(policy);
    for (int i = 0; i < 500; ++i) {
      fabric.SendAsync(0, 1, 7, Slice("m"));
    }
    fabric.FlushAll();
    const FaultInjector::Stats stats = injector.stats();
    return std::to_string(stats.dropped) + "/" +
           std::to_string(stats.duplicated);
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99), run(100));  // Different seed, different stream.
}

TEST(CostModelTest, ComputeTermScalesWithCriticalPath) {
  Fabric fabric(4);
  CostModel::Params params;
  params.cores_per_machine = 2.0;
  CostModel model(params);
  fabric.AddCpuMicros(0, 2e6);  // 2 seconds of single-core work.
  EXPECT_NEAR(model.ComputeSeconds(fabric.totals()), 1.0, 1e-9);
  fabric.AddCpuMicros(1, 1e6);  // Below the max: no change.
  EXPECT_NEAR(model.ComputeSeconds(fabric.totals()), 1.0, 1e-9);
}

TEST(CostModelTest, CommTermScalesWithBytes) {
  Fabric::Params fparams;
  fparams.pack_threshold_bytes = 1;
  Fabric fabric(2, fparams);
  fabric.RegisterAsyncHandler(1, 7, [](MachineId, Slice) {});
  CostModel model;
  const double before = model.CommSeconds(fabric.totals());
  fabric.SendAsync(0, 1, 7, Slice(std::string(100000, 'b')));
  fabric.FlushAll();
  EXPECT_GT(model.CommSeconds(fabric.totals()), before);
}

TEST(CostModelTest, PhaseIsComputePlusComm) {
  Fabric fabric(2);
  CostModel model;
  fabric.AddCpuMicros(0, 1e6);
  const MeterSet& totals = fabric.totals();
  EXPECT_NEAR(model.PhaseSeconds(totals),
              model.ComputeSeconds(totals) + model.CommSeconds(totals), 1e-12);
}

// --- Straggler (injected call delay) tests --------------------------------

TEST(FaultInjectorTest, CallDelayChargesCallerCpuAndDeadline) {
  Fabric fabric(2);
  FaultInjector injector(/*seed=*/7);
  FaultInjector::Policy slow;
  slow.call_delay_prob = 1.0;
  slow.call_delay_min_micros = 500.0;
  slow.call_delay_max_micros = 500.0;
  injector.SetDefaultPolicy(slow);
  fabric.SetFaultInjector(&injector);
  bool handler_ran = false;
  fabric.RegisterSyncHandler(1, 7, [&](MachineId, Slice, std::string*) {
    handler_ran = true;
    return Status::OK();
  });
  CallContext ctx(10000.0);
  std::string response;
  ASSERT_TRUE(fabric.Call(0, 1, 7, Slice("req"), &response, &ctx).ok());
  EXPECT_TRUE(handler_ran);  // Delay slows the call, doesn't kill it.
  EXPECT_GE(fabric.totals().cpu_micros(0), 500.0);
  EXPECT_GE(ctx.consumed_micros(), 500.0);
  EXPECT_EQ(fabric.stats().injected_call_delays, 1u);
  const FaultInjector::Stats stats = injector.stats();
  EXPECT_EQ(stats.delayed_calls, 1u);
  EXPECT_DOUBLE_EQ(stats.delay_micros_total, 500.0);
}

TEST(FaultInjectorTest, CallDelayBeyondDeadlineSkipsHandler) {
  Fabric fabric(2);
  FaultInjector injector(/*seed=*/8);
  FaultInjector::Policy slow;
  slow.call_delay_prob = 1.0;
  slow.call_delay_min_micros = 5000.0;
  slow.call_delay_max_micros = 5000.0;
  injector.SetDefaultPolicy(slow);
  fabric.SetFaultInjector(&injector);
  bool handler_ran = false;
  fabric.RegisterSyncHandler(1, 7, [&](MachineId, Slice, std::string*) {
    handler_ran = true;
    return Status::OK();
  });
  CallContext ctx(100.0);  // The 5 ms straggler dwarfs the 100 µs budget.
  std::string response;
  const Status s = fabric.Call(0, 1, 7, Slice("req"), &response, &ctx);
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
  EXPECT_FALSE(handler_ran);  // Abandoned on the wire.
  EXPECT_TRUE(ctx.expired());
}

TEST(FaultInjectorTest, CallDelaysAreDeterministicPerSeed) {
  auto total_delay = [](std::uint64_t seed) {
    Fabric fabric(2);
    FaultInjector injector(seed);
    FaultInjector::Policy slow;
    slow.call_delay_prob = 0.5;
    slow.call_delay_min_micros = 100.0;
    slow.call_delay_max_micros = 900.0;
    injector.SetDefaultPolicy(slow);
    fabric.SetFaultInjector(&injector);
    fabric.RegisterSyncHandler(
        1, 7, [](MachineId, Slice, std::string*) { return Status::OK(); });
    std::string response;
    for (int i = 0; i < 64; ++i) {
      EXPECT_TRUE(fabric.Call(0, 1, 7, Slice("req"), &response).ok());
    }
    return injector.stats().delay_micros_total;
  };
  const double a = total_delay(1234);
  const double b = total_delay(1234);
  const double c = total_delay(4321);
  EXPECT_DOUBLE_EQ(a, b);  // Same seed, same stragglers.
  EXPECT_NE(a, c);         // Different seed decorrelates.
  EXPECT_GT(a, 0.0);       // The 50% policy fired at least once in 64 draws.
}

TEST(FaultInjectorTest, ExpiredContextShortCircuitsBeforeTheWire) {
  Fabric fabric(2);
  bool handler_ran = false;
  fabric.RegisterSyncHandler(1, 7, [&](MachineId, Slice, std::string*) {
    handler_ran = true;
    return Status::OK();
  });
  CallContext ctx(100.0);
  ctx.Consume(100.0);  // Already spent before the call.
  std::string response;
  const Status s = fabric.Call(0, 1, 7, Slice("req"), &response, &ctx);
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
  EXPECT_FALSE(handler_ran);
  EXPECT_EQ(fabric.stats().sync_calls, 0u);  // Never touched the wire.

  CallContext cancelled(CallContext::kNoDeadline);
  cancelled.Cancel();
  const Status a = fabric.Call(0, 1, 7, Slice("req"), &response, &cancelled);
  EXPECT_TRUE(a.IsAborted()) << a.ToString();
  EXPECT_EQ(fabric.stats().sync_calls, 0u);
}

}  // namespace
}  // namespace trinity::net
