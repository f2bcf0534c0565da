#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "common/hash.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/serializer.h"
#include "common/slice.h"
#include "common/spinlock.h"
#include "common/status.h"
#include "common/threadpool.h"

namespace trinity {
namespace {

// Prevents the optimizer from discarding busy-work loops in timing tests.
volatile double benchmarkish_sink = 0;

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing cell");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_FALSE(s.IsIOError());
  EXPECT_EQ(s.ToString(), "NotFound: missing cell");
}

TEST(StatusTest, AllCodesRoundTrip) {
  EXPECT_TRUE(Status::AlreadyExists("").IsAlreadyExists());
  EXPECT_TRUE(Status::Corruption("").IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument("").IsInvalidArgument());
  EXPECT_TRUE(Status::IOError("").IsIOError());
  EXPECT_TRUE(Status::OutOfMemory("").IsOutOfMemory());
  EXPECT_TRUE(Status::Unavailable("").IsUnavailable());
  EXPECT_TRUE(Status::TimedOut("").IsTimedOut());
  EXPECT_TRUE(Status::Aborted("").IsAborted());
  EXPECT_TRUE(Status::NotSupported("").IsNotSupported());
}

TEST(SliceTest, BasicViews) {
  const std::string data = "hello world";
  Slice s(data);
  EXPECT_EQ(s.size(), data.size());
  EXPECT_EQ(s.ToString(), data);
  s.RemovePrefix(6);
  EXPECT_EQ(s.ToString(), "world");
  EXPECT_EQ(s[0], 'w');
}

TEST(SliceTest, Comparison) {
  EXPECT_EQ(Slice("abc"), Slice("abc"));
  EXPECT_NE(Slice("abc"), Slice("abd"));
  EXPECT_LT(Slice("abc").Compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abcd").Compare(Slice("abc")), 0);
  EXPECT_EQ(Slice().Compare(Slice()), 0);
}

TEST(HashTest, TrunkHashCoversRange) {
  const int p = 6;
  std::vector<int> hits(1 << p, 0);
  for (std::uint64_t key = 0; key < 10000; ++key) {
    const std::uint32_t trunk = TrunkHash(key, p);
    ASSERT_LT(trunk, 1u << p);
    ++hits[trunk];
  }
  // Every trunk should receive a reasonable share (10000/64 ~ 156).
  for (int count : hits) {
    EXPECT_GT(count, 60);
    EXPECT_LT(count, 320);
  }
}

TEST(HashTest, MixIsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(42), Mix64(42));
  EXPECT_NE(Mix64(42), Mix64(43));
  EXPECT_NE(InTrunkHash(42), Mix64(42));
}

TEST(RandomTest, DeterministicUnderSeed) {
  Random a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RandomTest, UniformInRange) {
  Random rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RandomTest, DoubleInUnitInterval) {
  Random rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, PowerLawIsSkewed) {
  Random rng(3);
  const std::uint64_t max_value = 1000;
  int small = 0, large = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = rng.PowerLaw(2.16, max_value);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, max_value);
    if (v <= 2) ++small;
    if (v >= 100) ++large;
  }
  // Power law with gamma ~2.16: most mass at the head, thin tail.
  EXPECT_GT(small, 10000);
  EXPECT_LT(large, 1500);
  EXPECT_GT(large, 0);
}

TEST(SerializerTest, RoundTripsAllTypes) {
  BinaryWriter writer;
  writer.PutU8(7);
  writer.PutU16(65535);
  writer.PutU32(123456);
  writer.PutU64(0xdeadbeefcafef00dULL);
  writer.PutI32(-42);
  writer.PutI64(-1234567890123LL);
  writer.PutDouble(3.25);
  writer.PutString("trinity");
  const std::string buffer = writer.Release();

  BinaryReader reader{Slice(buffer)};
  std::uint8_t u8;
  std::uint16_t u16;
  std::uint32_t u32;
  std::uint64_t u64;
  std::int32_t i32;
  std::int64_t i64;
  double d;
  std::string s;
  ASSERT_TRUE(reader.GetU8(&u8));
  ASSERT_TRUE(reader.GetU16(&u16));
  ASSERT_TRUE(reader.GetU32(&u32));
  ASSERT_TRUE(reader.GetU64(&u64));
  ASSERT_TRUE(reader.GetI32(&i32));
  ASSERT_TRUE(reader.GetI64(&i64));
  ASSERT_TRUE(reader.GetDouble(&d));
  ASSERT_TRUE(reader.GetString(&s));
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u16, 65535);
  EXPECT_EQ(u32, 123456u);
  EXPECT_EQ(u64, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(i32, -42);
  EXPECT_EQ(i64, -1234567890123LL);
  EXPECT_EQ(d, 3.25);
  EXPECT_EQ(s, "trinity");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(SerializerTest, UnderflowFailsCleanly) {
  BinaryWriter writer;
  writer.PutU16(1);
  BinaryReader reader{Slice(writer.buffer())};
  std::uint64_t v;
  EXPECT_FALSE(reader.GetU64(&v));
  std::uint16_t u;
  EXPECT_TRUE(reader.GetU16(&u));
  EXPECT_FALSE(reader.GetU16(&u));
}

TEST(SerializerTest, BytesAreZeroCopyViews) {
  BinaryWriter writer;
  writer.PutBytes(Slice("payload"));
  const std::string buffer = writer.buffer();
  BinaryReader reader{Slice(buffer)};
  Slice view;
  ASSERT_TRUE(reader.GetBytes(&view));
  EXPECT_GE(view.data(), buffer.data());
  EXPECT_LT(view.data(), buffer.data() + buffer.size());
  EXPECT_EQ(view.ToString(), "payload");
}

TEST(SerializerTest, TruncatedLengthPrefixFails) {
  BinaryWriter writer;
  writer.PutU32(1000);  // Claims 1000 bytes; none follow.
  BinaryReader reader{Slice(writer.buffer())};
  Slice view;
  EXPECT_FALSE(reader.GetBytes(&view));
}

TEST(SpinLockTest, MutualExclusion) {
  SpinLock lock;
  std::int64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        SpinLockGuard guard(lock);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 80000);
}

TEST(SpinLockTest, TryLockReflectsState) {
  SpinLock lock;
  EXPECT_TRUE(lock.TryLock());
  EXPECT_FALSE(lock.TryLock());
  lock.Unlock();
  EXPECT_TRUE(lock.TryLock());
  lock.Unlock();
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolTest, ZeroThreadsMeansOnePerHardwareThread) {
  const int hardware =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  EXPECT_EQ(ThreadPool(0).num_threads(), hardware);
  EXPECT_EQ(ThreadPool(-2).num_threads(), hardware);
  EXPECT_EQ(ThreadPool(1).num_threads(), 1);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelFor(64, [&](int i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroAndNegativeAreNoOps) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&](int) { ++calls; });
  pool.ParallelFor(-5, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, ParallelForFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelFor(3, [&](int i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForSingleItemRunsInline) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.ParallelFor(1, [&](int) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPoolTest, NestedSubmitDuringWaitIdle) {
  // A task submitted from inside a task must complete before WaitIdle
  // returns — the barrier covers transitively spawned work.
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&] {
      done.fetch_add(1);
      pool.Submit([&] { done.fetch_add(1); });
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 20);
}

TEST(ThreadPoolTest, SplitWeightedBalancesSkewedCosts) {
  // One huge item followed by many tiny ones: equal-count chunking would
  // put the hub and half the tail in one shard. Weighted splitting must
  // isolate the hub so no shard greatly exceeds the ideal cost.
  const int n = 1000;
  const auto cost = [](int i) { return i == 0 ? 1000.0 : 1.0; };
  const auto shards = ThreadPool::SplitWeighted(n, cost, 8);
  ASSERT_GE(shards.size(), 2u);
  ASSERT_LE(shards.size(), 8u);
  // Shards tile [0, n) exactly.
  int expect_begin = 0;
  double total = 0;
  double max_shard = 0;
  for (const auto& s : shards) {
    EXPECT_EQ(s.begin, expect_begin);
    EXPECT_GT(s.end, s.begin);
    expect_begin = s.end;
    double c = 0;
    for (int i = s.begin; i < s.end; ++i) c += cost(i);
    total += c;
    max_shard = std::max(max_shard, c);
  }
  EXPECT_EQ(expect_begin, n);
  // The hub item is unavoidable (1000), but no shard may exceed the ideal
  // (total/8 ≈ 250) by more than that one indivisible item.
  EXPECT_LE(max_shard, total / 8 + 1000.0);
  // And the tail must actually be spread: the hub's shard is just the hub.
  double tail_max = 0;
  for (const auto& s : shards) {
    if (s.begin == 0) {
      continue;
    }
    double c = 0;
    for (int i = s.begin; i < s.end; ++i) c += cost(i);
    tail_max = std::max(tail_max, c);
  }
  EXPECT_LE(tail_max, 2 * (total - 1000.0) / 7 + 1.0);
}

TEST(ThreadPoolTest, SplitWeightedEdgeCases) {
  // Zero or negative total cost falls back to equal-count chunks.
  const auto zero = ThreadPool::SplitWeighted(10, [](int) { return 0.0; }, 4);
  int covered = 0;
  for (const auto& s : zero) covered += s.end - s.begin;
  EXPECT_EQ(covered, 10);
  EXPECT_TRUE(ThreadPool::SplitWeighted(0, [](int) { return 1.0; }, 4).empty());
  const auto one = ThreadPool::SplitWeighted(1, [](int) { return 5.0; }, 4);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].begin, 0);
  EXPECT_EQ(one[0].end, 1);
  // max_shards == 1 keeps everything together.
  const auto single =
      ThreadPool::SplitWeighted(100, [](int) { return 1.0; }, 1);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0].end, 100);
}

TEST(ThreadPoolTest, WeightedParallelForRunsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(
      257, [&](int i) { hits[i].fetch_add(1); },
      [](int i) { return i < 3 ? 1000.0 : 1.0; });
  for (int i = 0; i < 257; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelForShardsReportsShardIndices) {
  ThreadPool pool(3);
  const std::vector<ThreadPool::Shard> shards = {{0, 5}, {5, 6}, {6, 20}};
  std::vector<std::atomic<int>> hits(20);
  std::atomic<int> shard_mask{0};
  pool.ParallelForShards(shards, [&](int shard, int begin, int end) {
    shard_mask.fetch_or(1 << shard);
    for (int i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  EXPECT_EQ(shard_mask.load(), 0b111);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(HistogramTest, MergeFoldsShardSamples) {
  Histogram a;
  Histogram b;
  for (int i = 1; i <= 50; ++i) a.Add(i);
  for (int i = 51; i <= 100; ++i) b.Add(i);
  a.Merge(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_DOUBLE_EQ(a.Min(), 1.0);
  EXPECT_DOUBLE_EQ(a.Max(), 100.0);
  EXPECT_NEAR(a.Percentile(50), 50.5, 0.01);
}

TEST(HistogramTest, Percentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Max(), 100.0);
  EXPECT_NEAR(h.Mean(), 50.5, 1e-9);
  EXPECT_NEAR(h.Percentile(50), 50.5, 0.01);
  EXPECT_NEAR(h.Percentile(99), 99.01, 0.1);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0.0);
}

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch watch;
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  benchmarkish_sink = sink;
  EXPECT_GT(watch.ElapsedMicros(), 0.0);
}

}  // namespace
}  // namespace trinity
