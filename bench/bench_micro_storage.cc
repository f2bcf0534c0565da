// Microbenchmarks for §6.1's circular memory management: allocation,
// lookup, expansion with/without short-lived reservations, and
// defragmentation throughput.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "bench_util.h"
#include "storage/memory_trunk.h"

namespace trinity::storage {
namespace {

MemoryTrunk::Options TrunkOptions(int reservation_pct = 50) {
  MemoryTrunk::Options options;
  options.capacity = 256ull << 20;
  options.reservation_pct = reservation_pct;
  return options;
}

void BM_TrunkAddCell(benchmark::State& state) {
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  std::unique_ptr<MemoryTrunk> trunk;
  (void)MemoryTrunk::Create(TrunkOptions(), &trunk);
  CellId id = 0;
  for (auto _ : state) {
    if (!trunk->AddCell(id++, Slice(payload)).ok()) {
      state.PauseTiming();
      (void)MemoryTrunk::Create(TrunkOptions(), &trunk);
      id = 0;
      state.ResumeTiming();
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TrunkAddCell)->Arg(16)->Arg(128)->Arg(1024);

void BM_TrunkGetCell(benchmark::State& state) {
  std::unique_ptr<MemoryTrunk> trunk;
  (void)MemoryTrunk::Create(TrunkOptions(), &trunk);
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'g');
  const int kCells = 10000;
  for (CellId id = 0; id < kCells; ++id) {
    (void)trunk->AddCell(id, Slice(payload));
  }
  std::string out;
  CellId id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trunk->GetCell(id % kCells, &out));
    ++id;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TrunkGetCell)->Arg(16)->Arg(1024);

void BM_TrunkZeroCopyAccess(benchmark::State& state) {
  std::unique_ptr<MemoryTrunk> trunk;
  (void)MemoryTrunk::Create(TrunkOptions(), &trunk);
  const std::string payload(1024, 'z');
  const int kCells = 10000;
  for (CellId id = 0; id < kCells; ++id) {
    (void)trunk->AddCell(id, Slice(payload));
  }
  CellId id = 0;
  for (auto _ : state) {
    MemoryTrunk::ConstAccessor accessor;
    (void)trunk->Access(id % kCells, &accessor);
    benchmark::DoNotOptimize(accessor.data().data());
    ++id;
  }
}
BENCHMARK(BM_TrunkZeroCopyAccess);

// Growing-cell workload (adjacency-list appends). The reservation
// percentage is the ablation knob: 0 forces a relocation on every growth
// beyond capacity, larger values amortize them (§6.1's short-lived
// reservation mechanism).
void BM_TrunkAppend(benchmark::State& state) {
  const int reservation_pct = static_cast<int>(state.range(0));
  std::unique_ptr<MemoryTrunk> trunk;
  (void)MemoryTrunk::Create(TrunkOptions(reservation_pct), &trunk);
  const int kCells = 512;
  for (CellId id = 0; id < kCells; ++id) {
    (void)trunk->AddCell(id, Slice());
  }
  const char edge[8] = {0};
  CellId id = 0;
  for (auto _ : state) {
    if (!trunk->AppendToCell(id % kCells, Slice(edge, sizeof(edge))).ok()) {
      state.PauseTiming();
      (void)MemoryTrunk::Create(TrunkOptions(reservation_pct), &trunk);
      for (CellId v = 0; v < kCells; ++v) (void)trunk->AddCell(v, Slice());
      state.ResumeTiming();
    }
    ++id;
  }
  const auto stats = trunk->stats();
  state.counters["relocations"] =
      static_cast<double>(stats.expansions_relocated);
  state.counters["in_place"] = static_cast<double>(stats.expansions_in_place);
}
BENCHMARK(BM_TrunkAppend)->Arg(0)->Arg(25)->Arg(50)->Arg(100);

void BM_TrunkDefragment(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    std::unique_ptr<MemoryTrunk> trunk;
    (void)MemoryTrunk::Create(TrunkOptions(), &trunk);
    const std::string payload(256, 'd');
    for (CellId id = 0; id < 4000; ++id) {
      (void)trunk->AddCell(id, Slice(payload));
    }
    for (CellId id = 0; id < 4000; id += 2) {
      (void)trunk->RemoveCell(id);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(trunk->Defragment());
  }
}
BENCHMARK(BM_TrunkDefragment);

/// Multithreaded read-throughput sweep (PR 5's acceptance metric): N
/// threads hammer Get/Access on one shared trunk; aggregate ops/sec should
/// scale with threads now that readers share the trunk lock instead of
/// serializing on a std::mutex. Emitted to BENCH_read_throughput.json with
/// --json. Needs >= 8 hardware threads to demonstrate the full speedup;
/// read_lock_contended staying 0 over every read is the
/// core-count-independent evidence that readers never exclude each other.
void RunReadThroughputSweep(int argc, char* const* argv) {
  bench::JsonEmitter json("read_throughput", argc, argv);
  std::unique_ptr<MemoryTrunk> trunk;
  (void)MemoryTrunk::Create(TrunkOptions(), &trunk);
  const std::string payload(128, 'r');
  const int kCells = 10000;
  for (CellId id = 0; id < kCells; ++id) {
    (void)trunk->AddCell(id, Slice(payload));
  }
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::printf("\n==== read throughput: concurrent trunk reads "
              "(%d hardware threads) ====\n", hw);
  for (const bool use_access : {false, true}) {
    const char* section = use_access ? "trunk_access" : "trunk_get";
    double base_mops = 0.0;
    for (const int threads : {1, 2, 4, 8}) {
      const std::uint64_t ops_per_thread = 400000;
      const auto before = trunk->stats();
      std::atomic<bool> go{false};
      std::vector<std::thread> workers;
      workers.reserve(threads);
      for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
          while (!go.load(std::memory_order_acquire)) {
          }
          std::string out;
          for (std::uint64_t i = 0; i < ops_per_thread; ++i) {
            const CellId id =
                (static_cast<CellId>(t) * 7919 + i) % kCells;
            if (use_access) {
              MemoryTrunk::ConstAccessor accessor;
              (void)trunk->Access(id, &accessor);
              benchmark::DoNotOptimize(accessor.data().data());
            } else {
              (void)trunk->GetCell(id, &out);
              benchmark::DoNotOptimize(out.data());
            }
          }
        });
      }
      const auto start = std::chrono::steady_clock::now();
      go.store(true, std::memory_order_release);
      for (std::thread& w : workers) w.join();
      const double secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      const std::uint64_t total = ops_per_thread * threads;
      const double mops = static_cast<double>(total) / secs / 1e6;
      if (threads == 1) base_mops = mops;
      const auto after = trunk->stats();
      const std::uint64_t contended =
          after.read_lock_contended - before.read_lock_contended;
      std::printf(
          "%-13s threads=%d  %8.2f Mops/s  speedup=%.2fx  "
          "contended=%llu/%llu reads\n",
          section, threads, mops, base_mops > 0 ? mops / base_mops : 1.0,
          static_cast<unsigned long long>(contended),
          static_cast<unsigned long long>(total));
      json.BeginRow(section);
      json.Add("threads", threads);
      json.Add("ops", total);
      json.Add("seconds", secs);
      json.Add("mops_per_sec", mops);
      json.Add("speedup_vs_1t", base_mops > 0 ? mops / base_mops : 1.0);
      json.Add("read_lock_contended", contended);
      json.Add("hardware_threads", hw);
    }
  }
}

/// Trunk footprint report: the memory-hierarchy meters on a churned trunk
/// (adds, removes, appends), with and without adjacency compression, so a
/// run shows at a glance how live/dead/resident bytes relate and what the
/// delta-varint codec buys (docs/memory_hierarchy.md). Rows land in
/// BENCH_trunk_footprint.json with --json.
void RunFootprintReport(int argc, char* const* argv) {
  bench::JsonEmitter json("trunk_footprint", argc, argv);
  std::printf("\n==== trunk footprint: live/dead/resident meters ====\n");
  for (const bool compress : {false, true}) {
    MemoryTrunk::Options options = TrunkOptions();
    options.compress_adjacency = compress;
    std::unique_ptr<MemoryTrunk> trunk;
    (void)MemoryTrunk::Create(options, &trunk);
    // Sorted adjacency cells (codec-eligible) plus churn that strands dead
    // bytes: every third cell removed, every fifth grown.
    for (CellId id = 0; id < 4000; ++id) {
      graph::NodeImage node;
      node.id = id;
      for (CellId k = 0; k < 32; ++k) node.out.push_back(id + k * 3);
      const std::string blob = graph::Graph::EncodeNode(node);
      (void)trunk->AddCell(id, Slice(blob));
    }
    for (CellId id = 0; id < 4000; id += 3) (void)trunk->RemoveCell(id);
    const char edge[8] = {0};
    for (CellId id = 1; id < 4000; id += 5) {
      (void)trunk->AppendToCell(id, Slice(edge, sizeof(edge)));
    }
    const auto stats = trunk->stats();
    const double dead_ratio =
        stats.used_bytes == 0
            ? 0.0
            : static_cast<double>(stats.dead_bytes) /
                  static_cast<double>(stats.used_bytes);
    std::printf(
        "compress=%d  live=%llu B  dead=%llu B (%.1f%% of used)  "
        "resident=%llu B  compressed_cells=%llu (%llu B stored)\n",
        compress ? 1 : 0, static_cast<unsigned long long>(stats.live_bytes),
        static_cast<unsigned long long>(stats.dead_bytes), 100 * dead_ratio,
        static_cast<unsigned long long>(stats.resident_bytes),
        static_cast<unsigned long long>(stats.compressed_cells),
        static_cast<unsigned long long>(stats.compressed_bytes));
    json.BeginRow("trunk_footprint");
    json.Add("compress_adjacency", compress);
    json.Add("live_cells", stats.live_cells);
    json.Add("live_bytes", stats.live_bytes);
    json.Add("dead_bytes", stats.dead_bytes);
    json.Add("dead_ratio", dead_ratio);
    json.Add("resident_bytes", stats.resident_bytes);
    json.Add("used_bytes", stats.used_bytes);
    json.Add("reserved_slack", stats.reserved_slack);
    json.Add("compressed_cells", stats.compressed_cells);
    json.Add("compressed_bytes", stats.compressed_bytes);
  }
}

}  // namespace
}  // namespace trinity::storage

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  trinity::storage::RunReadThroughputSweep(argc, argv);
  trinity::storage::RunFootprintReport(argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
