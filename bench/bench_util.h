#ifndef TRINITY_BENCH_BENCH_UTIL_H_
#define TRINITY_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cloud/memory_cloud.h"
#include "common/logging.h"
#include "graph/generators.h"
#include "graph/graph.h"

namespace trinity::bench {

/// Machine-readable bench output. When the binary is invoked with `--json`,
/// every row recorded here is written to BENCH_<name>.json in the working
/// directory on destruction (or an explicit Flush); without the flag all
/// calls are no-ops, so call sites stay unconditional and the human tables
/// keep printing either way. Rows are flat objects — wall-clock and modeled
/// seconds, message/transfer/byte counters — one per table cell, tagged
/// with a `section` so one file can carry several sweeps. The file also
/// records `nproc` and `build_type` (TRINITY_BUILD_TYPE, which
/// bench/CMakeLists.txt sets from CMAKE_BUILD_TYPE).
class JsonEmitter {
 public:
  JsonEmitter(const char* name, int argc, char* const* argv) : name_(name) {
    for (int i = 1; i < argc; ++i) {
      if (std::string_view(argv[i]) == "--json") enabled_ = true;
    }
  }
  ~JsonEmitter() { Flush(); }

  JsonEmitter(const JsonEmitter&) = delete;
  JsonEmitter& operator=(const JsonEmitter&) = delete;

  bool enabled() const { return enabled_; }

  void BeginRow(const char* section) {
    if (!enabled_) return;
    rows_.emplace_back();
    Field("section", std::string("\"") + section + "\"");
  }
  void Add(const char* key, double value) {
    if (!enabled_) return;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Field(key, buf);
  }
  void Add(const char* key, std::uint64_t value) {
    if (!enabled_) return;
    Field(key, std::to_string(value));
  }
  void Add(const char* key, int value) {
    if (!enabled_) return;
    Field(key, std::to_string(value));
  }
  void Add(const char* key, bool value) {
    if (!enabled_) return;
    Field(key, value ? "true" : "false");
  }
  /// String values are quoted. Callers must pass std::string explicitly — a
  /// bare literal would prefer the bool overload.
  void Add(const char* key, const std::string& value) {
    if (!enabled_) return;
    Field(key, "\"" + value + "\"");
  }

  void Flush() {
    if (!enabled_ || flushed_) return;
    flushed_ = true;
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    TRINITY_CHECK(f != nullptr, "cannot open bench json output");
    std::fprintf(f,
                 "{\n  \"bench\": \"%s\",\n  \"nproc\": %u,\n"
                 "  \"build_type\": \"%s\",\n  \"rows\": [\n",
                 name_.c_str(), std::thread::hardware_concurrency(),
                 TRINITY_BUILD_TYPE);
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      std::fprintf(f, "    {");
      for (std::size_t i = 0; i < rows_[r].size(); ++i) {
        std::fprintf(f, "%s\"%s\": %s", i == 0 ? "" : ", ",
                     rows_[r][i].first.c_str(), rows_[r][i].second.c_str());
      }
      std::fprintf(f, "}%s\n", r + 1 == rows_.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu rows)\n", path.c_str(), rows_.size());
  }

 private:
  void Field(const char* key, std::string value) {
    TRINITY_CHECK(!rows_.empty(), "Add before BeginRow");
    rows_.back().emplace_back(key, std::move(value));
  }

  std::string name_;
  bool enabled_ = false;
  bool flushed_ = false;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

/// Builds an in-process cluster with `slaves` machines sized for benchmark
/// graphs. p_bits chosen so every slave owns several trunks (paper §3:
/// 2^p > m).
inline std::unique_ptr<cloud::MemoryCloud> NewCloud(
    int slaves, std::uint64_t trunk_bytes = 64ull << 20) {
  cloud::MemoryCloud::Options options;
  options.num_slaves = slaves;
  options.p_bits = 6;  // 64 trunks.
  options.storage.trunk.capacity = trunk_bytes;
  std::unique_ptr<cloud::MemoryCloud> cloud;
  Status s = cloud::MemoryCloud::Create(options, &cloud);
  TRINITY_CHECK(s.ok(), "bench cloud creation failed");
  return cloud;
}

/// Loads an edge list into a fresh graph on `cloud`.
inline std::unique_ptr<graph::Graph> LoadGraph(
    cloud::MemoryCloud* cloud, const graph::Generators::EdgeList& edges,
    bool with_names = false, bool track_inlinks = true,
    std::uint64_t seed = 0) {
  graph::Graph::Options options;
  options.track_inlinks = track_inlinks;
  auto g = std::make_unique<graph::Graph>(cloud, options);
  Status s = graph::Generators::Load(g.get(), edges, with_names, seed);
  TRINITY_CHECK(s.ok(), "bench graph load failed");
  return g;
}

/// Section header matching the paper's figure/table numbering.
inline void PrintHeader(const char* figure, const char* description) {
  std::printf("\n==== %s: %s ====\n", figure, description);
}

inline void PrintFooter() { std::printf("\n"); }

}  // namespace trinity::bench

#endif  // TRINITY_BENCH_BENCH_UTIL_H_
