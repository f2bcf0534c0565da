#ifndef TRINITY_ANALYTICS_TRIANGLES_H_
#define TRINITY_ANALYTICS_TRIANGLES_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "analytics/graph_snapshot.h"
#include "common/histogram.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "graph/graph.h"

namespace trinity::analytics {

/// Which set-intersection kernel the counter runs. kAdaptive picks per
/// vertex pair by degree skew and bitmap residency; the fixed modes are the
/// benchmark ablation arms.
enum class IntersectKernel {
  kMerge,      ///< Linear merge for every pair.
  kGalloping,  ///< Gallop the smaller list into the larger for every pair.
  kBitmap,     ///< Bitmap probe/AND when the hub side is bitmap-resident.
  kAdaptive,   ///< Per-pair choice by skew + residency (the default).
};

/// Per-kernel work accounting. `smaller_len` is the smaller input length of
/// each intersection the kernel served — the histograms that make the
/// selection thresholds data-driven instead of guessed.
struct KernelStats {
  std::uint64_t intersections = 0;
  std::uint64_t comparisons = 0;
  Histogram smaller_len;

  void Merge(const KernelStats& other) {
    intersections += other.intersections;
    comparisons += other.comparisons;
    smaller_len.Merge(other.smaller_len);
  }
};

struct TriangleStats {
  std::uint64_t triangles = 0;
  /// Kernel ablation counters: merge, galloping, bitmap probe (list vs
  /// bitmap), and bitmap AND (hub-hub word intersection).
  KernelStats merge;
  KernelStats gallop;
  KernelStats probe;
  KernelStats bitmap_and;
  std::uint64_t bitmap_builds = 0;     ///< Hub bitmaps materialized.
  std::uint64_t bitmap_build_ops = 0;  ///< Set-bit operations spent building.
  /// Boundary-adjacency exchange (Sanders/Uhl-style, once per machine pair):
  /// lists shipped, request+response payload bytes, and sync round trips —
  /// the distributed-counting scoreboard. A run over M machines issues at
  /// most M*(M-1) calls no matter how many edges cross the cut.
  std::uint64_t boundary_calls = 0;
  std::uint64_t boundary_lists = 0;
  std::uint64_t boundary_bytes = 0;
  double exchange_ms = 0;  ///< Wall time of the boundary exchange.
  double count_ms = 0;     ///< Wall time of the intersection loops.

  std::uint64_t total_comparisons() const {
    return merge.comparisons + gallop.comparisons + probe.comparisons +
           bitmap_and.comparisons + bitmap_build_ops;
  }
  std::uint64_t total_intersections() const {
    return merge.intersections + gallop.intersections + probe.intersections +
           bitmap_and.intersections;
  }

  void Merge(const TriangleStats& other);
};

struct TriangleOptions {
  IntersectKernel kernel = IntersectKernel::kAdaptive;
  /// Size ratio at which the skewed pair flips from merge to galloping.
  double gallop_skew = 16.0;
  /// Ranks below this bound get a precomputed packed bitmap (hubs occupy
  /// the low ranks, and an oriented hub list fits entirely below its own
  /// rank, so `hub_ranks` bits per bitmap always suffice).
  std::uint32_t hub_ranks = 4096;
  /// Per-machine dispatch threads (0 = hardware concurrency).
  int num_threads = 0;
};

/// Oriented triangle counting over frozen GraphSnapshot views: for every
/// vertex v and every oriented neighbor u (rank u < v), the count of
/// A+(v)[0..pos(u)) ∩ A+(u) — each triangle counted exactly once at its
/// highest-rank corner. Distribution ships each needed remote hub list once
/// per machine (the boundary exchange); counting itself never touches cells
/// or the fabric. Local vertex loops dispatch on a ThreadPool with
/// cost-weighted shards, so power-law hubs don't serialize one worker.
class TriangleCounter {
 public:
  TriangleCounter(graph::Graph* graph, TriangleOptions options);
  explicit TriangleCounter(graph::Graph* graph);

  TriangleCounter(const TriangleCounter&) = delete;
  TriangleCounter& operator=(const TriangleCounter&) = delete;

  /// Distributed count over per-machine views (as built by
  /// SnapshotBuilder::Build). Views are read-only throughout.
  Status Count(const std::vector<GraphSnapshot>& views, TriangleStats* out);

  /// Count on one full-graph snapshot (SnapshotBuilder::BuildGlobal) — no
  /// fabric traffic, the single-machine kernel showcase.
  Status CountLocal(const GraphSnapshot& snapshot, TriangleStats* out);

  /// Convenience: snapshot build + distributed count.
  Status CountFromCells(TriangleStats* out,
                        SnapshotBuilder::BuildStats* build_stats = nullptr);

 private:
  graph::Graph* graph_;
  const TriangleOptions options_;
  std::unique_ptr<ThreadPool> pool_;
};

/// Per-edge triangle support on a full snapshot (SnapshotBuilder::
/// BuildGlobal): (*support)[e] is the number of triangles through oriented
/// edge e, whose id is its CSR slot. Runs CountLocal's oriented enumeration
/// with the same cost-weighted shards on a pool of `options.num_threads`,
/// over the position-emitting list kernels (merge, or galloping past
/// `options.gallop_skew`; `options.kernel` is not consulted): each triangle
/// is found once at its highest-rank corner v and bumps its three edges
/// e_vu, e_vw and e_uw. Returns InvalidArgument for a per-machine view.
Status CountEdgeSupport(const GraphSnapshot& snapshot,
                        const TriangleOptions& options,
                        std::vector<std::uint32_t>* support);

/// Cell-at-a-time correctness anchor: fetches every node cell through the
/// cloud (hashing + routing + accessor pinning per probe) and counts by
/// id-ordered neighborhood intersection — an implementation independent of
/// ranks, orientation, and kernels. `cells_fetched` (optional) reports the
/// number of cloud reads the cell-shaped access model paid.
Status CountTrianglesNaive(graph::Graph* graph, std::uint64_t* count,
                           std::uint64_t* cells_fetched = nullptr);

}  // namespace trinity::analytics

#endif  // TRINITY_ANALYTICS_TRIANGLES_H_
