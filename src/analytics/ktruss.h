#ifndef TRINITY_ANALYTICS_KTRUSS_H_
#define TRINITY_ANALYTICS_KTRUSS_H_

#include <cstdint>
#include <vector>

#include "analytics/graph_snapshot.h"
#include "common/status.h"

namespace trinity::analytics {

/// Truss decomposition of a gathered full-graph snapshot. Edge e belongs to
/// the k-truss iff every edge of some subgraph containing e closes at least
/// k-2 triangles inside that subgraph; `trussness[e]` is the largest such k
/// (2 for an edge in no triangle).
struct KTrussResult {
  /// Edge arrays aligned to the snapshot's oriented CSR: edge e connects
  /// ranks src[e] (the owning vertex) and dst[e] (< src[e]).
  std::vector<std::uint32_t> src;
  std::vector<std::uint32_t> dst;
  std::vector<std::uint32_t> trussness;
  std::uint32_t max_trussness = 0;  ///< 0 on an edgeless graph.
  std::uint64_t triangles = 0;      ///< Total triangles (from support init).

  std::size_t num_edges() const { return trussness.size(); }

  /// Trussness of the undirected edge {a, b} (ranks, either order), or 0
  /// when no such edge exists.
  std::uint32_t TrussnessOf(std::uint32_t a, std::uint32_t b) const;
};

/// Wall-clock phase split of one decomposition.
struct KTrussStats {
  double adjacency_ms = 0;  ///< Flat undirected CSR with edge ids.
  double support_ms = 0;    ///< Validate + CountEdgeSupport.
  double peel_ms = 0;       ///< Bucket queue + peel.
  /// Hub rows (undirected degree >= 64) that the peel probes through a
  /// rank bitmap, and the bytes those bitmaps, their prefix counts and the
  /// hub rows' edge id copies take.
  std::uint64_t hub_rows = 0;
  std::uint64_t bitmap_bytes = 0;
};

/// Iterative support peeling with a bucket queue (the standard k-core-style
/// decomposition lifted to edges): initialize each edge's support to its
/// triangle count, then repeatedly peel the minimum-support edge — its
/// trussness is support + 2 — decrementing the supports of the two partner
/// edges of every triangle it still closes. Runs on a full snapshot
/// (SnapshotBuilder::BuildGlobal); returns InvalidArgument for a partial
/// per-machine view. `stats` (optional) receives the phase split.
Status KTrussDecompose(const GraphSnapshot& snapshot, KTrussResult* out,
                       KTrussStats* stats = nullptr);

}  // namespace trinity::analytics

#endif  // TRINITY_ANALYTICS_KTRUSS_H_
