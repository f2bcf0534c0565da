#ifndef TRINITY_COMPUTE_TRAVERSAL_H_
#define TRINITY_COMPUTE_TRAVERSAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/call_context.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "graph/graph.h"
#include "net/cost_model.h"

namespace trinity::compute {

/// Traversal-based online query engine (paper §5.1): the substrate for
/// people search and other k-hop exploration queries. "The algorithm simply
/// sends asynchronous requests recursively to remote machines, and the
/// performance is achieved by efficient memory access and optimization of
/// network communication."
///
/// The engine runs a level-synchronous distributed expansion: each machine
/// expands the frontier vertices it owns against its local trunks
/// (zero-copy), and forwards newly discovered remote vertices as packed
/// one-sided payloads — one per (src,dst) machine pair per round (§4.2).
/// With num_threads > 1 the per-machine expansions of one round run on pool
/// workers. Query latency is modeled per round — exactly the round-trip
/// structure a real deployment would see — and summed into
/// QueryStats::modeled_millis, the number Fig 12(a) plots.
///
/// Every query meters into its own net::MeterSet under its own fabric
/// handler id, so queries may run concurrently with each other (on one
/// engine or many) and with any other workload on the cloud.
class TraversalEngine {
 public:
  struct Options {
    net::CostModel cost_model;
    /// Worker threads for the per-machine frontier expansion. Defaults to 1
    /// (sequential) because the Visitor runs on the worker that owns the
    /// vertex: with num_threads > 1 the visitor MUST be safe to call
    /// concurrently from different machines' workers. Bfs() is internally
    /// parallel-safe. 0 = one thread per hardware thread.
    int num_threads = 1;
  };

  struct QueryStats {
    double modeled_millis = 0;
    std::uint64_t visited = 0;
    int rounds = 0;
    std::uint64_t messages = 0;
    std::uint64_t transfers = 0;
  };

  /// Visitor invoked once per visited vertex, on the machine that owns it.
  /// `data` is the node payload (e.g. the person's name). Returning false
  /// prunes expansion below this vertex (its neighbors are not enqueued).
  /// See Options::num_threads for the concurrency contract.
  using Visitor = std::function<bool(CellId vertex, int depth, Slice data)>;

  TraversalEngine(graph::Graph* graph, Options options);
  explicit TraversalEngine(graph::Graph* graph);

  TraversalEngine(const TraversalEngine&) = delete;
  TraversalEngine& operator=(const TraversalEngine&) = delete;

  /// Explores the out-neighborhood of `start` up to `max_depth` hops,
  /// invoking `visit` for every distinct vertex reached (including the
  /// start at depth 0). Each vertex is visited exactly once.
  ///
  /// `ctx`, when non-null, bounds the query: the deadline is checked at
  /// every round barrier and each round's modeled latency is charged
  /// against the budget, so a query that cannot finish in time returns
  /// DeadlineExceeded (or Aborted when cancelled) with the rounds it
  /// completed already reflected in `stats`.
  Status KHopExplore(CellId start, int max_depth, const Visitor& visit,
                     QueryStats* stats, CallContext* ctx = nullptr);

  /// Distributed BFS from `start` over the whole graph; returns the hop
  /// distance per reached vertex. This is the Fig 12(c)/Fig 13 kernel.
  /// Parallel-safe regardless of num_threads (distances are collected per
  /// owning machine and merged after the run).
  Status Bfs(CellId start,
             std::unordered_map<CellId, std::uint32_t>* distances,
             QueryStats* stats, CallContext* ctx = nullptr);

 private:
  MachineId OwnerOf(CellId vertex) const;

  graph::Graph* graph_;
  Options options_;
  /// The addressing table pinned at construction.
  const std::shared_ptr<const cloud::AddressingTable> table_;
  std::unique_ptr<ThreadPool> pool_;
  int num_slaves_;
};

}  // namespace trinity::compute

#endif  // TRINITY_COMPUTE_TRAVERSAL_H_
