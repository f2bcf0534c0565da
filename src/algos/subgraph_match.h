#ifndef TRINITY_ALGOS_SUBGRAPH_MATCH_H_
#define TRINITY_ALGOS_SUBGRAPH_MATCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "net/cost_model.h"

namespace trinity::algos {

/// Exploration-based subgraph matching without any structure index (paper
/// §5.2, Fig 8a, Fig 14a; after [32]). Queries are small labeled patterns;
/// matching proceeds by distributed graph exploration: partial embeddings
/// are routed to the machine owning the next candidate vertex, which
/// verifies edges against its local adjacency and extends. "The combination
/// of fast random access and parallel computing offers a new paradigm."
///
/// Vertex labels are virtual: label(v) = Mix64(v ^ label_seed) % num_labels,
/// so no storage is touched and the same labeling is visible on every
/// machine.
class SubgraphMatcher {
 public:
  /// A query pattern in match order: node i must carry `label` and be
  /// adjacent (either direction) to every earlier node listed in
  /// `edges_to_earlier`; the first entry is the *anchor* whose neighborhood
  /// supplies the candidates.
  struct PatternNode {
    std::uint32_t label = 0;
    std::vector<int> edges_to_earlier;
  };
  struct Pattern {
    std::vector<PatternNode> nodes;
  };

  struct Options {
    std::uint32_t num_labels = 32;
    std::uint64_t label_seed = 99;
    std::uint64_t max_results = 1024;
    std::uint64_t max_partials = 2'000'000;  ///< Work cap per query.
    /// Tasks a machine processes per communication round. Combined with the
    /// LIFO (depth-first) order, a small budget makes exploration complete
    /// embeddings early instead of flooding breadth-first.
    std::uint64_t round_budget = 4096;
    net::CostModel cost_model;
  };

  struct Result {
    std::uint64_t embeddings = 0;
    std::uint64_t partials_expanded = 0;
    double modeled_millis = 0;
    int rounds = 0;
    bool truncated = false;  ///< Hit a result/work cap.
  };

  SubgraphMatcher(graph::Graph* graph, Options options);

  SubgraphMatcher(const SubgraphMatcher&) = delete;
  SubgraphMatcher& operator=(const SubgraphMatcher&) = delete;

  std::uint32_t LabelOf(CellId v) const;

  /// Runs a query across the cluster.
  Status Match(const Pattern& pattern, Result* result);

  /// Generates a pattern guaranteed to have at least one embedding, by
  /// walking the data graph depth-first from a random node (the DFS query
  /// generator of [32]).
  Status GenerateDfsQuery(int size, std::uint64_t seed, Pattern* out);

  /// RANDOM generator of [32]: grows a random connected subgraph by picking
  /// random frontier edges.
  Status GenerateRandomQuery(int size, std::uint64_t seed, Pattern* out);

  /// Reorders the pattern's match order for selectivity, in the spirit of
  /// the STwig ordering of [32]: the first node is the one with the rarest
  /// label in the data graph, and each subsequent node maximizes the number
  /// of edges back to already-ordered nodes (more edges = more pruning at
  /// Verify time), breaking ties toward rarer labels. The reordered pattern
  /// matches the same embeddings; the exploration visits fewer partials.
  Status OptimizeMatchOrder(const Pattern& pattern, Pattern* optimized);

  /// Data-graph frequency of each label (one metered distributed scan);
  /// cached after the first call.
  const std::vector<std::uint64_t>& LabelFrequencies();

 private:
  struct Embedding {
    std::vector<CellId> matched;
  };

  MachineId OwnerOf(CellId v) const;
  /// Extracts a pattern from concrete data-graph vertices.
  Pattern PatternFromVertices(const std::vector<CellId>& vertices);
  /// Collects a connected vertex set by exploration; used by both query
  /// generators.
  Status SampleConnectedVertices(int size, std::uint64_t seed, bool dfs,
                                 std::vector<CellId>* out);

  graph::Graph* graph_;
  Options options_;
  /// The addressing table pinned at construction.
  const std::shared_ptr<const cloud::AddressingTable> table_;
  std::vector<std::uint64_t> label_frequencies_;
  int num_slaves_;
};

}  // namespace trinity::algos

#endif  // TRINITY_ALGOS_SUBGRAPH_MATCH_H_
