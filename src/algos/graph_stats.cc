#include "algos/graph_stats.h"

#include <algorithm>
#include <cmath>

namespace trinity::algos {

Status ComputeGraphStats(graph::Graph* graph, std::uint64_t tail_cutoff,
                         const net::CostModel& cost_model, GraphStats* out) {
  *out = GraphStats();
  cloud::MemoryCloud* cloud = graph->cloud();
  net::Fabric& fabric = cloud->fabric();
  net::MeterSet meters(fabric.num_machines());
  // Per-machine partial histograms, folded client-side (the per-partition
  // sampling paradigm of §5.5 — no cross-machine traffic beyond the fold).
  std::vector<std::map<std::uint64_t, std::uint64_t>> partials(
      cloud->num_slaves());
  Status failure;
  for (MachineId m = 0; m < cloud->num_slaves(); ++m) {
    net::Fabric::MeterScope meter(fabric, m, &meters);
    for (CellId v : graph->LocalNodes(m)) {
      Status s = graph->VisitLocalNode(
          m, v,
          [&](Slice, const CellId*, std::size_t, const CellId*,
              std::size_t out_count) {
            ++partials[m][out_count];
          });
      if (!s.ok()) failure = s;
    }
  }
  if (!failure.ok()) return failure;
  for (const auto& partial : partials) {
    for (const auto& [degree, count] : partial) {
      out->degree_histogram[degree] += count;
    }
  }
  double degree_sum = 0;
  for (const auto& [degree, count] : out->degree_histogram) {
    out->num_nodes += count;
    out->num_edges += degree * count;
    degree_sum += static_cast<double>(degree) * static_cast<double>(count);
    out->max_out_degree = std::max(out->max_out_degree, degree);
  }
  if (out->num_nodes > 0) {
    out->avg_out_degree = degree_sum / static_cast<double>(out->num_nodes);
  }
  // Hill estimator: gamma = 1 + n_tail / sum(ln(d_i / cutoff)), d_i >=
  // cutoff.
  if (tail_cutoff >= 1) {
    double log_sum = 0;
    std::uint64_t tail = 0;
    for (const auto& [degree, count] : out->degree_histogram) {
      if (degree < tail_cutoff) continue;
      log_sum += static_cast<double>(count) *
                 std::log(static_cast<double>(degree) /
                          static_cast<double>(tail_cutoff));
      tail += count;
    }
    if (tail >= 10 && log_sum > 0) {
      out->power_law_gamma = 1.0 + static_cast<double>(tail) / log_sum;
    }
  }
  out->modeled_millis = cost_model.PhaseSeconds(meters) * 1000.0;
  return Status::OK();
}

}  // namespace trinity::algos
