#include "compute/message_optimizer.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "graph/partition.h"

namespace trinity::compute {

Status MessageOptimizer::Analyze(graph::Graph* graph, MachineId machine,
                                 const Options& options,
                                 MessagePlanReport* report) {
  *report = MessagePlanReport();
  // Build the local machine's bipartite view (Fig 9a): for every local
  // vertex, the remote senders it needs a message from. In the restrictive
  // model a vertex's senders are exactly its in-neighbors (undirected
  // graphs: its neighbors).
  const std::vector<CellId> local = graph->LocalNodes(machine);
  report->local_vertices = local.size();
  if (local.empty()) return Status::OK();

  // remote sender -> local receivers (as indices into `local`).
  std::unordered_map<CellId, std::vector<std::uint32_t>> senders;
  std::uint64_t logical = 0;
  const bool directed = graph->options().directed;
  // Pin the machine's trunks once; the per-vertex scan below then takes no
  // lock.
  const auto pin = graph->cloud()->trunks(machine);
  if (pin == nullptr) return Status::NotFound("not a slave");
  for (std::uint32_t idx = 0; idx < local.size(); ++idx) {
    Status s = graph->VisitLocalNode(
        pin.get(), local[idx],
        [&](Slice, const CellId* in, std::size_t in_count, const CellId* out,
            std::size_t out_count) {
          const CellId* from = directed ? in : out;
          const std::size_t count = directed ? in_count : out_count;
          for (std::size_t i = 0; i < count; ++i) {
            ++logical;
            if (graph->MachineOfNode(from[i]) == machine) continue;
            senders[from[i]].push_back(idx);
          }
        });
    if (!s.ok()) return s;
  }
  report->logical_messages = logical;

  // Classify hubs: the top hub_fraction remote senders by local fan-out
  // (§5.4: "vertices having a large degree and connecting to a great
  // percentage of local vertices").
  std::vector<std::pair<std::uint64_t, CellId>> fanout;
  fanout.reserve(senders.size());
  std::uint64_t remote_needs = 0;
  for (const auto& [sender, receivers] : senders) {
    fanout.emplace_back(receivers.size(), sender);
    remote_needs += receivers.size();
  }
  std::sort(fanout.rbegin(), fanout.rend());
  const std::size_t hub_count =
      options.policy == DeliveryPolicy::kHubBuffered ||
              options.policy == DeliveryPolicy::kHubPlusPartition
          ? static_cast<std::size_t>(
                static_cast<double>(fanout.size()) * options.hub_fraction)
          : 0;
  std::unordered_set<CellId> hubs;
  std::uint64_t hub_served = 0;
  for (std::size_t i = 0; i < hub_count && i < fanout.size(); ++i) {
    hubs.insert(fanout[i].second);
    hub_served += fanout[i].first;
  }
  report->hub_count = hubs.size();
  report->hub_coverage =
      remote_needs == 0
          ? 0.0
          : static_cast<double>(hub_served) / static_cast<double>(remote_needs);

  // Partition the local vertices (Fig 9b): either naive contiguous ranges,
  // or a real multilevel partition of the shared-sender graph (receivers
  // fed by the same sender attract each other into one partition).
  const int parts =
      options.policy == DeliveryPolicy::kHubPlusPartition
          ? std::max(1, options.num_partitions)
          : 1;
  std::vector<std::int32_t> assignment;
  if (options.use_multilevel_partition && parts > 1) {
    graph::Generators::EdgeList shared;
    shared.num_nodes = local.size();
    for (const auto& [sender, receivers] : senders) {
      if (hubs.count(sender) != 0) continue;  // Hubs bypass partitioning.
      // Chain this sender's receivers so the partitioner pulls them
      // together (a clique would be quadratic; a path carries the signal).
      for (std::size_t i = 1; i < receivers.size(); ++i) {
        shared.edges.emplace_back(receivers[i - 1], receivers[i]);
      }
    }
    graph::MultilevelPartitioner::Options popts;
    popts.num_parts = parts;
    graph::MultilevelPartitioner partitioner(popts);
    graph::MultilevelPartitioner::Result presult;
    Status ps = partitioner.Partition(graph::Csr::FromEdges(shared),
                                      &presult);
    if (!ps.ok()) return ps;
    assignment = std::move(presult.assignment);
  }
  auto partition_of = [&](std::uint32_t local_idx) {
    if (!assignment.empty()) return static_cast<int>(assignment[local_idx]);
    return static_cast<int>((static_cast<std::uint64_t>(local_idx) * parts) /
                            local.size());
  };

  const std::uint64_t msg = options.message_bytes;
  std::uint64_t delivered = 0;
  const std::uint64_t hub_buffer_bytes = hubs.size() * msg;
  std::vector<std::uint64_t> partition_buffer(parts, 0);
  std::uint64_t on_demand_deliveries = 0;

  for (const auto& [sender, receivers] : senders) {
    if (hubs.count(sender) != 0) {
      // Buffered for the entire iteration: delivered exactly once.
      delivered += 1;
      continue;
    }
    switch (options.policy) {
      case DeliveryPolicy::kBufferAll:
        delivered += 1;  // One delivery, buffered all iteration.
        break;
      case DeliveryPolicy::kOnDemand:
        // Re-fetched for every receiver (§5.4: "a single message needed to
        // be delivered multiple times").
        delivered += receivers.size();
        on_demand_deliveries += receivers.size();
        break;
      case DeliveryPolicy::kHubBuffered:
        delivered += receivers.size();
        on_demand_deliveries += receivers.size();
        break;
      case DeliveryPolicy::kHubPlusPartition: {
        // Delivered once per distinct partition containing a receiver —
        // the action script orders messages partition by partition.
        std::uint64_t mask = 0;
        int distinct = 0;
        for (std::uint32_t r : receivers) {
          const int p = partition_of(r);
          if ((mask & (1ull << (p % 64))) == 0) {
            mask |= 1ull << (p % 64);
            ++distinct;
            partition_buffer[p] += msg;
          }
        }
        delivered += distinct;
        break;
      }
    }
  }
  report->delivered_messages = delivered;

  // Peak buffer: hub buffer persists all iteration; partitions are resident
  // one at a time; buffer-all holds every sender's message at once.
  switch (options.policy) {
    case DeliveryPolicy::kBufferAll:
      report->peak_buffer_bytes = senders.size() * msg;
      break;
    case DeliveryPolicy::kOnDemand:
      report->peak_buffer_bytes = msg;  // One message in hand at a time.
      break;
    case DeliveryPolicy::kHubBuffered:
      report->peak_buffer_bytes = hub_buffer_bytes + msg;
      break;
    case DeliveryPolicy::kHubPlusPartition: {
      const std::uint64_t max_partition =
          partition_buffer.empty()
              ? 0
              : *std::max_element(partition_buffer.begin(),
                                  partition_buffer.end());
      report->peak_buffer_bytes = hub_buffer_bytes + max_partition;
      break;
    }
  }
  (void)on_demand_deliveries;
  return Status::OK();
}

ResidencyReport MessageOptimizer::Residency(
    std::uint64_t num_vertices, std::uint64_t num_edges, double attr_bytes,
    double local_bytes, double message_bytes, double scheduled_fraction) {
  // S = |V| (16 + k + l + m) + 8 |E|       (everything memory resident)
  // S' = p S + (1 - p) |V| (16 + m)        (Type A scheduled, Type B mailbox)
  ResidencyReport report;
  const double v = static_cast<double>(num_vertices);
  const double e = static_cast<double>(num_edges);
  report.full_bytes =
      v * (16.0 + attr_bytes + local_bytes + message_bytes) + 8.0 * e;
  report.offline_bytes = scheduled_fraction * report.full_bytes +
                         (1.0 - scheduled_fraction) * v * (16.0 + message_bytes);
  report.saved_bytes = report.full_bytes - report.offline_bytes;
  return report;
}

}  // namespace trinity::compute
