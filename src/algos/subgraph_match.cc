#include "algos/subgraph_match.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "common/hash.h"
#include "common/random.h"
#include "common/serializer.h"

namespace trinity::algos {

namespace {

enum class Op : std::uint8_t { kExpand = 1, kVerify = 2 };

struct Task {
  Op op;
  std::uint32_t query_index;
  std::vector<CellId> matched;
};

std::string EncodeTask(const Task& task) {
  BinaryWriter writer;
  writer.PutU8(static_cast<std::uint8_t>(task.op));
  writer.PutU32(task.query_index);
  writer.PutU32(static_cast<std::uint32_t>(task.matched.size()));
  for (CellId v : task.matched) writer.PutU64(v);
  return writer.Release();
}

bool DecodeTask(Slice payload, Task* task) {
  BinaryReader reader(payload);
  std::uint8_t op = 0;
  std::uint32_t count = 0;
  if (!reader.GetU8(&op) || !reader.GetU32(&task->query_index) ||
      !reader.GetU32(&count)) {
    return false;
  }
  task->op = static_cast<Op>(op);
  task->matched.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!reader.GetU64(&task->matched[i])) return false;
  }
  return true;
}

}  // namespace

SubgraphMatcher::SubgraphMatcher(graph::Graph* graph, Options options)
    : graph_(graph),
      options_(std::move(options)),
      table_(graph->cloud()->table()),
      num_slaves_(graph->cloud()->num_slaves()) {}

std::uint32_t SubgraphMatcher::LabelOf(CellId v) const {
  return static_cast<std::uint32_t>(Mix64(v ^ options_.label_seed) %
                                    options_.num_labels);
}

MachineId SubgraphMatcher::OwnerOf(CellId v) const {
  return table_->machine_of_trunk(graph_->cloud()->TrunkOf(v));
}

Status SubgraphMatcher::Match(const Pattern& pattern, Result* result) {
  *result = Result();
  if (pattern.nodes.empty()) return Status::InvalidArgument("empty pattern");
  if (graph_->options().directed && !graph_->options().track_inlinks) {
    return Status::InvalidArgument(
        "subgraph matching needs in-links on directed graphs");
  }
  for (std::size_t i = 1; i < pattern.nodes.size(); ++i) {
    if (pattern.nodes[i].edges_to_earlier.empty()) {
      return Status::InvalidArgument("pattern not connected in match order");
    }
  }
  net::Fabric& fabric = graph_->cloud()->fabric();
  net::Fabric::RunScope run(fabric);  // Meters zeroed per round.
  std::vector<std::deque<Task>> queues(num_slaves_);
  for (MachineId m = 0; m < num_slaves_; ++m) {
    fabric.RegisterAsyncHandler(
        m, run.handler, [m, &queues](MachineId, Slice payload) {
          Task task;
          if (DecodeTask(payload, &task)) queues[m].push_back(std::move(task));
        });
  }
  auto route = [&](MachineId src, const Task& task, CellId target_vertex) {
    const MachineId dst = OwnerOf(target_vertex);
    if (dst == src) {
      queues[dst].push_back(task);
    } else {
      const std::string encoded = EncodeTask(task);
      fabric.SendAsync(src, dst, run.handler, Slice(encoded), &run.ctx);
    }
  };

  // Checks locally whether `v` (hosted on machine m) is adjacent to `w` in
  // either direction.
  auto adjacent_local = [&](MachineId m, CellId v, CellId w) {
    bool found = false;
    graph_->VisitLocalNode(
        m, v,
        [&](Slice, const CellId* in, std::size_t in_count, const CellId* out,
            std::size_t out_count) {
          for (std::size_t i = 0; i < out_count && !found; ++i) {
            if (out[i] == w) found = true;
          }
          for (std::size_t i = 0; i < in_count && !found; ++i) {
            if (in[i] == w) found = true;
          }
        });
    return found;
  };

  // Seed: every machine scans its local vertices for label-0 candidates.
  // (A production system scans lazily; the work cap bounds this too.)
  const std::uint32_t first_label = pattern.nodes[0].label;
  bool done = false;
  for (MachineId m = 0; m < num_slaves_ && !done; ++m) {
    net::Fabric::MeterScope meter(fabric, m, &run.meters);
    for (CellId v : graph_->LocalNodes(m)) {
      if (LabelOf(v) != first_label) continue;
      Task task;
      task.op = pattern.nodes.size() == 1 ? Op::kVerify : Op::kExpand;
      task.query_index = pattern.nodes.size() == 1 ? 0 : 1;
      task.matched = {v};
      if (pattern.nodes.size() == 1) {
        ++result->embeddings;  // Single-node pattern matches directly.
        if (result->embeddings >= options_.max_results) {
          result->truncated = true;
          done = true;
          break;
        }
      } else {
        queues[m].push_back(std::move(task));
      }
    }
  }
  result->modeled_millis +=
      options_.cost_model.PhaseSeconds(run.meters) * 1000.0;
  ++result->rounds;

  while (!done) {
    bool any = false;
    run.meters.Reset();
    for (MachineId m = 0; m < num_slaves_ && !done; ++m) {
      net::Fabric::MeterScope meter(fabric, m, &run.meters);
      std::uint64_t processed_this_round = 0;
      while (!queues[m].empty() &&
             processed_this_round < options_.round_budget && !done) {
        any = true;
        ++processed_this_round;
        // Depth-first order (newly produced tasks are processed first):
        // completing embeddings early lets the max_results cap stop the
        // exploration long before the work cap.
        Task task = std::move(queues[m].back());
        queues[m].pop_back();
        if (++result->partials_expanded > options_.max_partials) {
          result->truncated = true;
          done = true;
          break;
        }
        const PatternNode& qnode = pattern.nodes[task.query_index];
        if (task.op == Op::kExpand) {
          // Enumerate candidates from the anchor's neighborhood.
          const int anchor = qnode.edges_to_earlier.front();
          const CellId anchor_vertex = task.matched[anchor];
          graph_->VisitLocalNode(
              m, anchor_vertex,
              [&](Slice, const CellId* in, std::size_t in_count,
                  const CellId* out, std::size_t out_count) {
                auto consider = [&](CellId u) {
                  if (LabelOf(u) != qnode.label) return;
                  if (std::find(task.matched.begin(), task.matched.end(),
                                u) != task.matched.end()) {
                    return;
                  }
                  Task verify;
                  verify.op = Op::kVerify;
                  verify.query_index = task.query_index;
                  verify.matched = task.matched;
                  verify.matched.push_back(u);
                  route(m, verify, u);
                };
                for (std::size_t i = 0; i < out_count; ++i) consider(out[i]);
                for (std::size_t i = 0; i < in_count; ++i) consider(in[i]);
              });
        } else {
          // Verify the candidate's remaining pattern edges locally.
          const CellId u = task.matched.back();
          bool ok = true;
          for (std::size_t e = 1; e < qnode.edges_to_earlier.size() && ok;
               ++e) {
            ok = adjacent_local(m, u,
                                task.matched[qnode.edges_to_earlier[e]]);
          }
          if (!ok) continue;
          if (task.query_index + 1 == pattern.nodes.size()) {
            ++result->embeddings;
            if (result->embeddings >= options_.max_results) {
              result->truncated = true;
              done = true;
            }
            continue;
          }
          Task expand;
          expand.op = Op::kExpand;
          expand.query_index = task.query_index + 1;
          expand.matched = std::move(task.matched);
          const int next_anchor =
              pattern.nodes[expand.query_index].edges_to_earlier.front();
          route(m, expand, expand.matched[next_anchor]);
        }
      }
    }
    fabric.FlushAll();
    for (MachineId m = 0; m < num_slaves_; ++m) {
      if (!queues[m].empty()) any = true;
    }
    result->modeled_millis +=
        options_.cost_model.PhaseSeconds(run.meters) * 1000.0;
    ++result->rounds;
    if (!any) break;
  }
  return Status::OK();
}

Status SubgraphMatcher::SampleConnectedVertices(int size, std::uint64_t seed,
                                                bool dfs,
                                                std::vector<CellId>* out) {
  Random rng(seed);
  cloud::MemoryCloud* cloud = graph_->cloud();
  const std::uint64_t n = graph_->CountNodes();
  if (n == 0) return Status::InvalidArgument("empty graph");
  auto neighbors = [&](CellId v, std::vector<CellId>* result) {
    result->clear();
    std::vector<CellId> links;
    if (graph_->GetOutlinks(v, &links).ok()) {
      result->insert(result->end(), links.begin(), links.end());
    }
    if (graph_->options().directed && graph_->options().track_inlinks &&
        graph_->GetInlinks(v, &links).ok()) {
      result->insert(result->end(), links.begin(), links.end());
    }
  };
  for (int attempt = 0; attempt < 64; ++attempt) {
    const CellId start = rng.Uniform(n);
    bool start_exists = false;
    if (!cloud->Contains(start, &start_exists).ok() || !start_exists) {
      continue;
    }
    std::vector<CellId> sample{start};
    std::unordered_set<CellId> in_sample{start};
    std::vector<CellId> nbrs;
    while (static_cast<int>(sample.size()) < size) {
      // DFS grows from the most recent vertex; RANDOM from a random one.
      bool extended = false;
      const std::size_t base = dfs ? sample.size() : 0;
      for (std::size_t k = 0; k < sample.size() && !extended; ++k) {
        const std::size_t idx =
            dfs ? (base - 1 - k) : rng.Uniform(sample.size());
        neighbors(sample[idx], &nbrs);
        // Random starting offset so we don't always take the first edge.
        if (nbrs.empty()) continue;
        const std::size_t offset = rng.Uniform(nbrs.size());
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          const CellId u = nbrs[(i + offset) % nbrs.size()];
          if (in_sample.insert(u).second) {
            sample.push_back(u);
            extended = true;
            break;
          }
        }
      }
      if (!extended) break;  // Trapped; retry from another start.
    }
    if (static_cast<int>(sample.size()) == size) {
      *out = std::move(sample);
      return Status::OK();
    }
  }
  return Status::NotFound("could not sample a connected subgraph");
}

SubgraphMatcher::Pattern SubgraphMatcher::PatternFromVertices(
    const std::vector<CellId>& vertices) {
  Pattern pattern;
  pattern.nodes.resize(vertices.size());
  // Materialize each sampled vertex's neighbor set once.
  std::vector<std::unordered_set<CellId>> adjacency(vertices.size());
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    std::vector<CellId> links;
    if (graph_->GetOutlinks(vertices[i], &links).ok()) {
      adjacency[i].insert(links.begin(), links.end());
    }
    if (graph_->options().directed && graph_->options().track_inlinks &&
        graph_->GetInlinks(vertices[i], &links).ok()) {
      adjacency[i].insert(links.begin(), links.end());
    }
  }
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    pattern.nodes[i].label = LabelOf(vertices[i]);
    for (std::size_t j = 0; j < i; ++j) {
      if (adjacency[i].count(vertices[j]) != 0 ||
          adjacency[j].count(vertices[i]) != 0) {
        pattern.nodes[i].edges_to_earlier.push_back(static_cast<int>(j));
      }
    }
  }
  return pattern;
}

const std::vector<std::uint64_t>& SubgraphMatcher::LabelFrequencies() {
  if (!label_frequencies_.empty()) return label_frequencies_;
  label_frequencies_.assign(options_.num_labels, 0);
  net::Fabric& fabric = graph_->cloud()->fabric();
  for (MachineId m = 0; m < num_slaves_; ++m) {
    net::Fabric::MeterScope meter(fabric, m);
    for (CellId v : graph_->LocalNodes(m)) {
      ++label_frequencies_[LabelOf(v)];
    }
  }
  return label_frequencies_;
}

Status SubgraphMatcher::OptimizeMatchOrder(const Pattern& pattern,
                                           Pattern* optimized) {
  const std::size_t n = pattern.nodes.size();
  if (n == 0) return Status::InvalidArgument("empty pattern");
  const std::vector<std::uint64_t>& freq = LabelFrequencies();
  // Reconstruct the full adjacency of the pattern from edges_to_earlier.
  std::vector<std::vector<int>> adjacency(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (int j : pattern.nodes[i].edges_to_earlier) {
      adjacency[i].push_back(j);
      adjacency[j].push_back(static_cast<int>(i));
    }
  }
  auto label_freq = [&](std::size_t i) {
    const std::uint32_t label = pattern.nodes[i].label;
    return label < freq.size() ? freq[label] : 0;
  };
  std::vector<int> order;
  std::vector<bool> placed(n, false);
  // Seed: the rarest label.
  std::size_t seed = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (label_freq(i) < label_freq(seed)) seed = i;
  }
  order.push_back(static_cast<int>(seed));
  placed[seed] = true;
  while (order.size() < n) {
    int best = -1;
    std::size_t best_back_edges = 0;
    std::uint64_t best_freq = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (placed[i]) continue;
      std::size_t back_edges = 0;
      for (int j : adjacency[i]) {
        if (placed[j]) ++back_edges;
      }
      if (back_edges == 0) continue;  // Keep the order connected.
      if (best < 0 || back_edges > best_back_edges ||
          (back_edges == best_back_edges && label_freq(i) < best_freq)) {
        best = static_cast<int>(i);
        best_back_edges = back_edges;
        best_freq = label_freq(i);
      }
    }
    if (best < 0) {
      return Status::InvalidArgument("pattern is not connected");
    }
    order.push_back(best);
    placed[best] = true;
  }
  // Rewrite the pattern in the new order.
  std::vector<int> position(n);
  for (std::size_t p = 0; p < n; ++p) {
    position[order[p]] = static_cast<int>(p);
  }
  optimized->nodes.assign(n, PatternNode{});
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t original = order[p];
    optimized->nodes[p].label = pattern.nodes[original].label;
    for (int neighbor : adjacency[original]) {
      const int neighbor_pos = position[neighbor];
      if (neighbor_pos < static_cast<int>(p)) {
        optimized->nodes[p].edges_to_earlier.push_back(neighbor_pos);
      }
    }
    std::sort(optimized->nodes[p].edges_to_earlier.begin(),
              optimized->nodes[p].edges_to_earlier.end());
    optimized->nodes[p].edges_to_earlier.erase(
        std::unique(optimized->nodes[p].edges_to_earlier.begin(),
                    optimized->nodes[p].edges_to_earlier.end()),
        optimized->nodes[p].edges_to_earlier.end());
  }
  return Status::OK();
}

Status SubgraphMatcher::GenerateDfsQuery(int size, std::uint64_t seed,
                                         Pattern* out) {
  std::vector<CellId> vertices;
  Status s = SampleConnectedVertices(size, seed, /*dfs=*/true, &vertices);
  if (!s.ok()) return s;
  *out = PatternFromVertices(vertices);
  return Status::OK();
}

Status SubgraphMatcher::GenerateRandomQuery(int size, std::uint64_t seed,
                                            Pattern* out) {
  std::vector<CellId> vertices;
  Status s = SampleConnectedVertices(size, seed, /*dfs=*/false, &vertices);
  if (!s.ok()) return s;
  *out = PatternFromVertices(vertices);
  return Status::OK();
}

}  // namespace trinity::algos
