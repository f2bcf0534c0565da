#ifndef TRINITY_COMPUTE_SCHEDULER_H_
#define TRINITY_COMPUTE_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/slice.h"
#include "common/types.h"

namespace trinity::compute {

/// Work-queue policy for the AsyncEngine (GraphLab-style schedulers; see
/// docs/async_scheduling.md):
///  * kFifo     — first-come-first-served. Without a combiner this is the
///                classic per-machine message deque (one entry per message);
///                with one, vertices keep their first-arrival position while
///                later messages fold into the pending delta.
///  * kPriority — highest-priority pending delta first, via an indexed
///                binary heap with change-key. Requires combiner + priority.
///  * kSweep    — round-robin over pending vertex ids in ascending order,
///                resuming after the last popped id. Requires a combiner.
enum class SchedulerMode { kFifo = 0, kPriority = 1, kSweep = 2 };

/// Folds one incoming message into a vertex's accumulated delta. The first
/// message for a vertex is copied in verbatim; the combiner sees every
/// subsequent one. Folds happen in canonical arrival order (deterministic),
/// but programs should use commutative/associative folds (sum, min, max) so
/// every scheduler mode converges to the same answer.
using DeltaCombiner = std::function<void(std::string* accumulated,
                                         Slice message)>;

/// Scheduling priority of a vertex's pending delta — bigger runs sooner
/// (e.g. PageRank residual magnitude, SSSP tentative-distance improvement).
/// `value` is the vertex's current value, empty if never processed.
using PriorityFn = std::function<double(CellId vertex, Slice delta,
                                        Slice value)>;

/// Indexed binary max-heap over (priority, vertex) with change-key: the
/// position map makes PushOrUpdate / Remove O(log n). Ties break toward the
/// smaller vertex id so pop order is a pure function of content — the
/// determinism anchor for priority-mode runs.
class PriorityIndex {
 public:
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  bool Contains(CellId vertex) const { return pos_.count(vertex) > 0; }

  /// Inserts `vertex`, or re-keys it if already present (both increases and
  /// decreases restore the heap invariant).
  void PushOrUpdate(CellId vertex, double priority);

  /// Removes and returns the highest-priority vertex. Precondition: !empty().
  CellId PopTop(double* priority = nullptr);

  /// Removes `vertex` if present; returns whether it was.
  bool Remove(CellId vertex);

  /// Priority of a contained vertex. Precondition: Contains(vertex).
  double PriorityOf(CellId vertex) const;

  /// Element moves performed by sift-up/sift-down since construction — the
  /// heap-maintenance cost counter surfaced in RunStats.
  std::uint64_t ops() const { return ops_; }

 private:
  struct Entry {
    CellId vertex;
    double priority;
  };

  /// Strict ordering: higher priority first, then smaller id.
  bool Before(const Entry& a, const Entry& b) const {
    if (a.priority != b.priority) return a.priority > b.priority;
    return a.vertex < b.vertex;
  }
  void Place(std::size_t i, Entry entry);
  void SiftUp(std::size_t i);
  void SiftDown(std::size_t i);

  std::vector<Entry> heap_;
  std::unordered_map<CellId, std::size_t> pos_;
  std::uint64_t ops_ = 0;
};

/// One machine's pending-work structure for the AsyncEngine: a pluggable
/// queue discipline plus an optional delta cache. With a combiner, incoming
/// messages for a vertex fold into a single accumulated delta, so each
/// vertex holds at most one pending entry; with a priority function, work
/// whose priority falls below `priority_epsilon` is dropped instead of
/// queued (the GraphLab convergence-threshold trick).
///
/// Not thread-safe by design: the engine gives each simulated machine its
/// own scheduler, touched only by that machine's sweep worker and the
/// (serial) packed-payload drain — the same isolation contract as the rest
/// of MachineState.
class VertexScheduler {
 public:
  struct Options {
    SchedulerMode mode = SchedulerMode::kFifo;
    DeltaCombiner combiner;  ///< Empty => raw per-message fifo.
    PriorityFn priority;     ///< Required for kPriority / epsilon dropping.
    double priority_epsilon = 0;
  };

  struct Stats {
    std::uint64_t offered = 0;    ///< Messages delivered to this scheduler.
    std::uint64_t coalesced = 0;  ///< Folded into an existing pending delta.
    std::uint64_t dropped = 0;    ///< Discarded below priority_epsilon.
  };

  /// (Re)configures the discipline. Must be called while empty.
  void Configure(Options options);

  /// Delivers one message for `vertex`. `value` is the vertex's current
  /// value (empty Slice if never processed) — consulted only by the
  /// priority function.
  void Offer(CellId vertex, Slice message, Slice value);

  /// Takes the next unit of work per the configured discipline: the message
  /// (raw fifo) or the accumulated delta (delta cache). Returns false when
  /// no work is pending.
  bool Pop(CellId* vertex, std::string* delta);

  bool empty() const {
    return delta_mode_ ? delta_.empty() : raw_.empty();
  }
  std::size_t size() const {
    return delta_mode_ ? delta_.size() : raw_.size();
  }

  const Stats& stats() const { return stats_; }
  std::uint64_t heap_ops() const { return heap_.ops(); }

 private:
  struct RawUpdate {
    CellId vertex;
    std::string message;
  };

  /// Applies the epsilon threshold; true = keep, false = dropped (counted).
  bool AboveEpsilon(CellId vertex, Slice delta, Slice value);

  Options options_;
  bool delta_mode_ = false;
  Stats stats_;

  /// kFifo without combiner: the pre-scheduler engine's exact discipline.
  std::deque<RawUpdate> raw_;

  /// Delta cache (any mode with a combiner): at most one entry per vertex.
  std::unordered_map<CellId, std::string> delta_;
  /// kFifo + combiner: first-arrival order. May hold stale ids for vertices
  /// whose delta was since dropped — Pop() skips entries absent from the
  /// delta cache, so removal stays O(1).
  std::deque<CellId> fifo_order_;
  /// kPriority: indexed heap keyed by the priority function.
  PriorityIndex heap_;
  /// kSweep: ordered pending set + resume cursor.
  std::set<CellId> sweep_;
  CellId sweep_cursor_ = 0;
};

}  // namespace trinity::compute

#endif  // TRINITY_COMPUTE_SCHEDULER_H_
