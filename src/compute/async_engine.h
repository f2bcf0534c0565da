#ifndef TRINITY_COMPUTE_ASYNC_ENGINE_H_
#define TRINITY_COMPUTE_ASYNC_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/threadpool.h"
#include "compute/packed_messages.h"
#include "compute/scheduler.h"
#include "graph/graph.h"
#include "net/cost_model.h"
#include "tfs/tfs.h"

namespace trinity::compute {

/// Asynchronous vertex computation (paper §5.3/§6.2): updates are processed
/// as they arrive with no superstep barrier — the model GraphChi supports
/// and Trinity also offers ("Trinity can adopt any computation model").
/// Classic uses: delta-PageRank, asynchronous SSSP relaxation.
///
/// The work queue is a pluggable per-machine `VertexScheduler`
/// (docs/async_scheduling.md): fifo replays the classic message deque, while
/// priority / sweep modes add GraphLab-style delta caching — incoming
/// messages fold into one accumulated delta per vertex via a user combiner,
/// ordered by a user priority function, with sub-`priority_epsilon` work
/// dropped instead of queued.
///
/// Fault tolerance follows §6.2's asynchronous path exactly: checkpoints
/// cannot be cut mid-flight, so the engine periodically issues an
/// interruption signal; every machine pauses after finishing the update in
/// hand; the engine then runs **Safra's termination-detection algorithm**
/// around the machine ring to confirm the system has ceased (no queued work,
/// no in-flight messages), writes a snapshot to TFS, and resumes.
///
/// Safra's algorithm is also what detects the natural end of the run.
class AsyncEngine {
 public:
  struct Options {
    net::CostModel cost_model;
    /// Issue an interruption + snapshot every N processed updates (0 = no
    /// snapshots). Requires tfs.
    std::uint64_t snapshot_interval = 0;
    tfs::Tfs* tfs = nullptr;
    std::string snapshot_prefix = "async_snap";
    /// Updates a machine processes per scheduling slice.
    int batch_size = 256;
    /// Worker threads for the per-machine update sweeps. 0 = one per
    /// hardware thread; 1 = sequential. Results are identical either way:
    /// remote updates travel as packed payloads drained at the sweep
    /// barrier in canonical (source machine, arrival order) order.
    int num_threads = 0;
    /// Safety valve against non-terminating programs. Enforced per update:
    /// each sweep's per-machine budgets are carved out of the remaining
    /// allowance up front (machine 0 first), so a run never processes more
    /// than this many updates. Hitting the valve with work still pending
    /// returns ResourceExhausted naming the limit.
    std::uint64_t max_updates = 100'000'000;
    /// Work-queue discipline. kPriority and kSweep require `combiner`;
    /// kPriority also requires `priority`.
    SchedulerMode scheduler = SchedulerMode::kFifo;
    /// Delta caching: fold all pending messages for a vertex into one
    /// accumulated delta (at most one queue entry per vertex). The handler
    /// then receives the folded delta instead of individual messages.
    DeltaCombiner combiner;
    /// Priority of a pending delta (bigger runs sooner). Used for ordering
    /// in kPriority mode and for epsilon dropping in every mode.
    PriorityFn priority;
    /// With a priority function, pending work whose priority falls below
    /// this threshold is dropped instead of queued (GraphLab's convergence
    /// threshold). 0 disables dropping.
    double priority_epsilon = 0;
  };

  /// Context handed to the update handler.
  class Context {
   public:
    CellId vertex() const { return vertex_; }
    MachineId machine() const { return machine_; }
    Slice data() const { return data_; }
    const CellId* out() const { return out_; }
    std::size_t out_count() const { return out_count_; }
    std::string& value() { return *value_; }

    /// Emits an update for another vertex (processed asynchronously).
    void Send(CellId target, Slice message);

   private:
    friend class AsyncEngine;
    AsyncEngine* engine_ = nullptr;
    MachineId machine_ = kInvalidMachine;
    CellId vertex_ = kInvalidCell;
    Slice data_;
    const CellId* out_ = nullptr;
    std::size_t out_count_ = 0;
    std::string* value_ = nullptr;
  };

  /// Processes one update for one vertex: an individual message (no
  /// combiner) or the vertex's accumulated delta (with one).
  using Handler = std::function<void(Context&, Slice message)>;

  struct RunStats {
    std::uint64_t updates = 0;  ///< Handler invocations.
    /// Logical messages delivered to the schedulers (local + remote),
    /// including those later coalesced or dropped.
    std::uint64_t messages = 0;
    /// Messages folded into an already-pending delta — work the scheduler
    /// retired without a handler invocation.
    std::uint64_t coalesced_updates = 0;
    /// Pending work dropped below priority_epsilon.
    std::uint64_t epsilon_dropped = 0;
    /// Priority-index element moves (heap maintenance cost).
    std::uint64_t heap_ops = 0;
    std::uint64_t wire_bytes = 0;      ///< Fabric payload bytes (remote).
    std::uint64_t wire_transfers = 0;  ///< Fabric physical transfers.
    int safra_probes = 0;        ///< Token rounds launched.
    int safra_rejections = 0;    ///< Probes that found residual activity.
    int snapshots = 0;
    double modeled_seconds = 0;
  };

  AsyncEngine(graph::Graph* graph, Options options);

  AsyncEngine(const AsyncEngine&) = delete;
  AsyncEngine& operator=(const AsyncEngine&) = delete;

  /// Enqueues an initial update before Run().
  Status Seed(CellId vertex, Slice message);

  /// Processes updates until Safra's algorithm certifies termination.
  Status Run(const Handler& handler, RunStats* stats);

  Status GetValue(CellId vertex, std::string* out) const;
  void ForEachValue(
      const std::function<void(CellId, const std::string&)>& fn) const;

 private:
  struct MachineState {
    VertexScheduler scheduler;
    std::unordered_map<CellId, std::string> values;
    /// Safra bookkeeping: message deficit (sent - received) and color.
    std::int64_t deficit = 0;
    bool black = false;
    /// Per-destination outboxes; only this machine's worker appends during
    /// a sweep, the barrier drains them as packed payloads.
    std::vector<Outbox> outboxes;
    /// Per-machine outcome of the parallel sweep.
    Status sweep_status;
    std::uint64_t sweep_updates = 0;
    /// This sweep's update allowance (≤ batch_size; ≤ the global
    /// max_updates remainder).
    std::uint64_t sweep_budget = 0;
  };

  /// Owner machine of a vertex by the pinned table.
  MachineId OwnerOf(CellId vertex) const;
  void SendUpdate(MachineId src, CellId target, Slice message);
  void EnqueueLocal(MachineId machine, CellId target, Slice message);
  /// Drains every (src,dst) outbox through Fabric::SendPacked in canonical
  /// src-asc, dst-asc order (sweep barrier).
  void FlushOutboxes();
  /// One pass of Safra's token around the ring. With `require_idle_queues`
  /// the token certifies global termination (no work, no in-flight
  /// messages); without, it certifies only transport quiescence — the
  /// condition the snapshot path needs while work is merely paused.
  bool SafraProbe(bool require_idle_queues);
  Status WriteSnapshot(int index);
  /// The scheduling loop; Run() wraps it so scheduler counters and fabric
  /// meters land in `stats` on every exit path.
  Status RunLoop(const Handler& handler, RunStats* stats);

  graph::Graph* graph_;
  Options options_;
  /// Set when the Options combination is inconsistent (e.g. priority mode
  /// without a combiner); reported by Run().
  Status config_error_;
  std::vector<MachineState> machines_;
  /// The addressing table pinned at construction (see BspEngine).
  const std::shared_ptr<const cloud::AddressingTable> table_;
  std::unique_ptr<ThreadPool> pool_;
  int num_slaves_;
  /// This engine's meters (zeroed per Run) and handler id.
  net::Fabric::RunScope run_;
};

}  // namespace trinity::compute

#endif  // TRINITY_COMPUTE_ASYNC_ENGINE_H_
