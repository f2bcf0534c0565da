#ifndef TRINITY_COMPUTE_BSP_H_
#define TRINITY_COMPUTE_BSP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/threadpool.h"
#include "compute/packed_messages.h"
#include "graph/graph.h"
#include "net/cost_model.h"
#include "tfs/tfs.h"

namespace trinity::compute {

/// Verifies every machine that owns a trunk in `table` is still up. A crash
/// mid-run surfaces as a clean Unavailable instead of the engine silently
/// computing on a shrunken cluster; the caller recovers the cloud and
/// re-runs (restoring from the last checkpoint when configured). `run`
/// names the engine in the message. Shared by the BSP and async engines.
Status CheckClusterHealthy(const cloud::AddressingTable& table,
                           const net::Fabric& fabric, const char* run);

/// Trinity's vertex-centric bulk-synchronous engine (paper §5.3): a
/// computation is a sequence of supersteps; in each superstep every active
/// vertex receives the messages sent to it in the previous superstep, runs
/// the vertex program, sends messages (usually to its out-neighbors — the
/// *restrictive* model), and may vote to halt. A halted vertex is reawakened
/// by an incoming message.
///
/// Execution is parallel at machine granularity (each simulated slave's
/// vertex loop is one shard of a fork-join ParallelFor, like the paper's
/// slaves running vertex programs on all cores); the superstep barrier is
/// the ParallelFor join.
/// Vertex sends append to per-(src,dst) outbox buffers that reach the fabric
/// as one packed payload per pair at the barrier (§4.2 message packing done
/// explicitly), so fabric-mutex traffic is O(machines²) per superstep, not
/// O(messages). The receiver keeps slices of the senders' outboxes (no copy)
/// and unpacks them into dense per-vertex slots: folded in place with a
/// combiner, counting-sorted by slot without one. Inboxes are merged in
/// canonical (source machine, arrival order) order, which makes a parallel
/// run bit-identical to a sequential one for deterministic programs — see
/// docs/parallel_execution.md.
///
/// The engine reports both measured meter totals and the CostModel's modeled
/// cluster seconds — the number the Fig 12(b)/(c) benchmarks plot. Each
/// engine meters into its own net::MeterSet under its own fabric handler id
/// (both released with the engine), so any number of engines — and other
/// workloads — may run on one MemoryCloud at once.
class BspEngine {
 public:
  struct Options {
    int superstep_limit = 64;
    net::CostModel cost_model;
    /// Worker threads for the per-machine vertex loops. 0 = one per
    /// hardware thread; 1 = sequential execution (identical results either
    /// way — see the determinism note above).
    int num_threads = 0;
    /// Optional associative combiner: incoming messages for one vertex are
    /// folded into a single accumulator at the barrier (PageRank's sum),
    /// keeping inboxes O(V) instead of O(E).
    std::function<void(std::string* accumulator, Slice message)> combiner;
    /// Checkpoint every N supersteps to TFS (0 = off). See §6.2: "For BSP
    /// based synchronous computation, we make check points every a few
    /// supersteps."
    int checkpoint_interval = 0;
    tfs::Tfs* tfs = nullptr;
    std::string checkpoint_prefix = "bsp_ckpt";
    /// Optional global aggregator (Pregel-style): per-machine partial
    /// aggregates fold through this associative function at the barrier;
    /// the result is visible to every vertex in the next superstep.
    /// Convergence tests (e.g. PageRank residuals) use this.
    std::function<void(std::string* accumulator, Slice contribution)>
        aggregator;
  };

  /// Execution context handed to the vertex program. The program runs on a
  /// pool worker; everything reachable through the context is owned by the
  /// vertex's machine, so programs need no locking as long as they only
  /// touch state through the context.
  class VertexContext {
   public:
    CellId vertex() const { return vertex_; }
    int superstep() const { return superstep_; }
    /// Node payload and adjacency, zero-copy over trunk memory.
    Slice data() const { return data_; }
    const CellId* out() const { return out_; }
    std::size_t out_count() const { return out_count_; }
    const CellId* in() const { return in_; }
    std::size_t in_count() const { return in_count_; }
    /// Combined/collected messages delivered to this vertex this superstep.
    /// Slices point into the machine's inbox buffers; they are valid only for
    /// the duration of the vertex program.
    const std::vector<Slice>& messages() const { return *messages_; }
    /// Mutable per-vertex state ("local variables" in Fig 10).
    std::string& value() { return *value_; }

    /// Sends a message for delivery at the next superstep.
    void Send(CellId target, Slice message);
    /// Restrictive-model convenience: message to every out-neighbor.
    void SendToAllOut(Slice message);
    /// Votes to halt; the vertex stays inactive until a message arrives.
    void VoteToHalt() { halt_ = true; }

    /// Contributes to the global aggregator (folded at the barrier).
    void Aggregate(Slice contribution);
    /// The aggregated value from the *previous* superstep (empty at
    /// superstep 0 or when no aggregator is configured).
    Slice aggregated() const { return aggregated_; }

   private:
    friend class BspEngine;
    BspEngine* engine_ = nullptr;
    MachineId machine_ = kInvalidMachine;
    CellId vertex_ = kInvalidCell;
    int superstep_ = 0;
    Slice data_;
    const CellId* out_ = nullptr;
    std::size_t out_count_ = 0;
    const CellId* in_ = nullptr;
    std::size_t in_count_ = 0;
    const std::vector<Slice>* messages_ = nullptr;
    std::string* value_ = nullptr;
    Slice aggregated_;
    bool halt_ = false;
  };

  using Program = std::function<void(VertexContext&)>;

  struct RunStats {
    int supersteps = 0;
    double modeled_seconds = 0;  ///< Sum of per-superstep modeled times.
    std::vector<double> superstep_seconds;
    std::uint64_t messages = 0;
    std::uint64_t transfers = 0;
    std::uint64_t bytes = 0;
    int checkpoints_written = 0;
    bool restored_from_checkpoint = false;
    /// Wall milliseconds summed over supersteps, per barrier phase: the
    /// parallel vertex loops, the serial outbox drain (with the aggregator
    /// fold), and the parallel inbox build.
    double compute_ms = 0;
    double drain_ms = 0;
    double finalize_ms = 0;
  };

  BspEngine(graph::Graph* graph, Options options);

  BspEngine(const BspEngine&) = delete;
  BspEngine& operator=(const BspEngine&) = delete;

  /// Runs the program to quiescence (all vertices halted, no messages in
  /// flight) or to the superstep limit. If checkpointing is enabled and a
  /// checkpoint exists under the prefix, execution resumes from it.
  Status Run(const Program& program, RunStats* stats);

  /// Final value of a vertex after Run().
  Status GetValue(CellId vertex, std::string* out) const;

  /// Iterates (vertex, value) over all vertices.
  void ForEachValue(
      const std::function<void(CellId, const std::string&)>& fn) const;

  /// The aggregated value after the last completed superstep.
  const std::string& aggregated() const { return aggregated_; }

 private:
  /// Marks an empty slot-table entry.
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// A message for the next inbox: `len` bytes at `offset` in the arena,
  /// or, for a touched slot (combiner mode), that slot's accumulator.
  struct StagedMessage {
    std::uint32_t slot;
    std::uint32_t len;
    std::uint64_t offset;
  };

  /// A machine's state, dense by slot: slot i is vertices[i]. The first
  /// num_vertices slots are its vertices in LocalNodes order, which fixes
  /// the vertex loop's order and with it send, arrival and fold order. An
  /// id with no vertex here that receives a message or a restored value
  /// gets a later slot: it keeps state and messages but never runs.
  /// Cache-line aligned: the vertex loop writes the tail of machine i's
  /// state (any_active, msg_scratch) while machine i+1's worker reads the
  /// head of its own (vertices, num_vertices) once per vertex.
  struct alignas(64) MachineState {
    std::vector<CellId> vertices;
    std::size_t num_vertices = 0;
    /// CellId -> slot, open addressing with linear probing, at most half
    /// full. Only receives and restores look ids up.
    std::vector<std::uint32_t> slot_table;

    std::vector<std::string> values;
    /// has_value[s]: the slot ran or was restored (GetValue and
    /// ForEachValue skip vertices that never ran).
    std::vector<std::uint8_t> has_value;
    std::vector<std::uint8_t> halted;

    /// Current inbox: slot s's messages, in canonical (source machine asc,
    /// arrival order) order, are inbox[inbox_begin[s], inbox_begin[s + 1]),
    /// slices of `arena` or `acc` that hold until the next barrier.
    std::vector<std::uint32_t> inbox_begin;
    std::vector<Slice> inbox;
    std::string arena;
    /// Combiner mode: slot s's folded message, valid while touched[s].
    std::vector<std::string> acc;
    std::vector<std::uint8_t> touched;
    /// Next inbox in arrival order, before the counting sort by slot.
    std::vector<StagedMessage> staged;

    /// Packed payloads received at the barrier in canonical order: slices
    /// of the senders' outboxes, cleared together after FinalizeInboxes.
    std::vector<Slice> pending;

    /// Per-destination outboxes. Only this machine's worker thread appends
    /// during a superstep; the barrier drains them sequentially.
    std::vector<Outbox> outboxes;

    /// Reused messages() view for the running vertex.
    std::vector<Slice> msg_scratch;

    /// Per-machine partial aggregate for the current superstep. In a real
    /// cluster each machine folds locally and ships one value to the
    /// master at the barrier; the fold function is associative so the
    /// result is identical.
    std::string partial_aggregate;
    bool has_partial_aggregate = false;

    /// Per-machine outcome of the parallel vertex loop.
    Status step_status;
    bool any_active = false;
  };

  /// Slot of `id` on `state`, or kNoSlot.
  static std::uint32_t FindSlot(const MachineState& state, CellId id);
  /// Appends a slot for `id` (the constructor's vertices, then the rare
  /// never-running ids) and enters it into the slot table.
  static std::uint32_t AddSlot(MachineState* state, CellId id);
  /// Counting-sorts `staged` by slot into the inbox (stable, so each slot
  /// keeps canonical arrival order) and resets the combiner's touched flags.
  static void BuildInbox(MachineState* state);

  /// Owner machine of a vertex by the pinned table (BSP runs assume stable
  /// membership).
  MachineId OwnerOf(CellId vertex) const;
  /// Appends the message to machine src's outbox toward the target's owner.
  void SendMessage(MachineId src, CellId target, Slice message);
  /// Keeps one packed payload for machine (fabric handler; unpacked later
  /// by FinalizeInboxes).
  void ReceivePacked(MachineId machine, Slice payload);
  /// Runs the per-machine vertex loops in parallel, drains the outboxes
  /// through the fabric, folds aggregates and builds the next inboxes.
  Status RunSuperstep(const Program& program, int superstep,
                      bool* all_quiet, RunStats* stats);
  /// Drains every (src,dst) outbox: local pairs go straight to the
  /// receiver, remote pairs through Fabric::SendPacked. Canonical order:
  /// src asc, dst asc.
  void FlushOutboxes();
  /// Unpacks pending payloads (in parallel, one worker per destination),
  /// folds or counting-sorts them by slot into the new inboxes, then clears
  /// the pending slices and the outboxes they point into.
  void FinalizeInboxes(bool* any_messages);
  /// Drops every message in flight: outboxes, pending payloads and inboxes
  /// (a run aborted by a crash strands some).
  void DiscardMessages();
  Status WriteCheckpoint(int superstep);
  Status TryRestoreCheckpoint(int* superstep);

  /// Folds a contribution into machine's partial aggregate.
  void AggregateLocal(MachineId machine, Slice contribution);

  graph::Graph* graph_;
  Options options_;
  /// This engine's meters (zeroed per superstep) and handler id.
  net::Fabric::RunScope run_;
  std::vector<MachineState> machines_;
  /// The addressing table pinned at construction; every message routes by
  /// it, lock-free, for the engine's lifetime.
  const std::shared_ptr<const cloud::AddressingTable> table_;
  std::unique_ptr<ThreadPool> pool_;
  std::string aggregated_;
  int num_slaves_;
};

}  // namespace trinity::compute

#endif  // TRINITY_COMPUTE_BSP_H_
