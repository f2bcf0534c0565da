#ifndef TRINITY_NET_FABRIC_H_
#define TRINITY_NET_FABRIC_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/call_context.h"
#include "common/histogram.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "net/fault_injector.h"
#include "net/network_stats.h"

namespace trinity::net {

/// Relaxed-atomic meters: the NetworkStats counters plus, per machine, CPU
/// microseconds and the bytes and transfers crossing its NIC. The fabric
/// keeps one set of lifetime totals; a run owns another (Fabric::RunScope),
/// which the fabric charges on top of the totals, so concurrent runs never
/// see each other's traffic. Only the owner resets a set, between phases.
class MeterSet {
 public:
  TRINITY_ATOMIC_COUNTERS(Counters, NetworkStats,
                          TRINITY_NETWORK_STATS_FIELDS);
  /// Names one counter, e.g. &MeterSet::Counters::messages.
  using Counter = std::atomic<std::uint64_t> Counters::*;

  explicit MeterSet(int num_machines)
      : num_machines_(num_machines),
        machines_(std::make_unique<Machine[]>(num_machines)) {}
  MeterSet(const MeterSet&) = delete;
  MeterSet& operator=(const MeterSet&) = delete;

  void Count(Counter counter, std::uint64_t n) {
    (counters_.*counter).fetch_add(n, std::memory_order_relaxed);
  }
  void AddCpuMicros(MachineId machine, double micros) {
    machines_[machine].cpu_micros.fetch_add(micros, std::memory_order_relaxed);
  }
  /// Charges `transfers` physical transfers of `bytes` on the src→dst wire.
  void AddTransfer(MachineId src, MachineId dst, std::uint64_t bytes,
                   std::uint64_t transfers);

  /// Lock-free snapshots, read at phase boundaries.
  NetworkStats stats() const { return counters_.Load(); }
  PerMachineTraffic traffic() const;
  double cpu_micros(MachineId machine) const {
    return machines_[machine].cpu_micros.load(std::memory_order_relaxed);
  }
  /// Max CPU meter across machines — the modeled critical path.
  double MaxCpuMicros() const;
  void Reset();

 private:
  TRINITY_ATOMIC_COUNTERS(Traffic, MachineTraffic,
                          TRINITY_MACHINE_TRAFFIC_FIELDS);
  struct Machine {
    std::atomic<double> cpu_micros{0.0};
    Traffic traffic;
  };

  const int num_machines_;
  Counters counters_;
  std::unique_ptr<Machine[]> machines_;
};

/// The simulated cluster interconnect: Trinity's message passing framework
/// ("an efficient, one-sided, machine-to-machine message passing
/// infrastructure", §2).
///
/// All machines live in one process; a "send" is a function call into the
/// destination machine's registered handler. What makes the simulation
/// faithful is the accounting: every logical message, every physical transfer
/// after packing, every byte and every CPU microsecond spent inside a
/// machine's handlers is metered per machine, and the CostModel converts the
/// meters into the time an m-machine cluster would have taken. The *relative*
/// results (scaling curves, packing wins, baseline gaps) carry over even
/// though the process runs on one box.
///
/// Two delivery styles mirror the paper:
///  * SendAsync — one-sided fire-and-forget. Small messages to the same
///    destination are queued per (src,dst) pair and packed into a single
///    transfer when the buffer reaches `pack_threshold_bytes` or on Flush.
///  * Call — one-sided request-response (synchronous protocols in TSL).
class Fabric {
 public:
  struct Params {
    /// Pack buffer per (src,dst) pair; a flush emits one physical transfer.
    std::size_t pack_threshold_bytes = 64 * 1024;
    /// Disable packing entirely (ablation baseline: one transfer per msg).
    bool pack_messages = true;
  };

  /// Per-message framing overhead counted on the wire.
  static constexpr std::size_t kFrameOverheadBytes = 16;

  /// Fire-and-forget handler: (source machine, payload).
  using AsyncHandler = std::function<void(MachineId, Slice)>;
  /// Request-response handler: fills *response.
  using SyncHandler =
      std::function<Status(MachineId, Slice, std::string* response)>;

  explicit Fabric(int num_machines);
  Fabric(int num_machines, Params params);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  int num_machines() const { return num_machines_; }

  /// Registers the handler for (machine, handler_id). Re-registration
  /// replaces the previous handler (used when a machine restarts).
  void RegisterAsyncHandler(MachineId machine, HandlerId id, AsyncHandler fn);
  void RegisterSyncHandler(MachineId machine, HandlerId id, SyncHandler fn);

  /// Removes every handler registered under `id`, on every machine, and
  /// drops (and counts) the messages to `id` still buffered.
  void UnregisterHandler(HandlerId id);
  /// Registered handlers across all machines, async and sync.
  std::size_t num_handlers() const;

  /// What one run (an engine run, a query, a snapshot build) owns on the
  /// fabric: a meter set, a context carrying it to every send, and a fresh
  /// handler id — never reused, and unregistered when the scope ends.
  struct RunScope {
    explicit RunScope(Fabric& f)
        : fabric(f),
          meters(f.num_machines()),
          handler(f.next_run_handler_.fetch_add(1, std::memory_order_relaxed)) {
      ctx.set_meters(&meters);
    }
    ~RunScope() { fabric.UnregisterHandler(handler); }
    RunScope(const RunScope&) = delete;
    RunScope& operator=(const RunScope&) = delete;

    Fabric& fabric;
    MeterSet meters;
    CallContext ctx;
    const HandlerId handler;
  };

  // Every send below charges the fabric totals, plus ctx's meter set when
  // `ctx` carries one (CallContext::meters).

  /// One-sided asynchronous message. May be buffered; delivery is guaranteed
  /// by the time Flush(src) / FlushAll() returns. Messages to dead machines
  /// are dropped and counted. A buffered transfer is charged to the meter
  /// set of its first message; each handler's CPU to its own message's.
  Status SendAsync(MachineId src, MachineId dst, HandlerId id, Slice payload,
                   CallContext* ctx = nullptr);

  /// One-sided delivery of a payload that already packs `message_count`
  /// logical messages (the compute engines' per-(src,dst) outboxes, §4.2).
  /// Unlike SendAsync the payload is never buffered: the caller has already
  /// done the packing, so the fabric charges `message_count` logical messages
  /// plus ceil(payload / pack_threshold_bytes) physical transfers (one per
  /// message when packing is ablated away) and delivers immediately. The
  /// attached injector sees one message event per packed payload.
  Status SendPacked(MachineId src, MachineId dst, HandlerId id, Slice payload,
                    std::uint64_t message_count, CallContext* ctx = nullptr);

  /// One-sided synchronous request-response. Returns Unavailable when the
  /// destination machine is down — callers use this to detect failures
  /// (paper §6.2: "machine A ... can detect the failure of machine B").
  ///
  /// `ctx`, when non-null, carries the request's deadline: a cancelled or
  /// expired context short-circuits before touching the wire, and injected
  /// straggler delays (FaultInjector call_delay) are charged against the
  /// remaining budget — a delay the budget cannot afford abandons the call
  /// with DeadlineExceeded instead of waiting out the straggler.
  Status Call(MachineId src, MachineId dst, HandlerId id, Slice payload,
              std::string* response, CallContext* ctx = nullptr);

  /// Delivers every buffered async message from `src` (all destinations).
  void Flush(MachineId src);
  /// Delivers every buffered async message in the fabric.
  void FlushAll();

  /// Simulated machine failure / restart.
  void SetMachineDown(MachineId machine);
  void SetMachineUp(MachineId machine);
  bool IsMachineUp(MachineId machine) const;

  /// Attaches a fault-injection policy (borrowed; may be null to detach).
  /// Every subsequent message event consults it: async messages can be
  /// dropped or duplicated, sync calls can fail without reaching the
  /// destination, pack-buffer flushes can be held back until FlushAll, and
  /// scripted crashes take machines down mid-protocol. All injector
  /// decisions derive from its seed, so runs are replayable.
  void SetFaultInjector(FaultInjector* injector);
  FaultInjector* fault_injector() const { return injector_; }

  /// Called (outside the fabric lock) whenever an injected crash schedule
  /// fires, after the machine has been marked down. The memory cloud hooks
  /// this to drop the crashed machine's storage, mirroring FailMachine.
  void SetCrashListener(std::function<void(MachineId)> listener);

  /// Adds measured CPU time to a machine's meter in the totals and in `run`
  /// (may be null). Handler execution is metered automatically.
  void AddCpuMicros(MachineId machine, double micros,
                    MeterSet* run = nullptr) {
    totals_.AddCpuMicros(machine, micros);
    if (run != nullptr) run->AddCpuMicros(machine, micros);
  }

  /// Lifetime totals since construction; never reset.
  const MeterSet& totals() const { return totals_; }
  NetworkStats stats() const { return totals_.stats(); }
  PerMachineTraffic traffic() const { return totals_.traffic(); }

  /// RAII CPU meter: measures the enclosed scope and charges it to machine,
  /// in the totals and in `run` (may be null).
  class MeterScope {
   public:
    MeterScope(Fabric& fabric, MachineId machine, MeterSet* run = nullptr)
        : fabric_(fabric), machine_(machine), run_(run) {}
    ~MeterScope() {
      fabric_.AddCpuMicros(machine_, watch_.ElapsedMicros(), run_);
    }
    MeterScope(const MeterScope&) = delete;
    MeterScope& operator=(const MeterScope&) = delete;

   private:
    Fabric& fabric_;
    MachineId machine_;
    MeterSet* run_;
    Stopwatch watch_;
  };

 private:
  struct PackedMessage {
    HandlerId handler;
    std::string payload;
    MeterSet* meters;  ///< The sender's run set, or null.
  };

  struct PairBuffer {
    std::vector<PackedMessage> messages;
    std::size_t bytes = 0;
  };

  int PairIndex(MachineId src, MachineId dst) const {
    return src * num_machines_ + dst;
  }

  /// Front half of SendAsync/SendPacked for `count` logical messages:
  /// meters, rejects dead endpoints, applies the injector, delivers locally.
  /// Returns the copies still to send; 0 when done, with *status set.
  int AdmitSend(MachineId src, MachineId dst, HandlerId id, Slice payload,
                std::uint64_t count, MeterSet* run, Status* status);
  /// Charges `n` to one counter of the totals and of `run` (may be null).
  void Count(MeterSet* run, MeterSet::Counter counter, std::uint64_t n) {
    totals_.Count(counter, n);
    if (run != nullptr) run->Count(counter, n);
  }

  /// Delivers one pair buffer as a single physical transfer. When `force` is
  /// false the attached injector may hold the buffer back (delayed flush);
  /// FlushAll forces delivery.
  void FlushPairLocked(MachineId src, MachineId dst, bool force);
  void Deliver(MachineId src, MachineId dst, HandlerId id, Slice payload,
               MeterSet* run);
  /// Charges `transfers` physical transfers of `bytes` on the src→dst wire.
  void AccountTransfer(MachineId src, MachineId dst, std::size_t bytes,
                       std::size_t transfers, MeterSet* run) {
    totals_.AddTransfer(src, dst, bytes, transfers);
    if (run != nullptr) run->AddTransfer(src, dst, bytes, transfers);
  }
  /// Charges one completed message against the injector's crash schedules
  /// and executes any crash that fires. Must be called without mu_ held.
  void MaybeTriggerCrashes(MachineId src, MachineId dst);

  const int num_machines_;
  const Params params_;
  FaultInjector* injector_ = nullptr;
  std::function<void(MachineId)> crash_listener_;

  /// mu_ guards the structural state: handler maps, pack buffers, and the
  /// injector/listener hooks. Liveness flags and all meters are atomics.
  mutable std::mutex mu_;
  std::vector<std::unordered_map<HandlerId, AsyncHandler>> async_handlers_;
  std::vector<std::unordered_map<HandlerId, SyncHandler>> sync_handlers_;
  std::vector<PairBuffer> pair_buffers_;
  std::unique_ptr<std::atomic<bool>[]> machine_up_;
  /// Per-run handler ids start above every fixed and TSL protocol id.
  std::atomic<HandlerId> next_run_handler_{HandlerId{1} << 20};
  MeterSet totals_;
};

/// The meter set `ctx` carries, or null.
inline MeterSet* MetersOf(const CallContext* ctx) {
  return ctx != nullptr ? ctx->meters() : nullptr;
}

}  // namespace trinity::net

#endif  // TRINITY_NET_FABRIC_H_
