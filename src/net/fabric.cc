#include "net/fabric.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace trinity::net {

using C = MeterSet::Counters;

void MeterSet::AddTransfer(MachineId src, MachineId dst, std::uint64_t bytes,
                           std::uint64_t transfers) {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  counters_.transfers.fetch_add(transfers, kRelaxed);
  counters_.bytes.fetch_add(bytes, kRelaxed);
  machines_[src].traffic.bytes_out.fetch_add(bytes, kRelaxed);
  machines_[dst].traffic.bytes_in.fetch_add(bytes, kRelaxed);
  machines_[src].traffic.transfers_out.fetch_add(transfers, kRelaxed);
  machines_[dst].traffic.transfers_in.fetch_add(transfers, kRelaxed);
}

PerMachineTraffic MeterSet::traffic() const {
  PerMachineTraffic out;
  for (int m = 0; m < num_machines_; ++m) {
    out.push_back(machines_[m].traffic.Load());
  }
  return out;
}

void MeterSet::Reset() {
  counters_.Reset();
  for (int m = 0; m < num_machines_; ++m) {
    machines_[m].cpu_micros.store(0.0, std::memory_order_relaxed);
    machines_[m].traffic.Reset();
  }
}

double MeterSet::MaxCpuMicros() const {
  double max = 0.0;
  for (int m = 0; m < num_machines_; ++m) max = std::max(max, cpu_micros(m));
  return max;
}

Fabric::Fabric(int num_machines) : Fabric(num_machines, Params()) {}

Fabric::Fabric(int num_machines, Params params)
    : num_machines_(num_machines), params_(params), totals_(num_machines) {
  TRINITY_CHECK(num_machines >= 1, "fabric needs at least one machine");
  async_handlers_.resize(num_machines_);
  sync_handlers_.resize(num_machines_);
  pair_buffers_.resize(static_cast<std::size_t>(num_machines_) *
                       num_machines_);
  machine_up_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<std::size_t>(num_machines_));
  for (int m = 0; m < num_machines_; ++m) {
    machine_up_[m].store(true, std::memory_order_relaxed);
  }
}

void Fabric::RegisterAsyncHandler(MachineId machine, HandlerId id,
                                  AsyncHandler fn) {
  std::lock_guard<std::mutex> lock(mu_);
  async_handlers_[machine][id] = std::move(fn);
}

void Fabric::RegisterSyncHandler(MachineId machine, HandlerId id,
                                 SyncHandler fn) {
  std::lock_guard<std::mutex> lock(mu_);
  sync_handlers_[machine][id] = std::move(fn);
}

void Fabric::UnregisterHandler(HandlerId id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (int m = 0; m < num_machines_; ++m) {
    async_handlers_[m].erase(id);
    sync_handlers_[m].erase(id);
  }
  // The run's meter set may be gone too: drop what it left buffered.
  for (PairBuffer& buf : pair_buffers_) {
    const auto stale = std::remove_if(
        buf.messages.begin(), buf.messages.end(),
        [id](const PackedMessage& msg) { return msg.handler == id; });
    for (auto it = stale; it != buf.messages.end(); ++it) {
      buf.bytes -= it->payload.size() + kFrameOverheadBytes;
      Count(nullptr, &C::dropped, 1);
    }
    buf.messages.erase(stale, buf.messages.end());
  }
}

std::size_t Fabric::num_handlers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (int m = 0; m < num_machines_; ++m) {
    n += async_handlers_[m].size() + sync_handlers_[m].size();
  }
  return n;
}

int Fabric::AdmitSend(MachineId src, MachineId dst, HandlerId id,
                      Slice payload, std::uint64_t count, MeterSet* run,
                      Status* status) {
  *status = Status::OK();
  if (dst < 0 || dst >= num_machines_) {
    *status = Status::InvalidArgument("bad destination machine");
    return 0;
  }
  Count(run, &C::messages, count);
  if (src >= 0 && src < num_machines_ &&
      !machine_up_[src].load(std::memory_order_acquire)) {
    // A crashed machine cannot originate traffic; callers still running on
    // its behalf (e.g. a vertex program mid-superstep) see the failure.
    Count(run, &C::dropped, count);
    *status = Status::Unavailable("source machine is down");
    return 0;
  }
  if (!machine_up_[dst].load(std::memory_order_acquire)) {
    Count(run, &C::dropped, count);
    *status = Status::Unavailable("destination machine is down");
    return 0;
  }
  if (src == dst) Count(run, &C::local_messages, count);
  int copies = 1;
  if (injector_ != nullptr) {
    // One injector event per send, packed or not: a drop silently loses the
    // whole payload (the unit that actually crosses the wire).
    switch (injector_->OnAsyncMessage(src, dst, id)) {
      case FaultInjector::AsyncAction::kDrop:
        Count(run, &C::dropped, count);
        Count(run, &C::injected_drops, 1);
        MaybeTriggerCrashes(src, dst);
        return 0;
      case FaultInjector::AsyncAction::kDuplicate:
        Count(run, &C::injected_duplicates, 1);
        copies = 2;
        break;
      case FaultInjector::AsyncAction::kDeliver:
        break;
    }
  }
  if (src == dst) {
    // Local delivery never touches the wire.
    for (int c = 0; c < copies; ++c) Deliver(src, dst, id, payload, run);
    MaybeTriggerCrashes(src, dst);
    return 0;
  }
  return copies;
}

Status Fabric::SendAsync(MachineId src, MachineId dst, HandlerId id,
                         Slice payload, CallContext* ctx) {
  MeterSet* const run = MetersOf(ctx);
  Status status;
  const int copies = AdmitSend(src, dst, id, payload, 1, run, &status);
  if (copies == 0) return status;
  if (!params_.pack_messages) {
    // Ablation mode: every message is its own physical transfer.
    for (int c = 0; c < copies; ++c) {
      AccountTransfer(src, dst, payload.size() + kFrameOverheadBytes,
                      1, run);
      Deliver(src, dst, id, payload, run);
    }
    MaybeTriggerCrashes(src, dst);
    return Status::OK();
  }
  bool flush_now = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    PairBuffer& buf = pair_buffers_[PairIndex(src, dst)];
    for (int c = 0; c < copies; ++c) {
      buf.messages.push_back(PackedMessage{id, payload.ToString(), run});
      buf.bytes += payload.size() + kFrameOverheadBytes;
    }
    flush_now = buf.bytes >= params_.pack_threshold_bytes;
  }
  if (flush_now) {
    std::unique_lock<std::mutex> lock(mu_);
    FlushPairLocked(src, dst, /*force=*/false);
  }
  MaybeTriggerCrashes(src, dst);
  return Status::OK();
}

Status Fabric::SendPacked(MachineId src, MachineId dst, HandlerId id,
                          Slice payload, std::uint64_t message_count,
                          CallContext* ctx) {
  MeterSet* const run = MetersOf(ctx);
  Status status;
  const int copies =
      AdmitSend(src, dst, id, payload, message_count, run, &status);
  if (copies == 0) return status;
  std::size_t transfers;
  std::size_t wire_bytes;
  if (params_.pack_messages) {
    transfers = payload.empty()
                    ? 1
                    : (payload.size() + params_.pack_threshold_bytes - 1) /
                          params_.pack_threshold_bytes;
    wire_bytes = payload.size() + transfers * kFrameOverheadBytes;
  } else {
    // Ablation baseline: the caller packed in vain — meter it as if every
    // logical message went out framed on its own.
    transfers = message_count > 0 ? message_count : 1;
    wire_bytes = payload.size() + transfers * kFrameOverheadBytes;
  }
  for (int c = 0; c < copies; ++c) {
    AccountTransfer(src, dst, wire_bytes, transfers, run);
    Deliver(src, dst, id, payload, run);
  }
  MaybeTriggerCrashes(src, dst);
  return Status::OK();
}

Status Fabric::Call(MachineId src, MachineId dst, HandlerId id, Slice payload,
                    std::string* response, CallContext* ctx) {
  if (dst < 0 || dst >= num_machines_) {
    return Status::InvalidArgument("bad destination machine");
  }
  if (ctx != nullptr) {
    // A cancelled or already-expired request never touches the wire.
    Status gate = ctx->Check();
    if (!gate.ok()) return gate;
  }
  MeterSet* const run = MetersOf(ctx);
  Count(run, &C::sync_calls, 1);
  if (src >= 0 && src < num_machines_ &&
      !machine_up_[src].load(std::memory_order_acquire)) {
    Count(run, &C::dropped, 1);
    return Status::Unavailable("source machine is down");
  }
  if (!machine_up_[dst].load(std::memory_order_acquire)) {
    Count(run, &C::dropped, 1);
    return Status::Unavailable("destination machine is down");
  }
  if (injector_ != nullptr) {
    // An injected failure happens "on the wire": the handler never runs,
    // exactly as if the request (or its response) was lost.
    Status injected = injector_->OnCall(src, dst, id);
    if (!injected.ok()) {
      Count(run, &C::injected_call_failures, 1);
      MaybeTriggerCrashes(src, dst);
      return injected;
    }
    const double delay = injector_->CallDelayMicros(src, dst, id);
    if (delay > 0.0) {
      // A straggler call: the caller blocks for `delay` simulated micros
      // before the handler runs. Charge the wait to the caller's CPU meter
      // and to the request's deadline budget.
      Count(run, &C::injected_call_delays, 1);
      if (src >= 0 && src < num_machines_) AddCpuMicros(src, delay, run);
      if (ctx != nullptr) {
        if (ctx->has_deadline() && delay >= ctx->remaining_micros()) {
          // The deadline fires mid-wait; abandon the straggler.
          ctx->Consume(ctx->remaining_micros());
          MaybeTriggerCrashes(src, dst);
          return Status::DeadlineExceeded(
              "injected straggler delay outlived the request deadline");
        }
        ctx->Consume(delay);
      }
    }
  }
  SyncHandler handler;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sync_handlers_[dst].find(id);
    if (it == sync_handlers_[dst].end()) {
      return Status::NotFound("no sync handler registered");
    }
    handler = it->second;
  }
  if (src != dst) {
    // Request + response are two physical transfers.
    AccountTransfer(src, dst, payload.size() + kFrameOverheadBytes,
                    1, run);
  } else {
    Count(run, &C::local_messages, 1);
  }
  Status s;
  {
    MeterScope meter(*this, dst, run);
    s = handler(src, payload, response);
  }
  if (src != dst && response != nullptr) {
    AccountTransfer(dst, src, response->size() + kFrameOverheadBytes,
                    1, run);
  }
  MaybeTriggerCrashes(src, dst);
  return s;
}

void Fabric::Flush(MachineId src) {
  std::unique_lock<std::mutex> lock(mu_);
  for (MachineId dst = 0; dst < num_machines_; ++dst) {
    FlushPairLocked(src, dst, /*force=*/false);
  }
}

void Fabric::FlushAll() {
  // Delivering packed messages can enqueue new ones (recursive algorithms),
  // so iterate until the whole fabric drains. FlushAll overrides injected
  // flush delays — it is the fabric-wide barrier.
  for (;;) {
    bool any = false;
    for (MachineId src = 0; src < num_machines_; ++src) {
      for (MachineId dst = 0; dst < num_machines_; ++dst) {
        std::unique_lock<std::mutex> lock(mu_);
        if (!pair_buffers_[PairIndex(src, dst)].messages.empty()) {
          any = true;
          FlushPairLocked(src, dst, /*force=*/true);
        }
      }
    }
    if (!any) return;
  }
}

void Fabric::FlushPairLocked(MachineId src, MachineId dst, bool force) {
  // Precondition: mu_ held by the caller's unique_lock. We move the buffer
  // out, release the lock, and deliver — handlers may legally re-enter
  // SendAsync on this pair.
  PairBuffer& buf = pair_buffers_[PairIndex(src, dst)];
  if (buf.messages.empty()) return;
  MeterSet* const run = buf.messages.front().meters;
  if (!force && injector_ != nullptr && injector_->DelayFlush(src, dst)) {
    // Injected delay: the buffer stays queued until the next FlushAll.
    Count(run, &C::delayed_flushes, 1);
    return;
  }
  std::vector<PackedMessage> batch = std::move(buf.messages);
  std::size_t bytes = buf.bytes;
  buf.messages.clear();
  buf.bytes = 0;
  const bool alive = machine_up_[dst].load(std::memory_order_acquire);
  if (!alive) {
    Count(run, &C::dropped, batch.size());
    return;
  }
  mu_.unlock();
  AccountTransfer(src, dst, bytes, 1, run);
  for (const auto& msg : batch) {
    Deliver(src, dst, msg.handler, Slice(msg.payload), msg.meters);
  }
  mu_.lock();
}

void Fabric::Deliver(MachineId src, MachineId dst, HandlerId id,
                     Slice payload, MeterSet* run) {
  AsyncHandler handler;
  {
    if (!machine_up_[dst].load(std::memory_order_acquire)) {
      Count(run, &C::dropped, 1);
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    auto it = async_handlers_[dst].find(id);
    if (it == async_handlers_[dst].end()) {
      TRINITY_WARN("no async handler %u on machine %d", id, dst);
      return;
    }
    handler = it->second;
  }
  MeterScope meter(*this, dst, run);
  handler(src, payload);
}

void Fabric::SetFaultInjector(FaultInjector* injector) {
  std::lock_guard<std::mutex> lock(mu_);
  injector_ = injector;
}

void Fabric::SetCrashListener(std::function<void(MachineId)> listener) {
  std::lock_guard<std::mutex> lock(mu_);
  crash_listener_ = std::move(listener);
}

void Fabric::MaybeTriggerCrashes(MachineId src, MachineId dst) {
  if (injector_ == nullptr) return;
  for (MachineId m : injector_->NoteMessage(src, dst)) {
    // exchange() makes the down-transition race-free: exactly one caller
    // observes true→false and fires the listener.
    const bool fired = machine_up_[m].exchange(false, std::memory_order_acq_rel);
    if (fired) Count(nullptr, &C::injected_crashes, 1);
    // The listener runs outside mu_ so it may call back into the fabric
    // (e.g. the memory cloud dropping the crashed machine's storage).
    if (fired && crash_listener_) crash_listener_(m);
  }
}

void Fabric::SetMachineDown(MachineId machine) {
  machine_up_[machine].store(false, std::memory_order_release);
  // Messages already queued toward a dead machine will be dropped at flush.
}

void Fabric::SetMachineUp(MachineId machine) {
  machine_up_[machine].store(true, std::memory_order_release);
}

bool Fabric::IsMachineUp(MachineId machine) const {
  if (machine < 0 || machine >= num_machines_) return false;
  return machine_up_[machine].load(std::memory_order_acquire);
}

}  // namespace trinity::net
