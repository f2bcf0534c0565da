#ifndef TRINITY_COMMON_CALL_CONTEXT_H_
#define TRINITY_COMMON_CALL_CONTEXT_H_

#include <atomic>
#include <limits>
#include <string>

#include "common/status.h"

namespace trinity {

namespace net {
class MeterSet;
}  // namespace net

class RetryBudget;

/// Per-request context threaded down the serving path: frontend ->
/// MemoryCloud::RouteOp/MultiRead -> Fabric::Call -> traversal rounds.
///
/// Deadlines are expressed in *simulated* microseconds, the same unit the
/// fabric charges to per-machine CPU meters. Everything that would make a
/// real request slow consumes from the budget deterministically: retry
/// backoff waits, injected straggler delays (net::FaultInjector
/// call_delay), admission-queue waits, and modeled traversal round cost.
/// Once the budget is spent the layers return Status::DeadlineExceeded
/// instead of continuing to retry through a failover.
///
/// A CallContext may also carry a cluster-wide RetryBudget (token bucket);
/// RetryPolicy::Run consults it before every re-attempt so a dead primary
/// cannot trigger a retry storm.
///
/// Thread-safety: Consume/Cancel/queries are safe to call concurrently
/// (the traversal coordinator and fabric callers may share one context).
class CallContext {
 public:
  static constexpr double kNoDeadline =
      std::numeric_limits<double>::infinity();

  CallContext() = default;
  explicit CallContext(double deadline_micros,
                       RetryBudget* retry_budget = nullptr)
      : deadline_micros_(deadline_micros > 0 ? deadline_micros : kNoDeadline),
        retry_budget_(retry_budget) {}

  CallContext(const CallContext&) = delete;
  CallContext& operator=(const CallContext&) = delete;

  bool has_deadline() const { return deadline_micros_ != kNoDeadline; }
  double deadline_micros() const { return deadline_micros_; }
  double consumed_micros() const {
    return consumed_.load(std::memory_order_relaxed);
  }
  double remaining_micros() const {
    return deadline_micros_ - consumed_micros();
  }
  bool expired() const { return has_deadline() && remaining_micros() <= 0; }

  /// Charges `micros` of simulated time against the deadline budget.
  void Consume(double micros) {
    if (micros <= 0) return;
    consumed_.fetch_add(micros, std::memory_order_relaxed);
  }

  /// Marks the request cancelled; in-flight layers observe it at the next
  /// Check() boundary and unwind with Aborted.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    return external_cancel_ != nullptr &&
           external_cancel_->load(std::memory_order_relaxed);
  }

  /// Links an externally owned cancellation flag (e.g. a client token);
  /// must outlive this context. cancelled() is the OR of both flags.
  void set_cancel_token(const std::atomic<bool>* token) {
    external_cancel_ = token;
  }

  RetryBudget* retry_budget() const { return retry_budget_; }
  void set_retry_budget(RetryBudget* budget) { retry_budget_ = budget; }

  /// The meter set of the run this request belongs to (borrowed, may be
  /// null); the fabric charges it on top of its totals.
  net::MeterSet* meters() const { return meters_; }
  void set_meters(net::MeterSet* meters) { meters_ = meters; }

  /// OK while the request may proceed; Aborted once cancelled;
  /// DeadlineExceeded once the simulated budget is spent.
  Status Check() const {
    if (cancelled()) return Status::Aborted("request cancelled");
    if (expired()) {
      return Status::DeadlineExceeded(
          "deadline of " + std::to_string(deadline_micros_) +
          " simulated micros exhausted");
    }
    return Status::OK();
  }

 private:
  double deadline_micros_ = kNoDeadline;
  std::atomic<double> consumed_{0.0};
  std::atomic<bool> cancelled_{false};
  const std::atomic<bool>* external_cancel_ = nullptr;
  RetryBudget* retry_budget_ = nullptr;
  net::MeterSet* meters_ = nullptr;
};

}  // namespace trinity

#endif  // TRINITY_COMMON_CALL_CONTEXT_H_
