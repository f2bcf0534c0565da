#ifndef TRINITY_SERVING_SERVING_STATS_H_
#define TRINITY_SERVING_SERVING_STATS_H_

#include <cstdint>

namespace trinity::serving {

/// Snapshot of frontend serving counters, taken by QueryFrontend::stats().
/// Counters partition terminal request outcomes: every request the frontend
/// received lands in exactly one of ok / not_found / shed /
/// deadline_exceeded / cancelled / txn_conflicts / unavailable /
/// other_errors. Per-request wall time is QueryFrontend::Response's
/// latency_micros; callers that want percentiles collect those.
struct ServingStats {
  std::uint64_t received = 0;   ///< Requests presented to the frontend.
  std::uint64_t admitted = 0;   ///< Passed admission control.
  std::uint64_t ok = 0;
  std::uint64_t not_found = 0;
  /// ResourceExhausted: shed by admission control (queue full) or denied a
  /// retry by the cluster-wide retry budget.
  std::uint64_t shed = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t cancelled = 0;         ///< Aborted via cancellation token.
  std::uint64_t unavailable = 0;       ///< Terminal Unavailable/TimedOut.
  std::uint64_t other_errors = 0;

  /// Transaction outcomes (ExecuteTransaction). txn_committed/
  /// txn_conflicts are terminal (the latter: optimistic retries exhausted
  /// the deadline or retry budget); txn_conflict_retries counts per-attempt
  /// conflicts that were retried within one request.
  std::uint64_t txn_committed = 0;
  std::uint64_t txn_conflicts = 0;
  std::uint64_t txn_conflict_retries = 0;

  /// Reads served by a replica trunk while the primary was unreachable,
  /// since the frontend was constructed (delta of the cloud's counter).
  std::uint64_t degraded_reads = 0;

  /// Cluster-wide retry-budget activity since construction.
  std::uint64_t retries_granted = 0;
  std::uint64_t retries_denied = 0;
  double retry_budget_tokens = 0.0;
};

}  // namespace trinity::serving

#endif  // TRINITY_SERVING_SERVING_STATS_H_
