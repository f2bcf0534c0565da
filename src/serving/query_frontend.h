#ifndef TRINITY_SERVING_QUERY_FRONTEND_H_
#define TRINITY_SERVING_QUERY_FRONTEND_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cloud/memory_cloud.h"
#include "common/call_context.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/types.h"
#include "graph/graph.h"
#include "query/tql.h"
#include "serving/serving_stats.h"
#include "txn/txn.h"

namespace trinity::serving {

/// The serving front door of the memory cloud (in the spirit of A1's
/// Bing-facing tier): accepts concurrent point-read / write / MultiGet /
/// k-hop / TQL requests, stamps each with a CallContext (deadline +
/// cancellation + cluster-wide retry budget), applies admission control,
/// and dispatches into the cloud. Every request resolves to a terminal
/// status in bounded simulated time:
///
///  * OK / NotFound — the normal answers (reads may be served degraded by
///    a replica while the primary is down; see ServingStats).
///  * DeadlineExceeded — the deadline budget was spent by backoff waits,
///    injected stragglers, or traversal rounds; retry loops stop instead
///    of riding through a failover.
///  * ResourceExhausted — shed at admission (per-machine or global
///    inflight cap) or denied a retry by the token-bucket retry budget.
///  * Aborted — the request's cancellation token fired (or the caller is
///    a fenced, deposed primary).
///  * Unavailable — genuinely terminal: retries exhausted against an
///    unrecoverable owner.
///
/// Execute is thread-safe; concurrency comes from caller threads (the
/// open-loop bench drives one frontend from many workers). Traversal
/// requests (kKHop/kTql) run concurrently too: each query meters into its
/// own net::MeterSet under its own fabric handler id.
class QueryFrontend {
 public:
  struct Options {
    /// Deadline applied when a request carries none (0 = no deadline).
    /// Simulated microseconds, like CallContext.
    double default_deadline_micros = 200000.0;
    /// Admission control: per-machine and global caps on requests in
    /// flight. A request targeting machine m (the owner of its cell) is
    /// shed with ResourceExhausted when m's count or the global count is
    /// at the cap. Batch/traversal requests count only globally.
    int max_inflight_per_machine = 64;
    int max_inflight_total = 256;
    /// Cluster-wide token-bucket retry budget shared by every request
    /// admitted through this frontend. Disable for the retry-storm
    /// ablation (each request then retries to its policy's max_attempts).
    bool enable_retry_budget = true;
    RetryBudget::Options retry_budget;
  };

  enum class RequestType : std::uint8_t {
    kGet = 1,
    kPut = 2,
    kMultiGet = 3,
    kKHop = 4,
    kTql = 5,
  };

  struct Request {
    RequestType type = RequestType::kGet;
    CellId id = 0;                 ///< kGet/kPut/kKHop start vertex.
    std::string payload;           ///< kPut value.
    std::vector<CellId> ids;       ///< kMultiGet batch.
    int hops = 2;                  ///< kKHop depth.
    std::string statement;         ///< kTql statement.
    /// Per-request deadline in simulated micros; 0 uses the frontend
    /// default.
    double deadline_micros = 0.0;
    /// Optional externally owned cancellation flag; must outlive the
    /// request. Checked at every retry/round boundary.
    const std::atomic<bool>* cancel = nullptr;
  };

  struct Response {
    Status status;
    std::string value;                                      ///< kGet.
    std::vector<cloud::MemoryCloud::MultiGetResult> values; ///< kMultiGet.
    std::uint64_t visited = 0;                              ///< kKHop.
    query::Tql::Result tql;                                 ///< kTql.
    double latency_micros = 0.0;  ///< Wall time inside Execute.
  };

  /// `graph` may be null when only point/batch requests are served; kKHop
  /// and kTql then return InvalidArgument. Both pointers are borrowed.
  QueryFrontend(cloud::MemoryCloud* cloud, graph::Graph* graph,
                const Options& options);

  QueryFrontend(const QueryFrontend&) = delete;
  QueryFrontend& operator=(const QueryFrontend&) = delete;

  /// Synchronously executes one request; always fills response->status
  /// (and returns it). Thread-safe.
  Status Execute(const Request& request, Response* response);

  /// Runs `body` inside an optimistic snapshot-isolation transaction with
  /// the frontend's full serving treatment: admission control (global
  /// slot), a CallContext deadline, the cluster-wide retry budget, and a
  /// whole-transaction retry loop. `body` receives a fresh Transaction per
  /// attempt — stage reads/writes through it and return OK to request
  /// Commit (any other status abandons the attempt and is terminal).
  /// Aborted[txn-conflict] commits are retried within the deadline/budget
  /// (contended transactions retry); Aborted[fenced] and every other
  /// terminal status are returned as-is (fenced writes stay terminal).
  /// Thread-safe; deadline_micros 0 uses the frontend default.
  Status ExecuteTransaction(
      const std::function<Status(txn::Transaction&)>& body,
      double deadline_micros = 0.0,
      const std::atomic<bool>* cancel = nullptr);

  ServingStats stats() const;
  RetryBudget* retry_budget() { return retry_budget_.get(); }
  txn::TxnManager* txn_manager() { return &txn_manager_; }

 private:
  /// machine < 0 means "global slot only" (batch/traversal requests).
  Status Admit(MachineId machine);
  void Release(MachineId machine);
  Status Dispatch(const Request& request, CallContext* ctx,
                  Response* response);
  void RecordOutcome(const Status& status);

  cloud::MemoryCloud* const cloud_;
  graph::Graph* const graph_;
  const Options options_;
  std::unique_ptr<RetryBudget> retry_budget_;
  /// Transaction factory/oracle shared by every ExecuteTransaction call
  /// (one per cloud — the timestamp oracle must be unique).
  txn::TxnManager txn_manager_;
  const std::uint64_t degraded_reads_baseline_;

  /// Admission state: inflight counts per machine + global.
  mutable std::mutex admission_mu_;
  std::vector<int> inflight_per_machine_;
  int inflight_total_ = 0;

  struct Counters {
    std::atomic<std::uint64_t> received{0};
    std::atomic<std::uint64_t> admitted{0};
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> not_found{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> deadline_exceeded{0};
    std::atomic<std::uint64_t> cancelled{0};
    std::atomic<std::uint64_t> unavailable{0};
    std::atomic<std::uint64_t> other_errors{0};
    std::atomic<std::uint64_t> txn_committed{0};
    std::atomic<std::uint64_t> txn_conflicts{0};  ///< Terminal conflicts.
    std::atomic<std::uint64_t> txn_conflict_retries{0};
  };
  Counters counters_;
};

}  // namespace trinity::serving

#endif  // TRINITY_SERVING_QUERY_FRONTEND_H_
