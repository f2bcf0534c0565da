#include "serving/query_frontend.h"

#include "common/histogram.h"
#include "compute/traversal.h"

namespace trinity::serving {

QueryFrontend::QueryFrontend(cloud::MemoryCloud* cloud, graph::Graph* graph,
                             const Options& options)
    : cloud_(cloud),
      graph_(graph),
      options_(options),
      retry_budget_(options.enable_retry_budget
                        ? std::make_unique<RetryBudget>(options.retry_budget)
                        : nullptr),
      txn_manager_(cloud),
      degraded_reads_baseline_(cloud->recovery_stats().degraded_reads),
      inflight_per_machine_(static_cast<std::size_t>(cloud->num_endpoints()),
                            0) {}

Status QueryFrontend::Admit(MachineId machine) {
  std::lock_guard<std::mutex> lock(admission_mu_);
  if (inflight_total_ >= options_.max_inflight_total ||
      (machine >= 0 &&
       inflight_per_machine_[static_cast<std::size_t>(machine)] >=
           options_.max_inflight_per_machine)) {
    return Status::ResourceExhausted(
        machine >= 0
            ? "admission queue full for machine " + std::to_string(machine)
            : "admission queue full");
  }
  ++inflight_total_;
  if (machine >= 0) {
    ++inflight_per_machine_[static_cast<std::size_t>(machine)];
  }
  return Status::OK();
}

void QueryFrontend::Release(MachineId machine) {
  std::lock_guard<std::mutex> lock(admission_mu_);
  --inflight_total_;
  if (machine >= 0) {
    --inflight_per_machine_[static_cast<std::size_t>(machine)];
  }
}

Status QueryFrontend::Dispatch(const Request& request, CallContext* ctx,
                               Response* response) {
  const MachineId client = cloud_->client_id();
  switch (request.type) {
    case RequestType::kGet:
      return cloud_->GetCellFrom(client, request.id, &response->value, ctx);
    case RequestType::kPut:
      return cloud_->PutCellFrom(client, request.id, Slice(request.payload),
                                 ctx);
    case RequestType::kMultiGet: {
      Status s = cloud_->MultiGet(client, request.ids, &response->values,
                                  ctx);
      if (!s.ok()) return s;
      // Per-id outcomes are in response->values; summarize the batch as the
      // first hard per-id failure so callers (and the terminal-status
      // accounting) see deadline/shed outcomes instead of a hollow OK.
      for (const auto& r : response->values) {
        if (!r.status.ok() && !r.status.IsNotFound()) return r.status;
      }
      return Status::OK();
    }
    case RequestType::kKHop: {
      if (graph_ == nullptr) {
        return Status::InvalidArgument("frontend has no graph attached");
      }
      compute::TraversalEngine engine(graph_);
      compute::TraversalEngine::QueryStats qstats;
      std::uint64_t visited = 0;
      Status s = engine.KHopExplore(
          request.id, request.hops,
          [&visited](CellId, int, Slice) {
            ++visited;
            return true;
          },
          &qstats, ctx);
      response->visited = visited;
      return s;
    }
    case RequestType::kTql: {
      if (graph_ == nullptr) {
        return Status::InvalidArgument("frontend has no graph attached");
      }
      query::Tql tql(graph_);
      return tql.Execute(request.statement, &response->tql, ctx);
    }
  }
  return Status::InvalidArgument("unknown request type");
}

Status QueryFrontend::Execute(const Request& request, Response* response) {
  Stopwatch watch;
  counters_.received.fetch_add(1, std::memory_order_relaxed);
  *response = Response();

  const double deadline = request.deadline_micros > 0.0
                              ? request.deadline_micros
                              : options_.default_deadline_micros;
  CallContext ctx(deadline, retry_budget_.get());
  if (request.cancel != nullptr) ctx.set_cancel_token(request.cancel);

  // Point requests are admitted against their owner machine so one dead or
  // hot owner sheds its own traffic without starving the rest of the
  // cluster; batch and traversal requests hold a global slot only.
  MachineId target = -1;
  if (request.type == RequestType::kGet ||
      request.type == RequestType::kPut) {
    target = cloud_->MachineOf(request.id);
  }

  Status admitted = Admit(target);
  if (!admitted.ok()) {
    response->status = admitted;
    response->latency_micros = watch.ElapsedMicros();
    RecordOutcome(admitted);
    return admitted;
  }
  counters_.admitted.fetch_add(1, std::memory_order_relaxed);

  Status s = Dispatch(request, &ctx, response);
  Release(target);

  response->status = s;
  response->latency_micros = watch.ElapsedMicros();
  RecordOutcome(s);
  return s;
}

Status QueryFrontend::ExecuteTransaction(
    const std::function<Status(txn::Transaction&)>& body,
    double deadline_micros, const std::atomic<bool>* cancel) {
  counters_.received.fetch_add(1, std::memory_order_relaxed);

  const double deadline = deadline_micros > 0.0
                              ? deadline_micros
                              : options_.default_deadline_micros;
  CallContext ctx(deadline, retry_budget_.get());
  if (cancel != nullptr) ctx.set_cancel_token(cancel);

  // Transactions span arbitrary cells, so they hold a global admission
  // slot only (like batch requests).
  Status admitted = Admit(-1);
  if (!admitted.ok()) {
    RecordOutcome(admitted);
    return admitted;
  }
  counters_.admitted.fetch_add(1, std::memory_order_relaxed);

  // Whole-transaction retry loop: Aborted[txn-conflict] is IsRetryable(),
  // so a contended transaction re-runs (fresh snapshot, fresh read set)
  // until it commits or the deadline / retry budget calls time. Every
  // other Aborted flavor — fenced deposed primaries, failed guards,
  // cancellation — stops the loop immediately.
  RetryPolicy::RunHooks hooks;
  hooks.ctx = &ctx;
  hooks.salt = 0x7c15bd4a'9d2e11ULL;
  hooks.charge = [this](double micros) {
    cloud_->fabric().AddCpuMicros(cloud_->client_id(), micros);
  };
  Status s = txn_manager_.policy().Run(hooks, [&](int) {
    txn::Transaction t = txn_manager_.Begin(cloud_->client_id(), &ctx);
    Status bs = body(t);
    if (!bs.ok() && !bs.IsTxnConflict()) return bs;
    Status cs = bs.ok() ? t.Commit() : bs;
    if (cs.IsTxnConflict()) {
      counters_.txn_conflict_retries.fetch_add(1,
                                               std::memory_order_relaxed);
    }
    return cs;
  });
  Release(-1);

  if (s.ok()) counters_.txn_committed.fetch_add(1, std::memory_order_relaxed);
  RecordOutcome(s);
  return s;
}

void QueryFrontend::RecordOutcome(const Status& status) {
  if (status.ok()) {
    counters_.ok.fetch_add(1, std::memory_order_relaxed);
  } else if (status.IsNotFound()) {
    counters_.not_found.fetch_add(1, std::memory_order_relaxed);
  } else if (status.IsResourceExhausted()) {
    counters_.shed.fetch_add(1, std::memory_order_relaxed);
  } else if (status.IsDeadlineExceeded()) {
    counters_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
  } else if (status.IsTxnConflict()) {
    // Terminal conflict: the transaction's optimistic retries ran out of
    // deadline/budget. Distinct from cancellation — callers may re-submit.
    counters_.txn_conflicts.fetch_add(1, std::memory_order_relaxed);
  } else if (status.IsAborted()) {
    counters_.cancelled.fetch_add(1, std::memory_order_relaxed);
  } else if (status.IsRetryable()) {
    counters_.unavailable.fetch_add(1, std::memory_order_relaxed);
  } else {
    counters_.other_errors.fetch_add(1, std::memory_order_relaxed);
  }
}

ServingStats QueryFrontend::stats() const {
  ServingStats out;
  out.received = counters_.received.load(std::memory_order_relaxed);
  out.admitted = counters_.admitted.load(std::memory_order_relaxed);
  out.ok = counters_.ok.load(std::memory_order_relaxed);
  out.not_found = counters_.not_found.load(std::memory_order_relaxed);
  out.shed = counters_.shed.load(std::memory_order_relaxed);
  out.deadline_exceeded =
      counters_.deadline_exceeded.load(std::memory_order_relaxed);
  out.cancelled = counters_.cancelled.load(std::memory_order_relaxed);
  out.unavailable = counters_.unavailable.load(std::memory_order_relaxed);
  out.other_errors = counters_.other_errors.load(std::memory_order_relaxed);
  out.txn_committed = counters_.txn_committed.load(std::memory_order_relaxed);
  out.txn_conflicts = counters_.txn_conflicts.load(std::memory_order_relaxed);
  out.txn_conflict_retries =
      counters_.txn_conflict_retries.load(std::memory_order_relaxed);
  out.degraded_reads =
      cloud_->recovery_stats().degraded_reads - degraded_reads_baseline_;
  if (retry_budget_ != nullptr) {
    out.retries_granted = retry_budget_->granted();
    out.retries_denied = retry_budget_->denied();
    out.retry_budget_tokens = retry_budget_->tokens();
  }
  return out;
}

}  // namespace trinity::serving
