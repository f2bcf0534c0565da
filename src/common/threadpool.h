#ifndef TRINITY_COMMON_THREADPOOL_H_
#define TRINITY_COMMON_THREADPOOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace trinity {

/// Fixed-size worker pool. Trinity slaves run their message handlers and BSP
/// partition jobs on a pool like this; WaitIdle() gives the bulk-synchronous
/// barrier between supersteps.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks, except that a one-thread pool starts no
  /// OS thread and runs every task inline on the caller.
  void Submit(std::function<void()> task);

  /// Blocks until the queue is empty and all workers are idle.
  void WaitIdle();

  int num_threads() const { return num_threads_; }

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion —
  /// the call itself is the barrier. The range is split into at most
  /// num_threads() contiguous chunks (one task each) so a worker touches a
  /// run of adjacent indices instead of interleaving with its neighbors;
  /// n <= 1 (and a single-thread pool) runs inline on the calling thread.
  /// fn must not call ParallelFor on the same pool (a worker would block
  /// waiting for tasks that only it could run).
  void ParallelFor(int n, const std::function<void(int)>& fn);

  /// Contiguous index range [begin, end) dispatched as one task.
  struct Shard {
    int begin;
    int end;
  };

  /// Splits [0, n) into at most max_shards contiguous shards of
  /// approximately equal *total cost* (caller-supplied per-item cost, e.g. a
  /// vertex's adjacency length). Fixed-size chunks serialize on runs of
  /// heavy items — a power-law graph's hub vertices all land in one chunk —
  /// so cost-balanced splitting is what keeps skewed ParallelFor loops from
  /// degenerating to single-threaded. A shard never exceeds the ideal cost
  /// by more than one item; zero-total-cost ranges fall back to equal-count
  /// chunks.
  static std::vector<Shard> SplitWeighted(
      int n, const std::function<double(int)>& cost, int max_shards);

  /// Runs fn(shard_index, begin, end) for every shard and waits for
  /// completion (one task per shard). Callers that need per-worker
  /// accumulators index them by shard and merge after the call returns —
  /// the analytics kernels dispatch this way. A single shard (or empty
  /// vector) runs inline.
  void ParallelForShards(const std::vector<Shard>& shards,
                         const std::function<void(int, int, int)>& fn);

  /// Cost-weighted ParallelFor: shards are balanced by caller-supplied
  /// per-item cost instead of item count, with mild over-partitioning
  /// (4x num_threads) so an imperfect cost model still spreads. Semantics
  /// otherwise match ParallelFor(n, fn).
  void ParallelFor(int n, const std::function<void(int)>& fn,
                   const std::function<double(int)>& cost);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  int num_threads_;
  int active_ = 0;
  bool shutdown_ = false;
};

}  // namespace trinity

#endif  // TRINITY_COMMON_THREADPOOL_H_
