#ifndef TRINITY_COMMON_THREADPOOL_H_
#define TRINITY_COMMON_THREADPOOL_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace trinity {

/// Fork-join worker pool: Trinity slaves run BSP partition jobs and
/// analytics kernels on it, and each ParallelFor call is the barrier that
/// ends a bulk-synchronous phase. A call publishes its shards as one job;
/// the caller and every worker that joins claim the next unstarted shard
/// from an atomic counter, so a worker that wakes late finds the work done
/// instead of holding a chunk nobody else can take. The caller then waits
/// only for the workers that joined. Concurrent calls from several threads
/// are safe, and so is a nested call from fn on the same pool: the inner
/// caller runs its own shards and never waits for an unstarted worker.
class ThreadPool {
 public:
  /// `num_threads` <= 0 means one per hardware thread (at least 1). The
  /// caller of ParallelFor is one of the threads, so the pool starts
  /// num_threads - 1 workers; a one-thread pool runs everything inline.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs fn(i) for i in [0, n) across the pool and returns when every call
  /// has: the call itself is the barrier. The range is cut into
  /// min(n, 4 * num_threads()) equal-count shards of adjacent indices.
  /// n <= 1 and a one-thread pool run inline on the calling thread.
  void ParallelFor(int n, const std::function<void(int)>& fn);

  /// Contiguous index range [begin, end), claimed and run as one unit.
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

  /// Runs fn(shard_index, begin, end) once for every shard and returns when
  /// all have run. Shard indices do not depend on which thread ran a shard,
  /// so callers that need per-worker accumulators index them by shard and
  /// merge after the call returns — the analytics kernels dispatch this
  /// way. A single shard (or empty vector) runs inline. fn must not throw
  /// (errors travel as Status here): workers may still be inside the job.
  void ParallelForShards(const std::vector<Shard>& shards,
                         const std::function<void(int, int, int)>& fn);

  /// Cost-weighted ParallelFor: shards are balanced by caller-supplied
  /// per-item cost instead of item count, with the same 4 * num_threads()
  /// over-partitioning, so an imperfect cost model still spreads. Semantics
  /// otherwise match ParallelFor(n, fn).
  void ParallelFor(int n, const std::function<void(int)>& fn,
                   const std::function<double(int)>& cost);

 private:
  /// One ParallelForShards call, on its caller's stack; listed in jobs_
  /// until its last shard is claimed.
  struct Job {
    const std::vector<Shard>* shards;
    const std::function<void(int, int, int)>* fn;
    std::atomic<int> next{1};  ///< Next unclaimed shard; 0 is the caller's.
    int helpers = 0;           ///< Workers inside RunShards; under mu_.
    bool listed = true;        ///< Still in jobs_; under mu_.
  };

  /// Claims and runs shards until none is left.
  static void RunShards(Job* job);
  /// Drops a fully claimed job from jobs_ (once). Requires mu_.
  void Unlist(Job* job);
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< A job was listed, or shutdown.
  std::condition_variable done_cv_;  ///< Some job's helpers reached zero.
  std::vector<Job*> jobs_;
  std::vector<std::thread> workers_;
  int num_threads_;
  bool shutdown_ = false;
};

}  // namespace trinity

#endif  // TRINITY_COMMON_THREADPOOL_H_
