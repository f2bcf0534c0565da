#include "common/threadpool.h"

#include <algorithm>

namespace trinity {

namespace {

/// [0, n) as `shards` contiguous chunks whose sizes differ by at most one.
std::vector<ThreadPool::Shard> EqualChunks(int n, int shards) {
  std::vector<ThreadPool::Shard> plan;
  plan.reserve(shards);
  const int chunk = n / shards;
  const int rem = n % shards;
  for (int s = 0; s < shards; ++s) {
    const int begin = s * chunk + std::min(s, rem);
    plan.push_back({begin, begin + chunk + (s < rem ? 1 : 0)});
  }
  return plan;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads > 0
                       ? num_threads
                       : std::max(1, static_cast<int>(
                                         std::thread::hardware_concurrency()))) {
  workers_.reserve(num_threads_ - 1);
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  ParallelForShards(EqualChunks(n, std::min(n, 4 * num_threads())),
                    [&fn](int, int begin, int end) {
                      for (int i = begin; i < end; ++i) fn(i);
                    });
}

std::vector<ThreadPool::Shard> ThreadPool::SplitWeighted(
    int n, const std::function<double(int)>& cost, int max_shards) {
  std::vector<Shard> plan;
  if (n <= 0) return plan;
  if (max_shards < 1) max_shards = 1;
  double total = 0.0;
  std::vector<double> item_cost(n);
  for (int i = 0; i < n; ++i) {
    item_cost[i] = std::max(0.0, cost(i));
    total += item_cost[i];
  }
  if (total <= 0.0) return EqualChunks(n, std::min(n, max_shards));
  // Walk the prefix sum, cutting a shard each time the running cost crosses
  // the next multiple of total/max_shards. Every shard therefore carries at
  // most ideal + one item of cost, and a single huge item gets a shard of
  // its own instead of dragging its neighbors along.
  const double ideal = total / max_shards;
  double acc = 0.0;
  int begin = 0;
  for (int i = 0; i < n; ++i) {
    acc += item_cost[i];
    const int cuts = static_cast<int>(plan.size()) + 1;
    if (acc >= ideal * cuts && i + 1 < n &&
        static_cast<int>(plan.size()) + 1 < max_shards) {
      plan.push_back({begin, i + 1});
      begin = i + 1;
    }
  }
  plan.push_back({begin, n});
  return plan;
}

void ThreadPool::RunShards(Job* job) {
  const int count = static_cast<int>(job->shards->size());
  for (;;) {
    const int s = job->next.fetch_add(1);
    if (s >= count) return;
    const Shard& shard = (*job->shards)[s];
    (*job->fn)(s, shard.begin, shard.end);
  }
}

void ThreadPool::Unlist(Job* job) {
  if (!job->listed) return;
  job->listed = false;
  jobs_.erase(std::find(jobs_.begin(), jobs_.end(), job));
}

void ThreadPool::ParallelForShards(
    const std::vector<Shard>& shards,
    const std::function<void(int, int, int)>& fn) {
  if (shards.empty()) return;
  const int count = static_cast<int>(shards.size());
  if (count == 1 || workers_.empty()) {
    for (int s = 0; s < count; ++s) fn(s, shards[s].begin, shards[s].end);
    return;
  }
  // The caller keeps shard 0 for itself, so it always runs at least one,
  // and wakes only as many workers as there are other shards.
  Job job{&shards, &fn};
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.push_back(&job);
  }
  const int wake = std::min(count - 1, static_cast<int>(workers_.size()));
  for (int i = 0; i < wake; ++i) work_cv_.notify_one();
  fn(0, shards[0].begin, shards[0].end);
  RunShards(&job);
  // Every shard is claimed. A worker joins a job only while it is listed,
  // so after Unlist the helpers count can only fall; each helper finishes
  // its claimed shard and leaves under mu_, which also publishes its writes.
  std::unique_lock<std::mutex> lock(mu_);
  Unlist(&job);
  done_cv_.wait(lock, [&job] { return job.helpers == 0; });
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& fn,
                             const std::function<double(int)>& cost) {
  ParallelForShards(SplitWeighted(n, cost, 4 * num_threads()),
                    [&fn](int, int begin, int end) {
                      for (int i = begin; i < end; ++i) fn(i);
                    });
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return shutdown_ || !jobs_.empty(); });
    if (jobs_.empty()) return;
    Job* job = jobs_.front();
    ++job->helpers;
    lock.unlock();
    RunShards(job);
    lock.lock();
    // Fully claimed: unlist it so no worker joins it again. The caller may
    // pop the job's frame once it sees helpers == 0, so touch it no more.
    Unlist(job);
    if (--job->helpers == 0) done_cv_.notify_all();
  }
}

}  // namespace trinity
