#include "common/threadpool.h"

#include <algorithm>
#include <atomic>

namespace trinity {

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads < 1 ? 1 : num_threads) {
  if (num_threads_ == 1) return;
  workers_.reserve(num_threads_);
  for (int i = 0; i < num_threads_; ++i) {
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

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  const int shards = std::min(n, num_threads());
  std::vector<Shard> plan;
  plan.reserve(shards);
  // Contiguous chunks, one task per shard: shard s covers
  // [s*chunk + min(s,rem), ...) so sizes differ by at most one.
  const int chunk = n / shards;
  const int rem = n % shards;
  for (int s = 0; s < shards; ++s) {
    const int begin = s * chunk + std::min(s, rem);
    plan.push_back({begin, begin + chunk + (s < rem ? 1 : 0)});
  }
  ParallelForShards(plan, [&fn](int, int begin, int end) {
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
  if (total <= 0.0) {
    // Degenerate costs: equal-count chunks.
    const int shards = std::min(n, max_shards);
    const int chunk = n / shards;
    const int rem = n % shards;
    for (int s = 0; s < shards; ++s) {
      const int begin = s * chunk + std::min(s, rem);
      plan.push_back({begin, begin + chunk + (s < rem ? 1 : 0)});
    }
    return plan;
  }
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

void ThreadPool::ParallelForShards(
    const std::vector<Shard>& shards,
    const std::function<void(int, int, int)>& fn) {
  if (shards.empty()) return;
  if (shards.size() == 1 || num_threads() <= 1) {
    for (std::size_t s = 0; s < shards.size(); ++s) {
      fn(static_cast<int>(s), shards[s].begin, shards[s].end);
    }
    return;
  }
  // All completion state lives on this stack frame, so the count must only
  // be touched under done_mu: the waiter can then observe completion only
  // after the finishing worker's last access, making it safe to return and
  // pop the frame.
  std::mutex done_mu;
  std::condition_variable done_cv;
  const int want = static_cast<int>(shards.size());
  int done = 0;
  for (int s = 0; s < want; ++s) {
    const int begin = shards[s].begin;
    const int end = shards[s].end;
    Submit([&, s, begin, end] {
      fn(s, begin, end);
      std::lock_guard<std::mutex> lock(done_mu);
      if (++done == want) done_cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return done == want; });
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& fn,
                             const std::function<double(int)>& cost) {
  if (n <= 0) return;
  if (num_threads() <= 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  const std::vector<Shard> plan = SplitWeighted(n, cost, num_threads() * 4);
  ParallelForShards(plan, [&fn](int, int begin, int end) {
    for (int i = begin; i < end; ++i) fn(i);
  });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (shutdown_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace trinity
