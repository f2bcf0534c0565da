#include "compute/scheduler.h"

#include <utility>

namespace trinity::compute {

// ---------------------------------------------------------- PriorityIndex

void PriorityIndex::Place(std::size_t i, Entry entry) {
  pos_[entry.vertex] = i;
  heap_[i] = std::move(entry);
}

void PriorityIndex::SiftUp(std::size_t i) {
  Entry entry = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!Before(entry, heap_[parent])) break;
    Place(i, std::move(heap_[parent]));
    ++ops_;
    i = parent;
  }
  Place(i, std::move(entry));
}

void PriorityIndex::SiftDown(std::size_t i) {
  Entry entry = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t best = 2 * i + 1;
    if (best >= n) break;
    if (best + 1 < n && Before(heap_[best + 1], heap_[best])) ++best;
    if (!Before(heap_[best], entry)) break;
    Place(i, std::move(heap_[best]));
    ++ops_;
    i = best;
  }
  Place(i, std::move(entry));
}

void PriorityIndex::PushOrUpdate(CellId vertex, double priority) {
  auto it = pos_.find(vertex);
  if (it == pos_.end()) {
    heap_.push_back(Entry{vertex, priority});
    pos_[vertex] = heap_.size() - 1;
    ++ops_;
    SiftUp(heap_.size() - 1);
    return;
  }
  const std::size_t i = it->second;
  const double old = heap_[i].priority;
  heap_[i].priority = priority;
  ++ops_;
  if (priority > old) {
    SiftUp(i);
  } else if (priority < old) {
    SiftDown(i);
  }
}

CellId PriorityIndex::PopTop(double* priority) {
  const Entry top = heap_.front();
  if (priority != nullptr) *priority = top.priority;
  pos_.erase(top.vertex);
  ++ops_;
  Entry last = std::move(heap_.back());
  heap_.pop_back();
  if (!heap_.empty()) {
    Place(0, std::move(last));
    SiftDown(0);
  }
  return top.vertex;
}

bool PriorityIndex::Remove(CellId vertex) {
  auto it = pos_.find(vertex);
  if (it == pos_.end()) return false;
  const std::size_t i = it->second;
  pos_.erase(it);
  ++ops_;
  Entry last = std::move(heap_.back());
  heap_.pop_back();
  if (i < heap_.size()) {
    // The displaced tail element can violate either direction: sift it up,
    // then down from wherever it settled (one of the two is a no-op).
    const CellId moved = last.vertex;
    Place(i, std::move(last));
    SiftUp(i);
    SiftDown(pos_.at(moved));
  }
  return true;
}

double PriorityIndex::PriorityOf(CellId vertex) const {
  return heap_[pos_.at(vertex)].priority;
}

// --------------------------------------------------------- VertexScheduler

void VertexScheduler::Configure(Options options) {
  options_ = std::move(options);
  delta_mode_ = static_cast<bool>(options_.combiner);
}

bool VertexScheduler::AboveEpsilon(CellId vertex, Slice delta, Slice value) {
  if (options_.priority_epsilon <= 0 || !options_.priority) return true;
  return options_.priority(vertex, delta, value) >= options_.priority_epsilon;
}

void VertexScheduler::Offer(CellId vertex, Slice message, Slice value) {
  ++stats_.offered;
  if (!delta_mode_) {
    // Pre-scheduler discipline: one queue entry per message, epsilon
    // filtering (when configured) applied to the raw message.
    if (!AboveEpsilon(vertex, message, value)) {
      ++stats_.dropped;
      return;
    }
    raw_.push_back(RawUpdate{vertex, message.ToString()});
    return;
  }
  auto it = delta_.find(vertex);
  if (it != delta_.end()) {
    // Coalesce: fold into the one pending entry. The message's Safra
    // deficit was already settled at unpack time, so folding it away here
    // cannot skew termination detection.
    options_.combiner(&it->second, message);
    ++stats_.coalesced;
    if (!AboveEpsilon(vertex, Slice(it->second), value)) {
      // The folded delta sank below the threshold (e.g. cancelling
      // residuals): retire the entry entirely.
      ++stats_.dropped;
      delta_.erase(it);
      if (options_.mode == SchedulerMode::kPriority) heap_.Remove(vertex);
      if (options_.mode == SchedulerMode::kSweep) sweep_.erase(vertex);
      // kFifo leaves its stale fifo_order_ entry for Pop() to skip.
      return;
    }
    if (options_.mode == SchedulerMode::kPriority) {
      heap_.PushOrUpdate(vertex,
                         options_.priority(vertex, Slice(it->second), value));
    }
    return;
  }
  if (!AboveEpsilon(vertex, message, value)) {
    ++stats_.dropped;
    return;
  }
  auto [slot, inserted] = delta_.emplace(vertex, message.ToString());
  (void)inserted;
  switch (options_.mode) {
    case SchedulerMode::kFifo:
      fifo_order_.push_back(vertex);
      break;
    case SchedulerMode::kPriority:
      heap_.PushOrUpdate(
          vertex, options_.priority(vertex, Slice(slot->second), value));
      break;
    case SchedulerMode::kSweep:
      sweep_.insert(vertex);
      break;
  }
}

bool VertexScheduler::Pop(CellId* vertex, std::string* delta) {
  if (!delta_mode_) {
    if (raw_.empty()) return false;
    *vertex = raw_.front().vertex;
    *delta = std::move(raw_.front().message);
    raw_.pop_front();
    return true;
  }
  CellId v = kInvalidCell;
  switch (options_.mode) {
    case SchedulerMode::kFifo: {
      // Skip ids whose delta was epsilon-retired after enqueue.
      for (;;) {
        if (fifo_order_.empty()) return false;
        v = fifo_order_.front();
        fifo_order_.pop_front();
        if (delta_.count(v) > 0) break;
      }
      break;
    }
    case SchedulerMode::kPriority: {
      if (heap_.empty()) return false;
      v = heap_.PopTop();
      break;
    }
    case SchedulerMode::kSweep: {
      if (sweep_.empty()) return false;
      auto it = sweep_.lower_bound(sweep_cursor_);
      if (it == sweep_.end()) it = sweep_.begin();  // Wrap the sweep.
      v = *it;
      sweep_.erase(it);
      sweep_cursor_ = v + 1;
      break;
    }
  }
  auto it = delta_.find(v);
  *vertex = v;
  *delta = std::move(it->second);
  delta_.erase(it);
  return true;
}

}  // namespace trinity::compute
