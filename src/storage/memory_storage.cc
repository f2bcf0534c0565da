#include "storage/memory_storage.h"

#include <string>

#include "common/logging.h"

namespace trinity::storage {

namespace {

/// The slot for `t` in a snapshot vector under edit, grown to fit.
std::shared_ptr<MemoryTrunk>& SlotOf(
    std::vector<std::shared_ptr<MemoryTrunk>>* v, TrunkId t) {
  if (static_cast<std::size_t>(t) >= v->size()) v->resize(t + 1);
  return (*v)[t];
}

}  // namespace

Status MemoryStorage::AttachTrunk(TrunkId trunk_id) {
  std::unique_ptr<MemoryTrunk> trunk;
  Status s = MemoryTrunk::Create(options_.trunk, &trunk);
  if (!s.ok()) return s;
  return AttachTrunk(trunk_id, std::move(trunk));
}

template <typename Edit>
Status MemoryStorage::Update(Edit&& edit) {
  std::lock_guard<std::mutex> lock(mu_);
  auto next = std::make_shared<Trunks>(*Pin());
  Status s = edit(next.get());
  if (s.ok()) trunks_.store(std::move(next), std::memory_order_release);
  return s;
}

Status MemoryStorage::AttachTrunk(TrunkId trunk_id,
                                  std::unique_ptr<MemoryTrunk> trunk) {
  if (trunk_id < 0) return Status::InvalidArgument("negative trunk id");
  return Update([&](Trunks* next) {
    auto& slot = SlotOf(&next->primary, trunk_id);
    if (slot != nullptr) return Status::AlreadyExists("trunk already hosted");
    slot = std::move(trunk);
    return Status::OK();
  });
}

Status MemoryStorage::DetachTrunk(TrunkId trunk_id) {
  return Update([&](Trunks* next) {
    if (next->primary_at(trunk_id) == nullptr) {
      return Status::NotFound("no such trunk");
    }
    next->primary[trunk_id] = nullptr;
    return Status::OK();
  });
}

Status MemoryStorage::AttachReplicaTrunk(TrunkId trunk_id) {
  std::unique_ptr<MemoryTrunk> trunk;
  Status s = MemoryTrunk::Create(options_.trunk, &trunk);
  if (!s.ok()) return s;
  return AttachReplicaTrunk(trunk_id, std::move(trunk));
}

Status MemoryStorage::AttachReplicaTrunk(TrunkId trunk_id,
                                         std::unique_ptr<MemoryTrunk> trunk) {
  if (trunk_id < 0) return Status::InvalidArgument("negative trunk id");
  return Update([&](Trunks* next) {
    if (next->primary_at(trunk_id) != nullptr) {
      return Status::AlreadyExists("machine is primary for this trunk");
    }
    SlotOf(&next->replica, trunk_id) = std::move(trunk);
    return Status::OK();
  });
}

Status MemoryStorage::DetachReplicaTrunk(TrunkId trunk_id) {
  return Update([&](Trunks* next) {
    if (next->replica_at(trunk_id) == nullptr) {
      return Status::NotFound("no such replica trunk");
    }
    next->replica[trunk_id] = nullptr;
    return Status::OK();
  });
}

Status MemoryStorage::PromoteReplicaTrunk(TrunkId trunk_id) {
  return Update([&](Trunks* next) {
    if (next->replica_at(trunk_id) == nullptr) {
      return Status::NotFound("no replica to promote");
    }
    auto& slot = SlotOf(&next->primary, trunk_id);
    if (slot != nullptr) {
      return Status::AlreadyExists("already primary for this trunk");
    }
    slot = std::move(next->replica[trunk_id]);
    return Status::OK();
  });
}

std::uint64_t MemoryStorage::ReplicaFootprintBytes() const {
  std::uint64_t total = 0;
  for (const auto& trunk : Pin()->replica) {
    if (trunk != nullptr) total += trunk->stats().committed_bytes;
  }
  return total;
}

std::uint64_t MemoryStorage::TotalCellCount() const {
  std::uint64_t total = 0;
  Pin()->ForEachPrimary(
      [&](TrunkId, const MemoryTrunk& trunk) { total += trunk.cell_count(); });
  return total;
}

MemoryTrunk::Stats MemoryStorage::AggregateTrunkStats() const {
  MemoryTrunk::Stats total;
  Pin()->ForEachPrimary(
      [&](TrunkId, const MemoryTrunk& trunk) { total += trunk.stats(); });
  return total;
}

Status MemoryStorage::SaveToTfs(tfs::Tfs* tfs,
                                const std::string& prefix) const {
  Status status;
  Pin()->ForEachPrimary([&](TrunkId id, const MemoryTrunk& trunk) {
    std::string image;
    if (status.ok()) status = trunk.Serialize(&image);
    if (status.ok()) {
      status = tfs->WriteFile(prefix + "/trunk_" + std::to_string(id),
                              Slice(image));
    }
  });
  return status;
}

Status MemoryStorage::LoadTrunkFromTfs(tfs::Tfs* tfs,
                                       const std::string& prefix,
                                       TrunkId trunk_id,
                                       const MemoryTrunk::Options& options,
                                       std::unique_ptr<MemoryTrunk>* out) {
  std::string image;
  Status s =
      tfs->ReadFile(prefix + "/trunk_" + std::to_string(trunk_id), &image);
  if (!s.ok()) return s;
  return MemoryTrunk::Deserialize(Slice(image), options, out);
}

void MemoryStorage::StartDefragDaemon(std::chrono::milliseconds interval) {
  std::lock_guard<std::mutex> lock(daemon_mu_);
  if (daemon_running_) return;
  daemon_stop_ = false;
  daemon_running_ = true;
  defrag_thread_ = std::thread([this, interval] {
    std::unique_lock<std::mutex> lock(daemon_mu_);
    while (!daemon_stop_) {
      daemon_cv_.wait_for(lock, interval,
                          [this] { return daemon_stop_; });
      if (daemon_stop_) break;
      lock.unlock();
      DefragSweep();
      lock.lock();
    }
  });
}

void MemoryStorage::StopDefragDaemon() {
  {
    std::lock_guard<std::mutex> lock(daemon_mu_);
    if (!daemon_running_) return;
    daemon_stop_ = true;
  }
  daemon_cv_.notify_all();
  defrag_thread_.join();
  std::lock_guard<std::mutex> lock(daemon_mu_);
  daemon_running_ = false;
}

std::uint64_t MemoryStorage::DefragSweep() {
  std::uint64_t reclaimed = 0;
  Pin()->ForEachPrimary([&](TrunkId, MemoryTrunk& trunk) {
    const MemoryTrunk::Stats stats = trunk.stats();
    if (stats.used_bytes == 0) return;
    const double wasted = static_cast<double>(stats.dead_bytes +
                                              stats.reserved_slack);
    // A trunk over its memory budget also defragments: the pass doubles as
    // the cold-tier eviction sweep (see MemoryTrunk::DefragmentLocked).
    const bool over_budget = options_.trunk.memory_budget > 0 &&
                             stats.used_bytes > options_.trunk.memory_budget;
    if (over_budget ||
        wasted / static_cast<double>(stats.used_bytes) >=
            options_.defrag_threshold) {
      reclaimed += trunk.Defragment();
    }
  });
  return reclaimed;
}

}  // namespace trinity::storage
