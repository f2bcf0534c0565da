#include "storage/memory_storage.h"

#include <string>

#include "common/logging.h"

namespace trinity::storage {

Status MemoryStorage::AttachTrunk(TrunkId trunk_id) {
  std::unique_ptr<MemoryTrunk> trunk;
  Status s = MemoryTrunk::Create(options_.trunk, &trunk);
  if (!s.ok()) return s;
  return AttachTrunk(trunk_id, std::move(trunk));
}

Status MemoryStorage::AttachTrunk(TrunkId trunk_id,
                                  std::unique_ptr<MemoryTrunk> trunk) {
  std::lock_guard<std::mutex> lock(mu_);
  if (trunks_.count(trunk_id) != 0) {
    return Status::AlreadyExists("trunk already hosted");
  }
  trunks_.emplace(trunk_id, std::move(trunk));
  return Status::OK();
}

Status MemoryStorage::DetachTrunk(TrunkId trunk_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (trunks_.erase(trunk_id) == 0) return Status::NotFound("no such trunk");
  return Status::OK();
}

std::shared_ptr<MemoryTrunk> MemoryStorage::trunk(TrunkId trunk_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = trunks_.find(trunk_id);
  return it == trunks_.end() ? nullptr : it->second;
}

std::vector<std::pair<TrunkId, std::shared_ptr<MemoryTrunk>>>
MemoryStorage::PinTrunks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {trunks_.begin(), trunks_.end()};
}

Status MemoryStorage::AttachReplicaTrunk(TrunkId trunk_id) {
  std::unique_ptr<MemoryTrunk> trunk;
  Status s = MemoryTrunk::Create(options_.trunk, &trunk);
  if (!s.ok()) return s;
  return AttachReplicaTrunk(trunk_id, std::move(trunk));
}

Status MemoryStorage::AttachReplicaTrunk(TrunkId trunk_id,
                                         std::unique_ptr<MemoryTrunk> trunk) {
  std::lock_guard<std::mutex> lock(mu_);
  if (trunks_.count(trunk_id) != 0) {
    return Status::AlreadyExists("machine is primary for this trunk");
  }
  replica_trunks_[trunk_id] = std::move(trunk);
  return Status::OK();
}

std::shared_ptr<MemoryTrunk> MemoryStorage::replica_trunk(
    TrunkId trunk_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = replica_trunks_.find(trunk_id);
  return it == replica_trunks_.end() ? nullptr : it->second;
}

Status MemoryStorage::DetachReplicaTrunk(TrunkId trunk_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (replica_trunks_.erase(trunk_id) == 0) {
    return Status::NotFound("no such replica trunk");
  }
  return Status::OK();
}

Status MemoryStorage::PromoteReplicaTrunk(TrunkId trunk_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = replica_trunks_.find(trunk_id);
  if (it == replica_trunks_.end()) {
    return Status::NotFound("no replica to promote");
  }
  if (trunks_.count(trunk_id) != 0) {
    return Status::AlreadyExists("already primary for this trunk");
  }
  trunks_.emplace(trunk_id, std::move(it->second));
  replica_trunks_.erase(it);
  return Status::OK();
}

std::vector<TrunkId> MemoryStorage::replica_trunk_ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TrunkId> ids;
  ids.reserve(replica_trunks_.size());
  for (const auto& [id, trunk] : replica_trunks_) {
    (void)trunk;
    ids.push_back(id);
  }
  return ids;
}

std::uint64_t MemoryStorage::ReplicaFootprintBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [id, trunk] : replica_trunks_) {
    (void)id;
    total += trunk->stats().committed_bytes;
  }
  return total;
}

std::uint64_t MemoryStorage::MemoryFootprintBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [id, trunk] : trunks_) {
    (void)id;
    total += trunk->stats().committed_bytes;
  }
  return total;
}

std::uint64_t MemoryStorage::TotalCellCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [id, trunk] : trunks_) {
    (void)id;
    total += trunk->cell_count();
  }
  return total;
}

MemoryTrunk::Stats MemoryStorage::AggregateTrunkStats() const {
  MemoryTrunk::Stats total;
  for (const auto& [id, trunk] : PinTrunks()) {
    (void)id;
    total += trunk->stats();
  }
  return total;
}

Status MemoryStorage::SaveToTfs(tfs::Tfs* tfs,
                                const std::string& prefix) const {
  for (const auto& [id, trunk] : PinTrunks()) {
    std::string image;
    Status s = trunk->Serialize(&image);
    if (!s.ok()) return s;
    s = tfs->WriteFile(prefix + "/trunk_" + std::to_string(id), Slice(image));
    if (!s.ok()) return s;
  }
  return Status::OK();
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
  for (const auto& [id, trunk] : PinTrunks()) {
    (void)id;
    const MemoryTrunk::Stats stats = trunk->stats();
    if (stats.used_bytes == 0) continue;
    const double wasted = static_cast<double>(stats.dead_bytes +
                                              stats.reserved_slack);
    // A trunk over its memory budget also defragments: the pass doubles as
    // the cold-tier eviction sweep (see MemoryTrunk::DefragmentLocked).
    const bool over_budget = options_.trunk.memory_budget > 0 &&
                             stats.used_bytes > options_.trunk.memory_budget;
    if (over_budget ||
        wasted / static_cast<double>(stats.used_bytes) >=
            options_.defrag_threshold) {
      reclaimed += trunk->Defragment();
    }
  }
  return reclaimed;
}

}  // namespace trinity::storage
