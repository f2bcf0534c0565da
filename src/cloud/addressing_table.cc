#include "cloud/addressing_table.h"

#include <algorithm>

#include "common/logging.h"
#include "common/serializer.h"

namespace trinity::cloud {

AddressingTable::AddressingTable(int p_bits, int num_machines)
    : p_bits_(p_bits), version_(1) {
  TRINITY_CHECK(p_bits >= 0 && p_bits <= 20, "unreasonable p_bits");
  TRINITY_CHECK(num_machines >= 1, "need at least one machine");
  const int slots = 1 << p_bits;
  TRINITY_CHECK(slots >= num_machines,
                "need 2^p >= machine count (paper: 2^p > m)");
  slots_.resize(slots);
  for (int i = 0; i < slots; ++i) {
    slots_[i] = static_cast<MachineId>(i % num_machines);
  }
  epochs_.assign(slots, 1);
  replicas_.resize(slots);
}

std::vector<TrunkId> AddressingTable::trunks_of(MachineId machine) const {
  std::vector<TrunkId> result;
  for (int i = 0; i < num_slots(); ++i) {
    if (slots_[i] == machine) result.push_back(i);
  }
  return result;
}

void AddressingTable::MoveTrunk(TrunkId trunk, MachineId to) {
  TRINITY_CHECK(trunk >= 0 && trunk < num_slots(), "trunk out of range");
  slots_[trunk] = to;
  ++epochs_[trunk];
  ++version_;
}

void AddressingTable::SetReplicas(TrunkId trunk,
                                  std::vector<MachineId> replicas) {
  TRINITY_CHECK(trunk >= 0 && trunk < num_slots(), "trunk out of range");
  replicas_[trunk] = std::move(replicas);
  ++version_;
}

bool AddressingTable::AddReplica(TrunkId trunk, MachineId machine) {
  TRINITY_CHECK(trunk >= 0 && trunk < num_slots(), "trunk out of range");
  auto& set = replicas_[trunk];
  if (std::find(set.begin(), set.end(), machine) != set.end()) return false;
  set.push_back(machine);
  ++version_;
  return true;
}

bool AddressingTable::RemoveReplica(TrunkId trunk, MachineId machine) {
  TRINITY_CHECK(trunk >= 0 && trunk < num_slots(), "trunk out of range");
  auto& set = replicas_[trunk];
  auto it = std::find(set.begin(), set.end(), machine);
  if (it == set.end()) return false;
  set.erase(it);
  ++version_;
  return true;
}

int AddressingTable::RemoveReplicaEverywhere(MachineId machine) {
  int removed = 0;
  for (int i = 0; i < num_slots(); ++i) {
    auto& set = replicas_[i];
    auto it = std::find(set.begin(), set.end(), machine);
    if (it != set.end()) {
      set.erase(it);
      ++removed;
    }
  }
  if (removed > 0) ++version_;
  return removed;
}

std::string AddressingTable::Serialize() const {
  BinaryWriter writer;
  writer.PutU32(static_cast<std::uint32_t>(p_bits_));
  writer.PutU64(version_);
  writer.PutU32(static_cast<std::uint32_t>(slots_.size()));
  for (int i = 0; i < num_slots(); ++i) {
    writer.PutI32(slots_[i]);
    writer.PutU64(epochs_[i]);
    writer.PutU32(static_cast<std::uint32_t>(replicas_[i].size()));
    for (MachineId r : replicas_[i]) writer.PutI32(r);
  }
  return writer.Release();
}

Status AddressingTable::Deserialize(Slice data, AddressingTable* out) {
  BinaryReader reader(data);
  std::uint32_t p_bits = 0;
  std::uint64_t version = 0;
  std::uint32_t count = 0;
  if (!reader.GetU32(&p_bits) || !reader.GetU64(&version) ||
      !reader.GetU32(&count)) {
    return Status::Corruption("addressing table header");
  }
  if (p_bits > 20 || count != (1u << p_bits)) {
    return Status::Corruption("addressing table slot count mismatch");
  }
  AddressingTable table;
  table.p_bits_ = static_cast<int>(p_bits);
  table.version_ = version;
  table.slots_.resize(count);
  table.epochs_.resize(count);
  table.replicas_.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t replica_count = 0;
    if (!reader.GetI32(&table.slots_[i]) || !reader.GetU64(&table.epochs_[i]) ||
        !reader.GetU32(&replica_count)) {
      return Status::Corruption("addressing table slot");
    }
    if (replica_count > count) {
      return Status::Corruption("addressing table replica count");
    }
    table.replicas_[i].resize(replica_count);
    for (std::uint32_t r = 0; r < replica_count; ++r) {
      if (!reader.GetI32(&table.replicas_[i][r])) {
        return Status::Corruption("addressing table replica");
      }
    }
  }
  *out = table;
  return Status::OK();
}

}  // namespace trinity::cloud
