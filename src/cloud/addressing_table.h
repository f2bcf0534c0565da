#ifndef TRINITY_CLOUD_ADDRESSING_TABLE_H_
#define TRINITY_CLOUD_ADDRESSING_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"

namespace trinity::cloud {

/// The shared addressing table (paper §3, Fig 3): 2^p slots, one per memory
/// trunk, each holding the id of the machine currently hosting that trunk.
/// Every machine keeps a replica; the primary lives on the leader and is
/// persisted to TFS before any update commits (§6.2).
///
/// The table is what makes the memory cloud's hashing *consistent*: machines
/// join/leave by reassigning slots, never by rehashing keys.
///
/// With hot-standby replication each slot additionally carries a *fencing
/// epoch* (bumped on every primary change, so a deposed primary's replication
/// traffic is rejected by replicas holding a newer table) and the in-sync
/// replica set — the machines whose replica trunk has applied every
/// acknowledged write and is therefore eligible for promotion or degraded
/// reads.
class AddressingTable {
 public:
  /// Builds a table with 2^p_bits slots spread round-robin over
  /// `num_machines` machines.
  AddressingTable(int p_bits, int num_machines);

  AddressingTable(const AddressingTable&) = default;
  AddressingTable& operator=(const AddressingTable&) = default;

  int p_bits() const { return p_bits_; }
  int num_slots() const { return static_cast<int>(slots_.size()); }

  /// Monotonic version; bumped on every mutation so replicas can detect
  /// staleness.
  std::uint64_t version() const { return version_; }

  MachineId machine_of_trunk(TrunkId trunk) const { return slots_[trunk]; }

  /// Fencing token for one trunk: monotonically bumped whenever the trunk's
  /// primary changes (promotion or migration). Replication messages stamped
  /// with an older epoch are rejected with Aborted.
  std::uint64_t epoch_of_trunk(TrunkId trunk) const { return epochs_[trunk]; }

  /// In-sync replica holders for one trunk (never contains the primary).
  const std::vector<MachineId>& replicas_of_trunk(TrunkId trunk) const {
    return replicas_[trunk];
  }

  /// All trunks currently assigned to `machine`.
  std::vector<TrunkId> trunks_of(MachineId machine) const;

  /// Reassigns one trunk. Bumps the version and the trunk's fencing epoch.
  void MoveTrunk(TrunkId trunk, MachineId to);

  /// Replaces the in-sync replica set for one trunk. Bumps the version.
  void SetReplicas(TrunkId trunk, std::vector<MachineId> replicas);

  /// Adds `machine` to the trunk's in-sync set if absent. Returns whether
  /// the set changed (version bumped only then).
  bool AddReplica(TrunkId trunk, MachineId machine);

  /// Drops `machine` from the trunk's in-sync set. Returns whether it was
  /// present (version bumped only then).
  bool RemoveReplica(TrunkId trunk, MachineId machine);

  /// Drops `machine` from every trunk's in-sync set (machine failure).
  /// Returns the number of sets it was removed from.
  int RemoveReplicaEverywhere(MachineId machine);

  /// Serialized image for TFS persistence and broadcast to replicas.
  std::string Serialize() const;
  static Status Deserialize(Slice data, AddressingTable* out);

  bool operator==(const AddressingTable& other) const {
    return p_bits_ == other.p_bits_ && slots_ == other.slots_ &&
           epochs_ == other.epochs_ && replicas_ == other.replicas_;
  }

 private:
  AddressingTable() = default;

  int p_bits_ = 0;
  std::uint64_t version_ = 0;
  std::vector<MachineId> slots_;
  std::vector<std::uint64_t> epochs_;
  std::vector<std::vector<MachineId>> replicas_;
};

}  // namespace trinity::cloud

#endif  // TRINITY_CLOUD_ADDRESSING_TABLE_H_
