#ifndef TRINITY_NET_NETWORK_STATS_H_
#define TRINITY_NET_NETWORK_STATS_H_

#include <atomic>
#include <cstdint>
#include <vector>

// A counter set is written once, as an X-macro list of names, and expanded
// into a plain snapshot struct (FIELDS(TRINITY_PLAIN_COUNTER)) and its
// relaxed-atomic twin (TRINITY_ATOMIC_COUNTERS) with Load() and Reset().
#define TRINITY_PLAIN_COUNTER(name) std::uint64_t name = 0;
#define TRINITY_COUNTER_ATOMIC_(name) std::atomic<std::uint64_t> name{0};
#define TRINITY_COUNTER_LOAD_(name) \
  out.name = name.load(std::memory_order_relaxed);
#define TRINITY_COUNTER_RESET_(name) name.store(0, std::memory_order_relaxed);
#define TRINITY_ATOMIC_COUNTERS(Name, Plain, FIELDS) \
  struct Name {                                      \
    FIELDS(TRINITY_COUNTER_ATOMIC_)                  \
    Plain Load() const {                             \
      Plain out;                                     \
      FIELDS(TRINITY_COUNTER_LOAD_)                  \
      return out;                                    \
    }                                                \
    void Reset() { FIELDS(TRINITY_COUNTER_RESET_) }  \
  }

namespace trinity::net {

/// Aggregate traffic counters for the simulated interconnect.
///
/// `messages` counts logical one-sided messages; `transfers` counts physical
/// wire transfers after the batcher packed small messages together (paper
/// §4.2: "the system ... automatically pack[s] small messages between two
/// machines into a single transfer"). The gap between the two is exactly the
/// packing win the ablation benchmark measures.
///
/// The injected_* counters are faults manufactured by an attached
/// FaultInjector (all deterministic given the injector's seed). `dropped`
/// also counts injected drops, so the meters stay comparable with and
/// without an injector.
#define TRINITY_NETWORK_STATS_FIELDS(X)                                   \
  X(messages)               /* Logical messages sent. */                  \
  X(transfers)              /* Physical transfers on the wire. */         \
  X(bytes)                  /* Payload + framing bytes moved. */          \
  X(sync_calls)             /* Request-response round trips. */          \
  X(local_messages)         /* Same-machine deliveries (free). */         \
  X(dropped)                /* Messages to dead machines. */              \
  X(injected_drops)                                                       \
  X(injected_duplicates)                                                  \
  X(injected_call_failures)                                               \
  X(injected_crashes)                                                     \
  X(delayed_flushes)                                                      \
  X(injected_call_delays)   /* Sync calls slowed in flight. */

struct NetworkStats {
  TRINITY_NETWORK_STATS_FIELDS(TRINITY_PLAIN_COUNTER)
};

/// Failover/recovery observability for the replicated memory cloud. All
/// times are *simulated* microseconds (the fabric's CPU meter), so they are
/// deterministic for a given fault-injector seed. Cumulative since the cloud
/// was created; read through MemoryCloud::recovery_stats(). fenced_writes is
/// the split-brain counter: writes rejected for a stale fencing epoch (a
/// stale primary's ack path shows up here).
#define TRINITY_RECOVERY_STATS_FIELDS(X)                                      \
  X(promotions)         /* Replica trunks promoted to primary. */             \
  X(last_promote_micros)  /* Detection to the epoch bump of the last one. */  \
  X(last_full_replication_micros)  /* Detection to full replication. */       \
  X(bytes_rereplicated) /* Trunk-image bytes re-shipped. */                   \
  X(trunks_rereplicated)                                                      \
  X(degraded_reads)     /* Reads served by a replica trunk. */                \
  X(fenced_writes)                                                            \
  X(tfs_fallback_reloads)  /* Reloads from TFS: every replica was lost. */

struct RecoveryStats {
  TRINITY_RECOVERY_STATS_FIELDS(TRINITY_PLAIN_COUNTER)
};

/// Traffic across one machine's NIC: a machine's modeled communication time
/// depends on the bytes and transfers crossing *its* NIC.
#define TRINITY_MACHINE_TRAFFIC_FIELDS(X) \
  X(bytes_in) X(bytes_out) X(transfers_in) X(transfers_out)

struct MachineTraffic {
  TRINITY_MACHINE_TRAFFIC_FIELDS(TRINITY_PLAIN_COUNTER)
};

/// Per-machine traffic view used by the cost model, indexed by machine.
using PerMachineTraffic = std::vector<MachineTraffic>;

}  // namespace trinity::net

#endif  // TRINITY_NET_NETWORK_STATS_H_
