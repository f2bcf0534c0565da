#ifndef TRINITY_NET_COST_MODEL_H_
#define TRINITY_NET_COST_MODEL_H_

#include "net/fabric.h"

namespace trinity::net {

/// Converts one metered phase (CPU microseconds per machine + per-machine
/// NIC traffic, in one MeterSet) into the seconds an m-machine cluster takes.
///
/// All machines of the simulated cluster execute on this single host, so raw
/// wall time says nothing about cluster scaling. Instead the engines meter
/// real work per simulated machine into a MeterSet each run owns (so
/// concurrent runs price independently), and this model recombines it:
///
///   phase_time = max_m cpu(m) / cores
///              + max_m (bytes_in(m) + bytes_out(m)) / bandwidth
///              + max_m (transfers_in(m) + transfers_out(m)) * latency / overlap
///
/// The first term is the compute critical path (machines run in parallel,
/// each with `cores` worker threads). The second is NIC serialization on the
/// busiest machine. The third charges per-transfer latency, damped by
/// `overlap` concurrent requests in flight (one-sided async messaging keeps
/// many transfers outstanding). Defaults approximate the paper's testbed
/// (40 Gbps IPoIB, ~100 us round trips, dual 6-core Xeons).
class CostModel {
 public:
  struct Params {
    double cores_per_machine = 8.0;      ///< Parallel handler threads.
    double bandwidth_bytes_per_us = 500.0;  ///< ~4 Gbps effective.
    double transfer_latency_us = 100.0;
    double transfer_overlap = 16.0;      ///< Concurrent in-flight transfers.
  };

  CostModel() : params_() {}
  explicit CostModel(const Params& params) : params_(params) {}

  /// Modeled seconds for the phase metered in `meters`.
  double PhaseSeconds(const MeterSet& meters) const;

  /// Modeled compute-only seconds (critical-path CPU / cores).
  double ComputeSeconds(const MeterSet& meters) const;

  /// Modeled communication-only seconds.
  double CommSeconds(const MeterSet& meters) const;

  const Params& params() const { return params_; }

 private:
  Params params_;
};

}  // namespace trinity::net

#endif  // TRINITY_NET_COST_MODEL_H_
