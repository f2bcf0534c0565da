#include "net/cost_model.h"

#include <algorithm>

namespace trinity::net {

double CostModel::ComputeSeconds(const MeterSet& meters) const {
  return meters.MaxCpuMicros() / params_.cores_per_machine / 1e6;
}

double CostModel::CommSeconds(const MeterSet& meters) const {
  double max_bytes = 0.0;
  double max_transfers = 0.0;
  for (const MachineTraffic& traffic : meters.traffic()) {
    const double bytes = static_cast<double>(traffic.bytes_in) +
                         static_cast<double>(traffic.bytes_out);
    const double transfers = static_cast<double>(traffic.transfers_in) +
                             static_cast<double>(traffic.transfers_out);
    max_bytes = std::max(max_bytes, bytes);
    max_transfers = std::max(max_transfers, transfers);
  }
  const double serialization_us = max_bytes / params_.bandwidth_bytes_per_us;
  const double latency_us = max_transfers * params_.transfer_latency_us /
                            params_.transfer_overlap;
  return (serialization_us + latency_us) / 1e6;
}

double CostModel::PhaseSeconds(const MeterSet& meters) const {
  return ComputeSeconds(meters) + CommSeconds(meters);
}

}  // namespace trinity::net
