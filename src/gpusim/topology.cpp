#include "gpusim/topology.hpp"

#include <algorithm>
#include <stdexcept>

namespace bars::gpusim {

std::string to_string(TransferScheme s) {
  switch (s) {
    case TransferScheme::kNone:
      return "none";
    case TransferScheme::kAMC:
      return "AMC";
    case TransferScheme::kDC:
      return "DC";
    case TransferScheme::kDK:
      return "DK";
  }
  return "?";
}

value_t Link::acquire(value_t ready, value_t duration) {
  const value_t start = std::max(ready, busy_until_);
  busy_until_ = start + duration;
  return busy_until_;
}

Topology::Topology(index_t num_devices, InterconnectSpec spec)
    : num_devices_(num_devices), spec_(spec) {
  if (num_devices <= 0) {
    throw std::invalid_argument("Topology: need at least one device");
  }
  pcie_.resize(static_cast<std::size_t>(num_devices));
}

index_t Topology::socket_of(index_t device) const {
  if (device < 0 || device >= num_devices_) {
    throw std::out_of_range("Topology::socket_of: bad device");
  }
  return device / 2;
}

bool Topology::crosses_qpi(index_t a, index_t b) const {
  return socket_of(a) != socket_of(b);
}

Link& Topology::pcie(index_t device) {
  if (device < 0 || device >= num_devices_) {
    throw std::out_of_range("Topology::pcie: bad device");
  }
  return pcie_[static_cast<std::size_t>(device)];
}

value_t Topology::host_transfer_duration(value_t bytes) const {
  return spec_.pcie_latency_s + bytes / (spec_.pcie_bandwidth_gbs * 1.0e9);
}

value_t Topology::p2p_transfer_duration(value_t bytes, index_t a,
                                        index_t b) const {
  const bool qpi = crosses_qpi(a, b);
  const value_t bw =
      spec_.pcie_bandwidth_gbs * (qpi ? spec_.qpi_derate : 1.0) * 1.0e9;
  return spec_.pcie_latency_s + (qpi ? spec_.qpi_latency_s : 0.0) +
         bytes / bw;
}

void Topology::reset() {
  for (auto& l : pcie_) l.reset();
  qpi_.reset();
}

}  // namespace bars::gpusim
