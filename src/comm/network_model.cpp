#include "src/comm/network_model.hpp"

#include <algorithm>

namespace compso::comm {

NetworkModel NetworkModel::platform1() {
  // NVLink3 (A100): ~300 GB/s effective per direction per pair; ~2 us sw
  // latency. Slingshot 10: 100 Gbps = 12.5 GB/s line rate per NIC; large
  // collectives achieve ~65% of line rate (protocol + congestion), so the
  // preset stores the achievable figure.
  return NetworkModel("Platform1/Slingshot10",
                      LinkParams{2e-6, 300.0e9},
                      LinkParams{4e-6, 0.65 * 12.5e9});
}

double chunk_pipeline_makespan(std::size_t chunks, double compress_s,
                               double wire_s, double decode_s) noexcept {
  if (chunks == 0) return 0.0;
  const double fill = compress_s + wire_s + decode_s;
  const double beat =
      std::max(compress_s, std::max(wire_s, decode_s));
  return fill + static_cast<double>(chunks - 1) * beat;
}

NetworkModel NetworkModel::platform2() {
  // Slingshot 11: 200 Gbps = 25 GB/s line rate, ~65% achievable.
  return NetworkModel("Platform2/Slingshot11",
                      LinkParams{2e-6, 300.0e9},
                      LinkParams{3e-6, 0.65 * 25.0e9});
}

}  // namespace compso::comm
