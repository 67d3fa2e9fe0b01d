#include "ofdm/ofdm.h"

namespace flexcore::ofdm {

double network_throughput_mbps(int bits_per_symbol, const double* per_user_per,
                               std::size_t nt) {
  const double rate = per_user_rate_mbps(bits_per_symbol);
  double sum = 0.0;
  for (std::size_t u = 0; u < nt; ++u) {
    sum += rate * (1.0 - per_user_per[u]);
  }
  return sum;
}

std::size_t padded_info_bits(std::size_t requested, int bits_per_symbol) {
  const std::size_t ncbps = coded_bits_per_ofdm_symbol(bits_per_symbol);
  // coded = 2 * (info + 6) must be a multiple of ncbps.
  const std::size_t coded_min = 2 * (requested + 6);
  const std::size_t blocks = (coded_min + ncbps - 1) / ncbps;
  return blocks * ncbps / 2 - 6;
}

}  // namespace flexcore::ofdm
