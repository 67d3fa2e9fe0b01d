// FPGA implementation cost model (Table 3 / Fig. 13 reproduction).
//
// We cannot synthesize for the Xilinx Virtex UltraScale XCVU440 in this
// environment, so the model is parameterized with the paper's published
// single-PE synthesis results (Table 3) and evaluates the same derived
// quantities the paper reports: area-delay products, pipelined processing
// throughput (the paper's formula log2|Q|*Nt*fmax / (paths/M)), power at
// 100% utilization, energy per bit, and the extrapolated PE count at 75%
// device utilization.
#pragma once

#include <cstddef>
#include <string>

namespace flexcore::perfmodel {

/// Which detection engine a processing element implements.
enum class EngineKind { kFlexCore, kFcsd };

/// Single-PE implementation cost (Table 3 of the paper, 64-QAM, 16-bit).
struct PeResource {
  EngineKind kind;
  std::size_t nt;        ///< MIMO size (8 or 12)
  int logic_luts;        ///< CLB LUTs as logic
  int mem_luts;          ///< CLB LUTs as memory
  int ff_pairs;          ///< LUT flip-flop pairs
  int clb_slices;
  int dsp48;
  double fmax_mhz;       ///< maximum clock after place & route
  double power_w;        ///< worst-case static+dynamic at 100% utilization
};

/// The paper's Table 3 numbers for a single processing element.
/// Throws std::invalid_argument for unsupported (kind, nt) pairs.
PeResource paper_pe_resource(EngineKind kind, std::size_t nt);

/// Area-delay product: logic LUTs / fmax — the metric reproducing the
/// paper's quoted single-path overheads ("73.7 to 57.8%").
double area_delay_product(const PeResource& pe);

/// XCVU440 device capacity relevant to extrapolation.
struct DeviceCaps {
  int luts = 1266720;
  int dsp48 = 2880;
  double max_utilization = 0.75;  ///< paper's routing-congestion guard [3]
};

/// Largest number of PEs instantiable on the device at max_utilization.
std::size_t max_instantiable_pes(const PeResource& pe,
                                 const DeviceCaps& caps = {});

/// Pipelined processing throughput in bit/s when `paths` Sphere-decoder
/// paths must be evaluated per received vector on `m` instantiated PEs
/// clocked at `clock_mhz`:  each PE retires one path per cycle once the
/// pipeline is full, so a vector takes ceil(paths/m) cycles and carries
/// log2(|Q|) * Nt bits.
double processing_throughput_bps(std::size_t nt, int qam_order,
                                 double clock_mhz, std::size_t paths,
                                 std::size_t m);

/// Energy efficiency in Joules per bit for `m` PEs (power scales linearly
/// with the instantiated PEs, as in the paper's 100%-utilization estimate).
double energy_per_bit(const PeResource& pe, double clock_mhz,
                      int qam_order, std::size_t paths, std::size_t m);

std::string to_string(EngineKind k);

}  // namespace flexcore::perfmodel
