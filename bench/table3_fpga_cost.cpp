// Table 3 reproduction: single-processing-element FPGA implementation cost
// for FlexCore and FCSD engines at 64-QAM on the XCVU440 (paper synthesis
// numbers drive the model: perfmodel/fpga_model.h), plus the
// derived area-delay products and the caption's overhead ratios.
#include <cstdio>

#include "bench_util.h"
#include "perfmodel/fpga_model.h"

namespace pm = flexcore::perfmodel;
namespace fb = flexcore::bench;

int main() {
  fb::banner("Table 3: single PE on XCVU440-flga2892-3-e, 64-QAM, 16-bit");
  std::printf("%-8s %-10s %-10s %-9s %-9s %-7s %-6s %-10s %-8s\n", "System",
              "Engine", "LogicLUT", "MemLUT", "FF-pairs", "CLB", "DSP48",
              "fmax(MHz)", "Power(W)");
  fb::rule();

  for (std::size_t nt : {8u, 12u}) {
    for (auto kind : {pm::EngineKind::kFlexCore, pm::EngineKind::kFcsd}) {
      const auto pe = pm::paper_pe_resource(kind, nt);
      std::printf("%zux%zu    %-10s %-10d %-9d %-9d %-7d %-6d %-10.1f %-8.3f\n",
                  nt, nt, pm::to_string(kind).c_str(), pe.logic_luts,
                  pe.mem_luts, pe.ff_pairs, pe.clb_slices, pe.dsp48,
                  pe.fmax_mhz, pe.power_w);
    }
  }

  fb::banner("Derived metrics");
  for (std::size_t nt : {8u, 12u}) {
    const auto flex = pm::paper_pe_resource(pm::EngineKind::kFlexCore, nt);
    const auto fcsd = pm::paper_pe_resource(pm::EngineKind::kFcsd, nt);
    const double ratio =
        pm::area_delay_product(flex) / pm::area_delay_product(fcsd);
    std::printf("  %zux%zu: area-delay FlexCore/FCSD = %.3f  (paper: %s)\n",
                nt, nt, ratio, nt == 8 ? "1.737" : "1.578");
    std::printf(
        "         max PEs at 75%% utilization: FlexCore %zu, FCSD %zu\n",
        pm::max_instantiable_pes(flex), pm::max_instantiable_pes(fcsd));
  }

  std::printf("\nSpot-check of §5.3 processing throughput at 5.5 ns, M=32:\n");
  const double clock = 1000.0 / 5.5;
  std::printf("  FlexCore 12x12, 32 paths : %.2f Gbps (paper: 13.09)\n",
              pm::processing_throughput_bps(12, 64, clock, 32, 32) / 1e9);
  std::printf("  FlexCore 12x12, 128 paths: %.2f Gbps (paper: 3.27)\n",
              pm::processing_throughput_bps(12, 64, clock, 128, 32) / 1e9);
  return 0;
}
