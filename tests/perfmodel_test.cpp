// Tests for the FPGA cost model, LTE timing model and fixed-point layer.
#include <gtest/gtest.h>

#include <cmath>

#include "perfmodel/fixed_point.h"
#include "perfmodel/fpga_model.h"
#include "perfmodel/lte_model.h"

namespace pm = flexcore::perfmodel;

// -------------------------------------------------------------- FPGA model

TEST(FpgaModel, Table3ValuesExposed) {
  const auto flex8 = pm::paper_pe_resource(pm::EngineKind::kFlexCore, 8);
  EXPECT_EQ(flex8.logic_luts, 3206);
  EXPECT_EQ(flex8.dsp48, 16);
  EXPECT_NEAR(flex8.fmax_mhz, 312.5, 1e-9);
  const auto fcsd12 = pm::paper_pe_resource(pm::EngineKind::kFcsd, 12);
  EXPECT_EQ(fcsd12.clb_slices, 10501);
  EXPECT_NEAR(fcsd12.power_w, 9.04, 1e-9);
  EXPECT_THROW(pm::paper_pe_resource(pm::EngineKind::kFlexCore, 16),
               std::invalid_argument);
}

TEST(FpgaModel, AreaDelayOverheadMatchesPaperRatios) {
  // Table 3 caption: FlexCore's path increases area-delay product by ~73.7%
  // (Nt=8) and ~57.8% (Nt=12) over the FCSD.
  const double r8 =
      pm::area_delay_product(
          pm::paper_pe_resource(pm::EngineKind::kFlexCore, 8)) /
      pm::area_delay_product(pm::paper_pe_resource(pm::EngineKind::kFcsd, 8));
  const double r12 =
      pm::area_delay_product(
          pm::paper_pe_resource(pm::EngineKind::kFlexCore, 12)) /
      pm::area_delay_product(pm::paper_pe_resource(pm::EngineKind::kFcsd, 12));
  EXPECT_NEAR(r8, 1.737, 0.05);
  EXPECT_NEAR(r12, 1.578, 0.05);
}

TEST(FpgaModel, ThroughputMatchesPaperSpotChecks) {
  // §5.3: at 5.5 ns (181.8 MHz) and M = 32 PEs, FlexCore reaches 13.09 Gbps
  // for 32 paths and 3.27 Gbps for 128 paths (12x12, 64-QAM).
  const double clock = 1000.0 / 5.5;  // MHz
  EXPECT_NEAR(pm::processing_throughput_bps(12, 64, clock, 32, 32) / 1e9,
              13.09, 0.02);
  EXPECT_NEAR(pm::processing_throughput_bps(12, 64, clock, 128, 32) / 1e9,
              3.27, 0.01);
}

TEST(FpgaModel, ThroughputScalesWithPes) {
  const double t1 = pm::processing_throughput_bps(8, 64, 300.0, 64, 1);
  const double t64 = pm::processing_throughput_bps(8, 64, 300.0, 64, 64);
  EXPECT_NEAR(t64 / t1, 64.0, 1e-9);
  EXPECT_EQ(pm::processing_throughput_bps(8, 64, 300.0, 64, 0), 0.0);
}

TEST(FpgaModel, EnergyPerBitFlatWhilePathsDivideEvenly) {
  // J/bit = M * P * ceil(paths/M) / (bits * f): constant when M divides the
  // path count, rising slightly on ragged splits.
  const auto pe = pm::paper_pe_resource(pm::EngineKind::kFlexCore, 12);
  const double clock = 1000.0 / 5.5;
  const double e1 = pm::energy_per_bit(pe, clock, 64, 128, 1);
  const double e2 = pm::energy_per_bit(pe, clock, 64, 128, 2);
  const double e128 = pm::energy_per_bit(pe, clock, 64, 128, 128);
  EXPECT_NEAR(e1, e2, 1e-12);
  EXPECT_NEAR(e1, e128, 1e-12);
  // Ragged: M = 96 -> ceil(128/96) = 2 cycles for 96 PEs -> worse J/bit.
  EXPECT_GT(pm::energy_per_bit(pe, clock, 64, 128, 96), e1);
}

TEST(FpgaModel, FcsdNeedsMoreEnergyForSameNetworkThroughput) {
  // Fig. 13's conclusion: under equal network-throughput requirements
  // (FlexCore 128 paths vs FCSD 4096 paths for 12x12 64-QAM at
  // PER_ML = 0.01), the FCSD spends far more J/bit.
  const auto flex = pm::paper_pe_resource(pm::EngineKind::kFlexCore, 12);
  const auto fcsd = pm::paper_pe_resource(pm::EngineKind::kFcsd, 12);
  const double clock = 1000.0 / 5.5;
  const double e_flex = pm::energy_per_bit(flex, clock, 64, 128, 32);
  const double e_fcsd = pm::energy_per_bit(fcsd, clock, 64, 4096, 32);
  EXPECT_GT(e_fcsd / e_flex, 10.0);
  EXPECT_LT(e_fcsd / e_flex, 40.0);  // paper reports up to 28.8x
}

TEST(FpgaModel, MaxInstantiablePesRespectsBudgets) {
  const auto pe = pm::paper_pe_resource(pm::EngineKind::kFlexCore, 12);
  const std::size_t m = pm::max_instantiable_pes(pe);
  EXPECT_GE(m, 1u);
  // LUT-bound: 0.75 * 1266720 / (5795 + 28810) ~ 27.
  EXPECT_NEAR(static_cast<double>(m), 27.0, 2.0);
  // A tiny device still yields at least one PE.
  pm::DeviceCaps tiny;
  tiny.luts = 100;
  tiny.dsp48 = 1;
  EXPECT_EQ(pm::max_instantiable_pes(pe, tiny), 1u);
}

// --------------------------------------------------------------- LTE model

TEST(LteModel, ModeTableSane) {
  EXPECT_EQ(pm::kLteModes.size(), 6u);
  EXPECT_EQ(pm::kLteModes.front().occupied_subcarriers, 76u);
  EXPECT_EQ(pm::kLteModes.back().occupied_subcarriers, 1200u);
  for (std::size_t i = 1; i < pm::kLteModes.size(); ++i) {
    EXPECT_GT(pm::kLteModes[i].occupied_subcarriers,
              pm::kLteModes[i - 1].occupied_subcarriers);
  }
}

TEST(LteModel, VectorsPerSlot) {
  EXPECT_EQ(pm::vectors_per_slot(pm::kLteModes[0]), 7u * 76u);
  EXPECT_EQ(pm::vectors_per_slot(pm::kLteModes[5]), 7u * 1200u);
}

TEST(LteModel, SupportedPathsShrinkWithBandwidth) {
  const double rate = 2e9;  // paths/second
  std::size_t prev = SIZE_MAX;
  for (const auto& mode : pm::kLteModes) {
    const std::size_t paths = pm::supported_paths(rate, mode);
    EXPECT_LT(paths, prev);
    prev = paths;
  }
  // Spot value: 2e9 * 500e-6 / (7 * 1200) = 119 paths at 20 MHz.
  EXPECT_EQ(pm::supported_paths(rate, pm::kLteModes[5]), 119u);
}

TEST(LteModel, FcsdFeasibilityLevels) {
  // Budget that affords 64..4095 paths at 1.25 MHz -> L = 1 only.
  const auto& narrow = pm::kLteModes[0];
  const double rate_l1 =
      65.0 * static_cast<double>(pm::vectors_per_slot(narrow)) /
      pm::kSlotSeconds;
  EXPECT_EQ(pm::fcsd_supported_level(rate_l1, narrow, 64), 1);
  // Tiny budget: not even L = 1.
  EXPECT_EQ(pm::fcsd_supported_level(1e3, narrow, 64), -1);
  // Huge budget: L = 2 (max_level caps the search).
  EXPECT_EQ(pm::fcsd_supported_level(1e12, narrow, 64), 2);
}

// ------------------------------------------------------------- fixed point

TEST(FixedPoint, RoundTripAccuracy) {
  using F = pm::Fixed<16, 11>;
  for (double v : {0.0, 1.0, -1.0, 0.123, -3.999, 7.5}) {
    EXPECT_NEAR(F::from_double(v).to_double(), v, 1.0 / F::kScale)
        << "v=" << v;
  }
}

TEST(FixedPoint, SaturatesInsteadOfWrapping) {
  using F = pm::Fixed<16, 11>;
  const F big = F::from_double(100.0);  // beyond the 16-bit Q-range
  EXPECT_NEAR(big.to_double(), static_cast<double>(F::kMax) / F::kScale, 1e-9);
  const F sum = big + big;
  EXPECT_NEAR(sum.to_double(), big.to_double(), 1e-3);
  const F neg = F::from_double(-100.0);
  EXPECT_NEAR(neg.to_double(), static_cast<double>(F::kMin) / F::kScale, 1e-9);
}

TEST(FixedPoint, ArithmeticMatchesDoubleWithinQuantum) {
  using F = pm::Fixed<16, 11>;
  const double a = 1.375, b = -2.25;
  EXPECT_NEAR((F::from_double(a) + F::from_double(b)).to_double(), a + b,
              2.0 / F::kScale);
  EXPECT_NEAR((F::from_double(a) - F::from_double(b)).to_double(), a - b,
              2.0 / F::kScale);
  EXPECT_NEAR((F::from_double(a) * F::from_double(b)).to_double(), a * b,
              4.0 / F::kScale);
}

TEST(FixedPoint, ComplexPedMatchesDouble) {
  // The FPGA's l2-norm unit (Fig. 7) in 16-bit fixed point must track the
  // double-precision PED within quantization error.
  using FC = pm::FixedComplex<16, 11>;
  const flexcore::linalg::cplx b{0.83, -0.41}, rx{0.5, 0.25};
  const auto fb = FC::from_cplx(b), frx = FC::from_cplx(rx);
  const auto diff = fb - frx;
  const double got = diff.abs2().to_double();
  const double want = flexcore::linalg::abs2(b - rx);
  EXPECT_NEAR(got, want, 0.01);
}

TEST(FixedPoint, ComplexMultiplyMatchesDouble) {
  using FC = pm::FixedComplex<16, 11>;
  const flexcore::linalg::cplx a{1.2, -0.7}, b{-0.4, 0.9};
  const auto got = (FC::from_cplx(a) * FC::from_cplx(b)).to_cplx();
  const auto want = a * b;
  EXPECT_NEAR(got.real(), want.real(), 0.01);
  EXPECT_NEAR(got.imag(), want.imag(), 0.01);
}
