// Tests for QAM constellations, Gray mapping and analytic error rates.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <set>

#include "modulation/constellation.h"
#include "modulation/error_rates.h"

namespace fm = flexcore::modulation;
using flexcore::linalg::cplx;

class ConstellationTest : public ::testing::TestWithParam<int> {};

TEST_P(ConstellationTest, UnitAverageEnergy) {
  fm::Constellation c(GetParam());
  double energy = 0.0;
  for (cplx p : c.points()) energy += std::norm(p);
  EXPECT_NEAR(energy / GetParam(), 1.0, 1e-12);
}

TEST_P(ConstellationTest, SizeAndBits) {
  fm::Constellation c(GetParam());
  EXPECT_EQ(static_cast<int>(c.points().size()), GetParam());
  EXPECT_EQ(1 << c.bits_per_symbol(), GetParam());
  EXPECT_EQ(c.side() * c.side(), GetParam());
}

TEST_P(ConstellationTest, PointsAreDistinct) {
  fm::Constellation c(GetParam());
  std::set<std::pair<double, double>> seen;
  for (cplx p : c.points()) seen.insert({p.real(), p.imag()});
  EXPECT_EQ(seen.size(), c.points().size());
}

TEST_P(ConstellationTest, SliceRecoversEveryPoint) {
  fm::Constellation c(GetParam());
  for (int i = 0; i < c.order(); ++i) {
    EXPECT_EQ(c.slice(c.point(i)), i);
  }
}

TEST_P(ConstellationTest, SliceIsNearestUnderPerturbation) {
  fm::Constellation c(GetParam());
  std::mt19937_64 gen(5);
  std::uniform_real_distribution<double> u(-0.49, 0.49);
  for (int t = 0; t < 200; ++t) {
    const int idx = static_cast<int>(gen() % static_cast<unsigned>(c.order()));
    const cplx z = c.point(idx) + cplx{u(gen) * c.min_distance(),
                                       u(gen) * c.min_distance()};
    EXPECT_EQ(c.slice(z), c.kth_nearest_exact(z, 1));
  }
}

TEST_P(ConstellationTest, SliceClampsOutOfRange) {
  fm::Constellation c(GetParam());
  const double big = 100.0;
  const int corner = c.slice(cplx{big, big});
  EXPECT_EQ(corner, c.index_from_axes(c.side() - 1, c.side() - 1));
  const int corner2 = c.slice(cplx{-big, -big});
  EXPECT_EQ(corner2, c.index_from_axes(0, 0));
}

TEST_P(ConstellationTest, BitsRoundTrip) {
  fm::Constellation c(GetParam());
  for (int i = 0; i < c.order(); ++i) {
    std::vector<std::uint8_t> bits;
    c.unmap_bits(i, bits);
    ASSERT_EQ(static_cast<int>(bits.size()), c.bits_per_symbol());
    EXPECT_EQ(c.map_bits(bits), i);
  }
}

TEST_P(ConstellationTest, GrayAdjacentSymbolsDifferInOneBit) {
  fm::Constellation c(GetParam());
  const int side = c.side();
  auto hamming = [&](int a, int b) {
    std::vector<std::uint8_t> ba, bb;
    c.unmap_bits(a, ba);
    c.unmap_bits(b, bb);
    int d = 0;
    for (std::size_t i = 0; i < ba.size(); ++i) d += ba[i] != bb[i];
    return d;
  };
  for (int i = 0; i < side; ++i) {
    for (int q = 0; q < side; ++q) {
      if (i + 1 < side) {
        EXPECT_EQ(
            hamming(c.index_from_axes(i, q), c.index_from_axes(i + 1, q)), 1);
      }
      if (q + 1 < side) {
        EXPECT_EQ(
            hamming(c.index_from_axes(i, q), c.index_from_axes(i, q + 1)), 1);
      }
    }
  }
}

TEST_P(ConstellationTest, KthNearestCoversAllSymbolsOnce) {
  fm::Constellation c(GetParam());
  const cplx z{0.123 * c.scale(), -0.321 * c.scale()};
  std::set<int> seen;
  double prev = -1.0;
  for (int k = 1; k <= c.order(); ++k) {
    const int idx = c.kth_nearest_exact(z, k);
    EXPECT_TRUE(seen.insert(idx).second) << "duplicate at k=" << k;
    const double d = std::abs(c.point(idx) - z);
    EXPECT_GE(d + 1e-12, prev) << "distances must be non-decreasing";
    prev = d;
  }
  EXPECT_EQ(static_cast<int>(seen.size()), c.order());
}

TEST_P(ConstellationTest, MinDistanceMatchesPointGrid) {
  fm::Constellation c(GetParam());
  double min_d = 1e9;
  for (int a = 0; a < c.order(); ++a) {
    for (int b = a + 1; b < c.order(); ++b) {
      min_d = std::min(min_d, std::abs(c.point(a) - c.point(b)));
    }
  }
  EXPECT_NEAR(min_d, c.min_distance(), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(AllOrders, ConstellationTest,
                         ::testing::Values(4, 16, 64, 256));

TEST(Constellation, RejectsUnsupportedOrders) {
  EXPECT_THROW(fm::Constellation(8), std::invalid_argument);
  EXPECT_THROW(fm::Constellation(32), std::invalid_argument);
  EXPECT_THROW(fm::Constellation(0), std::invalid_argument);
}

TEST(Constellation, UnboundedAxisIndexExtendsGrid) {
  fm::Constellation c(16);
  // Point one full step beyond the top-right corner of the grid.
  const double beyond = c.pam_level(c.side() - 1) + c.min_distance();
  EXPECT_EQ(c.unbounded_axis_index(beyond), c.side());
  EXPECT_FALSE(c.axes_in_range(c.side(), 0));
  EXPECT_TRUE(c.axes_in_range(c.side() - 1, 0));
}

// ------------------------------------------------------------- error rates

TEST(ErrorRates, QFunctionKnownValues) {
  EXPECT_NEAR(fm::q_function(0.0), 0.5, 1e-12);
  EXPECT_NEAR(fm::q_function(1.0), 0.158655, 1e-5);
  EXPECT_NEAR(fm::q_function(3.0), 0.001349, 1e-5);
  EXPECT_GT(fm::q_function(-1.0), 0.8);
}

TEST(ErrorRates, SerDecreasesWithSnr) {
  fm::Constellation c(16);
  double prev = 1.0;
  for (double nv : {1.0, 0.5, 0.1, 0.01, 0.001}) {
    const double ser = fm::qam_symbol_error(c, 1.0, nv);
    EXPECT_LT(ser, prev);
    prev = ser;
  }
}

TEST(ErrorRates, SerIncreasesWithOrder) {
  const double nv = 0.05;
  double prev = 0.0;
  for (int m : {4, 16, 64, 256}) {
    fm::Constellation c(m);
    const double ser = fm::qam_symbol_error(c, 1.0, nv);
    EXPECT_GT(ser, prev) << "m=" << m;
    prev = ser;
  }
}

TEST(ErrorRates, SerMatchesMonteCarlo) {
  // Validate the closed form against simulation at a few operating points.
  fm::Constellation c(16);
  std::mt19937_64 gen(1234);
  std::normal_distribution<double> n;
  for (double nv : {0.2, 0.05}) {
    const double sr = std::sqrt(nv / 2.0);
    int errors = 0;
    const int trials = 200000;
    for (int t = 0; t < trials; ++t) {
      const int tx = static_cast<int>(gen() % 16);
      const cplx y = c.point(tx) + cplx{sr * n(gen), sr * n(gen)};
      if (c.slice(y) != tx) ++errors;
    }
    const double mc = static_cast<double>(errors) / trials;
    const double analytic = fm::qam_symbol_error(c, 1.0, nv);
    EXPECT_NEAR(mc, analytic, 0.015) << "noise_var=" << nv;
  }
}

TEST(ErrorRates, LevelErrorProbabilityClamped) {
  fm::Constellation c(64);
  // Extremely noisy: the paper's formula exceeds 1; ours must stay in (0,1).
  const double pe = fm::level_error_probability(fm::PeModel::kPaperErfc, c,
                                                0.01, 100.0);
  EXPECT_GT(pe, 0.0);
  EXPECT_LT(pe, 1.0);
  // Extremely clean: clamped away from exactly 0.
  const double pe2 = fm::level_error_probability(fm::PeModel::kPaperErfc, c,
                                                 10.0, 1e-9);
  EXPECT_GT(pe2, 0.0);
}

TEST(ErrorRates, ModelsAreMonotoneInChannelGain) {
  fm::Constellation c(64);
  for (auto model : {fm::PeModel::kPaperErfc, fm::PeModel::kExactSer}) {
    double prev = 1.0;
    for (double r : {0.5, 1.0, 2.0, 4.0}) {
      const double pe = fm::level_error_probability(model, c, r, 0.1);
      EXPECT_LE(pe, prev);
      prev = pe;
    }
  }
}

TEST(ErrorRates, PamSymbolErrorEdgeCases) {
  EXPECT_EQ(fm::pam_symbol_error(4, 1.0, 0.0), 0.0);
  // Huge noise: approaches 2 * (1 - 1/m) * 0.5.
  EXPECT_NEAR(fm::pam_symbol_error(4, 1e-9, 1.0), 0.75, 1e-3);
}
