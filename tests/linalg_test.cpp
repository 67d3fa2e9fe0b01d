// Unit and property tests for the linalg substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/qr.h"
#include "linalg/solve.h"
#include "reference_linalg.h"
#include "reference_qr.h"

namespace fl = flexcore::linalg;
namespace ref = flexcore::testref;
using fl::cplx;
using fl::CMat;
using fl::CVec;

namespace {

CMat random_matrix(std::size_t rows, std::size_t cols, std::mt19937_64& gen) {
  std::normal_distribution<double> n;
  CMat m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = cplx{n(gen), n(gen)};
  return m;
}

CVec random_vector(std::size_t n, std::mt19937_64& gen) {
  std::normal_distribution<double> d;
  CVec v(n);
  for (auto& z : v) z = cplx{d(gen), d(gen)};
  return v;
}

void expect_orthonormal(const CMat& q, double tol = 1e-9) {
  const CMat g = q.hermitian() * q;
  EXPECT_LT(ref::max_abs_diff(g, CMat::identity(q.cols())), tol)
      << "Q^H Q != I";
}

void expect_upper_triangular(const CMat& r, double tol = 1e-10) {
  for (std::size_t i = 0; i < r.rows(); ++i)
    for (std::size_t j = 0; j < i && j < r.cols(); ++j)
      EXPECT_LT(std::abs(r(i, j)), tol) << "R(" << i << "," << j << ") nonzero";
}

CMat permuted(const CMat& h, const std::vector<std::size_t>& perm) {
  CMat hp(h.rows(), h.cols());
  for (std::size_t j = 0; j < h.cols(); ++j) hp.set_col(j, h.col(perm[j]));
  return hp;
}

}  // namespace

TEST(Matrix, IdentityMultiplication) {
  std::mt19937_64 gen(1);
  const CMat a = random_matrix(4, 4, gen);
  const CMat i = CMat::identity(4);
  EXPECT_LT(ref::max_abs_diff(a * i, a), 1e-12);
  EXPECT_LT(ref::max_abs_diff(i * a, a), 1e-12);
}

TEST(Matrix, HermitianTwiceIsIdentityOp) {
  std::mt19937_64 gen(2);
  const CMat a = random_matrix(3, 5, gen);
  EXPECT_LT(ref::max_abs_diff(a.hermitian().hermitian(), a), 1e-15);
}

TEST(Matrix, MatVecMatchesMatMat) {
  std::mt19937_64 gen(3);
  const CMat a = random_matrix(4, 3, gen);
  const CVec v = random_vector(3, gen);
  CMat vm(3, 1);
  for (std::size_t i = 0; i < 3; ++i) vm(i, 0) = v[i];
  const CMat prod = a * vm;
  const CVec pv = a * v;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_LT(std::abs(prod(i, 0) - pv[i]), 1e-12);
  }
}

TEST(Matrix, SwapColsIsInvolution) {
  std::mt19937_64 gen(4);
  CMat a = random_matrix(4, 4, gen);
  const CMat orig = a;
  a.swap_cols(1, 3);
  a.swap_cols(1, 3);
  EXPECT_LT(ref::max_abs_diff(a, orig), 0.0 + 1e-15);
}

// ---------------------------------------------------------------- QR family

class QrReconstruction
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(QrReconstruction, MgsFactorsAreValid) {
  auto [nr, nt] = GetParam();
  std::mt19937_64 gen(42u + static_cast<unsigned>(nr * 100 + nt));
  const CMat h = random_matrix(static_cast<std::size_t>(nr),
                               static_cast<std::size_t>(nt), gen);
  const fl::QrResult qr = fl::qr_mgs(h);
  expect_orthonormal(qr.Q);
  expect_upper_triangular(qr.R);
  EXPECT_LT(ref::max_abs_diff(qr.Q * qr.R, h), 1e-9);
}

TEST_P(QrReconstruction, SortedQrReconstructsPermuted) {
  auto [nr, nt] = GetParam();
  std::mt19937_64 gen(7u + static_cast<unsigned>(nr * 100 + nt));
  const CMat h = random_matrix(static_cast<std::size_t>(nr),
                               static_cast<std::size_t>(nt), gen);
  const fl::QrResult qr = fl::sorted_qr_wubben(h);
  expect_orthonormal(qr.Q);
  expect_upper_triangular(qr.R);
  EXPECT_LT(ref::max_abs_diff(qr.Q * qr.R, permuted(h, qr.perm)), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Shapes, QrReconstruction,
                         ::testing::Values(std::pair{2, 2}, std::pair{4, 4},
                                           std::pair{8, 8}, std::pair{12, 12},
                                           std::pair{16, 12}, std::pair{12, 8},
                                           std::pair{16, 16}));

TEST(Qr, DiagonalIsRealPositive) {
  std::mt19937_64 gen(11);
  const CMat h = random_matrix(8, 8, gen);
  for (const auto& qr : {fl::qr_mgs(h), fl::sorted_qr_wubben(h)}) {
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_GT(qr.R(i, i).real(), 0.0);
      EXPECT_NEAR(qr.R(i, i).imag(), 0.0, 1e-10);
    }
  }
}

TEST(Qr, RankDeficientThrows) {
  CMat h(3, 2);
  h(0, 0) = h(1, 0) = h(2, 0) = cplx{1.0, 0.0};
  h.set_col(1, h.col(0));  // duplicate column
  EXPECT_THROW(fl::qr_mgs(h), std::runtime_error);
}

TEST(Qr, WideMatrixThrows) {
  std::mt19937_64 gen(12);
  const CMat h = random_matrix(2, 4, gen);
  EXPECT_THROW(fl::qr_mgs(h), std::runtime_error);
}

namespace {

/// Same shape and the same bits in every entry.
void expect_bitwise(const CMat& got, const CMat& want,
                    const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < want.rows() * want.cols(); ++i) {
    ASSERT_EQ(std::memcmp(got.data() + i, want.data() + i, sizeof(cplx)), 0)
        << what << ": entry (" << i / want.cols() << ", " << i % want.cols()
        << ") got " << std::setprecision(17) << got.data()[i] << ", want "
        << want.data()[i];
  }
}

void expect_bitwise(const fl::QrResult& got, const fl::QrResult& want,
                    const std::string& what) {
  expect_bitwise(got.Q, want.Q, what + " Q");
  expect_bitwise(got.R, want.R, what + " R");
  EXPECT_EQ(got.perm, want.perm) << what;
}

/// A factorization's factors, or the message of the runtime_error it threw.
struct QrOutcome {
  std::optional<fl::QrResult> qr;
  std::string error;
};

template <typename Fn>
QrOutcome outcome_of(Fn&& factor) {
  try {
    return {factor(), {}};
  } catch (const std::runtime_error& e) {
    return {std::nullopt, e.what()};
  }
}

void expect_same_outcome(const QrOutcome& got, const QrOutcome& want,
                         const std::string& what) {
  ASSERT_EQ(got.qr.has_value(), want.qr.has_value())
      << what << ": got '" << got.error << "', want '" << want.error << "'";
  if (want.qr) {
    expect_bitwise(*got.qr, *want.qr, what);
  } else {
    EXPECT_EQ(got.error, want.error) << what;
  }
}

/// Entry families of the MGS bitwise test.
enum class Entries {
  kGaussian,
  kSignedZeros,  ///< Gaussian with +-0 re and im parts mixed in
  kZeroSums,     ///< a diagonal whose projections sum only -0 products
  kSubnormals,   ///< Gaussian with subnormal re and im parts mixed in
  kMagnitudes,   ///< parts of magnitude 1e-150 .. 1e150
  kEqualNorms,   ///< integer columns of one norm (Wübben ties)
  kDeadColumns,  ///< dead at the first, a middle and the last step
};

CMat lane_case(std::size_t rows, std::size_t cols, Entries family,
               std::mt19937_64& gen) {
  std::normal_distribution<double> n;
  std::uniform_int_distribution<int> coin(0, 3);
  const auto zero = [&] { return coin(gen) % 2 == 0 ? 0.0 : -0.0; };
  CMat m = random_matrix(rows, cols, gen);
  switch (family) {
    case Entries::kGaussian:
      break;
    case Entries::kSignedZeros:
      for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
          const cplx z = m(i, j);
          m(i, j) = cplx{coin(gen) == 0 ? zero() : z.real(),
                         coin(gen) == 0 ? zero() : z.imag()};
        }
      }
      break;
    case Entries::kZeroSums: {
      // Column 0: +0 off its positive diagonal entry; later columns: -0
      // off a negative one.  Every row's conj(q_i0) a_ij then has a -0 real
      // part, so r(0, j) is +0 only if its sum starts from +0.
      for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
          const double sign = j == 0 ? 1.0 : -1.0;
          m(i, j) = i == j ? cplx{sign * (0.5 + std::abs(n(gen))),
                                  sign * (0.5 + std::abs(n(gen)))}
                           : cplx{sign * 0.0, sign * 0.0};
        }
      }
      break;
    }
    case Entries::kSubnormals:
      for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
          const cplx z = m(i, j);
          m(i, j) = cplx{coin(gen) == 0 ? 1e-310 * n(gen) : z.real(),
                         coin(gen) == 0 ? 1e-310 * n(gen) : z.imag()};
        }
      }
      break;
    case Entries::kMagnitudes: {
      std::uniform_int_distribution<int> exponent(-150, 150);
      for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
          m(i, j) = cplx{n(gen) * std::pow(10.0, exponent(gen)),
                         n(gen) * std::pow(10.0, exponent(gen))};
        }
      }
      break;
    }
    case Entries::kEqualNorms: {
      // Each column is the first one rotated down by j rows, with parts
      // swapped and signs flipped at random: small integers, so every
      // column norm is the same exact sum.
      std::uniform_int_distribution<int> part(-3, 3);
      std::vector<cplx> base(rows);
      for (cplx& z : base) {
        z = cplx{static_cast<double>(part(gen)),
                 static_cast<double>(part(gen))};
      }
      base[0] = cplx{4.0, 1.0};  // no all-zero column
      for (std::size_t j = 0; j < cols; ++j) {
        for (std::size_t i = 0; i < rows; ++i) {
          cplx z = base[(i + rows - j % rows) % rows];
          if (coin(gen) == 0) z = cplx{z.imag(), z.real()};
          if (coin(gen) == 0) z = -z;
          m(i, j) = z;
        }
      }
      break;
    }
    case Entries::kDeadColumns:
      for (std::size_t i = 0; i < rows; ++i) m(i, 0) = cplx{0.0, 0.0};
      if (cols >= 5) {
        const std::size_t mid = std::max<std::size_t>(3, cols / 2);
        for (std::size_t i = 0; i < rows; ++i) {
          m(i, mid) = m(i, 1) + m(i, 2);
          m(i, cols - 1) = m(i, 1);
        }
      }
      break;
  }
  return m;
}

}  // namespace

TEST(Qr, RowwiseCoreMatchesColumnReference) {
  // The MGS lane kernel against the column-at-a-time MGS it replaced: Q, R
  // and perm bit for bit, for every decomposition built on it, or the same
  // failure.  The sweep covers every register-group remainder of every
  // copy (1..32 columns on square, one-taller, 2nt+3 and 64-row inputs)
  // and each entry family; the `_into` forms share warm outputs whose
  // shape changes every case.
  std::mt19937_64 gen(2026);
  fl::QrResult warm;
  CMat warm_q, warm_r;
  std::size_t factored = 0;
  const auto check = [&](fl::CMatView h, bool with_fcsd,
                         const std::string& what) {
    const QrOutcome plain =
        outcome_of([&] { return ref::qr_mgs_by_columns(h); });
    expect_same_outcome(outcome_of([&] { return fl::qr_mgs(h); }), plain,
                        what + " qr_mgs");
    expect_same_outcome(outcome_of([&] {
                          fl::qr_mgs_into(h, &warm);
                          return warm;
                        }),
                        plain, what + " qr_mgs_into");
    factored += plain.qr.has_value() ? 1 : 0;

    // The tolerant form also takes rank-deficient input.
    const QrOutcome tolerant = outcome_of(
        [&] { return ref::qr_mgs_by_columns(h, /*tolerant=*/true); });
    expect_same_outcome(outcome_of([&] {
                          fl::qr_mgs_tolerant_into(h, &warm_q, &warm_r);
                          std::vector<std::size_t> identity(h.cols());
                          std::iota(identity.begin(), identity.end(),
                                    std::size_t{0});
                          return fl::QrResult{warm_q, warm_r, identity};
                        }),
                        tolerant, what + " tolerant_into Q, R");

    const QrOutcome sorted =
        outcome_of([&] { return ref::sorted_qr_wubben_by_columns(h); });
    expect_same_outcome(outcome_of([&] { return fl::sorted_qr_wubben(h); }),
                        sorted, what + " wubben");
    expect_same_outcome(outcome_of([&] {
                          fl::sorted_qr_wubben_into(h, &warm);
                          return warm;
                        }),
                        sorted, what + " wubben_into");

    if (with_fcsd && plain.qr) {
      // FCSD orders by the Gram inverse, then factors with qr_mgs.
      const fl::QrResult fcsd = fl::fcsd_sorted_qr(h, 1);
      fl::QrResult fcsd_want =
          ref::qr_mgs_by_columns(permuted(h.materialize(), fcsd.perm));
      fcsd_want.perm = fcsd.perm;
      expect_bitwise(fcsd, fcsd_want, what + " fcsd");
    }
    return tolerant;
  };

  const Entries families[] = {
      Entries::kGaussian,   Entries::kSignedZeros, Entries::kZeroSums,
      Entries::kSubnormals, Entries::kMagnitudes,  Entries::kEqualNorms,
      Entries::kDeadColumns};
  for (std::size_t nt = 1; nt <= 32; ++nt) {
    for (const std::size_t rows : {nt, nt + 1, 2 * nt + 3, std::size_t{64}}) {
      for (const Entries family : families) {
        const CMat h = lane_case(rows, nt, family, gen);
        const std::string what = std::to_string(rows) + "x" +
                                 std::to_string(nt) + " family " +
                                 std::to_string(static_cast<int>(family));
        const QrOutcome tolerant =
            check(h,
                  family != Entries::kMagnitudes &&
                      family != Entries::kDeadColumns,
                  what);
        // Each family holds what it is named for.
        if (family == Entries::kZeroSums && nt >= 2) {
          EXPECT_FALSE(std::signbit(tolerant.qr->R(0, 1).real())) << what;
        }
        if (family == Entries::kEqualNorms) {
          for (std::size_t j = 1; j < nt; ++j) {
            EXPECT_EQ(fl::norm2(h.col(j)), fl::norm2(h.col(0))) << what;
          }
        }
        if (family == Entries::kDeadColumns) {
          EXPECT_EQ(tolerant.qr->R(0, 0), cplx{}) << what;
          if (nt >= 5) {
            const std::size_t mid = std::max<std::size_t>(3, nt / 2);
            EXPECT_EQ(tolerant.qr->R(mid, mid), cplx{}) << what;
            EXPECT_EQ(tolerant.qr->R(nt - 1, nt - 1), cplx{}) << what;
          }
        }
      }
    }
  }
  // Most cases factor; the rest must have failed alike above.
  EXPECT_GT(factored, 32u * 4u * 5u);

  for (int t = 0; t < 10; ++t) {
    // A 64 x 8 channel in the two 32-row cluster views of the shard layer.
    const CMat h = random_matrix(64, 8, gen);
    for (std::size_t c = 0; c < 2; ++c) {
      check(h.row_range(32 * c, 32), false, "cluster " + std::to_string(c));
    }
    // A cluster whose rows are all zero but five.
    CMat zero_rows(32, 8);
    const CMat live = random_matrix(5, 8, gen);
    for (std::size_t i = 0; i < 5; ++i) {
      for (std::size_t j = 0; j < 8; ++j) zero_rows(7 * i, j) = live(i, j);
    }
    check(zero_rows, false, "zero rows");
  }
}

TEST(SortedQr, PermIsAPermutation) {
  std::mt19937_64 gen(13);
  const CMat h = random_matrix(12, 12, gen);
  const fl::QrResult qr = fl::sorted_qr_wubben(h);
  std::vector<bool> seen(12, false);
  for (std::size_t p : qr.perm) {
    ASSERT_LT(p, 12u);
    EXPECT_FALSE(seen[p]);
    seen[p] = true;
  }
}

TEST(SortedQr, UnpermuteRoundTrips) {
  const std::vector<std::size_t> perm{2, 0, 1};
  const std::vector<int> detected{10, 20, 30};
  const std::vector<int> orig = fl::unpermute(detected, perm);
  // detected[i] belongs to original antenna perm[i].
  EXPECT_EQ(orig[2], 10);
  EXPECT_EQ(orig[0], 20);
  EXPECT_EQ(orig[1], 30);
}

TEST(FcsdQr, FullLevelsHaveWorstNoiseAmplification) {
  // The stream with the largest ZF noise amplification must be assigned to
  // the topmost (first-detected, fully-expanded) level.
  std::mt19937_64 gen(14);
  for (int trial = 0; trial < 20; ++trial) {
    const CMat h = random_matrix(6, 6, gen);
    const fl::QrResult qr = fl::fcsd_sorted_qr(h, 1);
    expect_orthonormal(qr.Q);
    EXPECT_LT(ref::max_abs_diff(qr.Q * qr.R, permuted(h, qr.perm)), 1e-9);

    const CMat ginv = fl::inverse(h.hermitian() * h);
    std::size_t worst = 0;
    for (std::size_t j = 1; j < 6; ++j) {
      if (ginv(j, j).real() > ginv(worst, worst).real()) worst = j;
    }
    EXPECT_EQ(qr.perm.back(), worst);
  }
}

TEST(FcsdQr, FullLevelsGreaterThanNtThrows) {
  std::mt19937_64 gen(15);
  const CMat h = random_matrix(4, 4, gen);
  EXPECT_THROW(fl::fcsd_sorted_qr(h, 5), std::invalid_argument);
}

// ---------------------------------------------------------------- solvers

TEST(Inverse, TimesOriginalIsIdentity) {
  std::mt19937_64 gen(21);
  for (std::size_t n : {1u, 2u, 5u, 12u}) {
    const CMat a = random_matrix(n, n, gen);
    const CMat inv = fl::inverse(a);
    EXPECT_LT(ref::max_abs_diff(a * inv, CMat::identity(n)), 1e-8) << "n=" << n;
    EXPECT_LT(ref::max_abs_diff(inv * a, CMat::identity(n)), 1e-8) << "n=" << n;
  }
}

TEST(Inverse, SingularThrows) {
  CMat a(2, 2);
  a(0, 0) = a(0, 1) = a(1, 0) = a(1, 1) = cplx{1.0, 0.0};
  EXPECT_THROW(fl::inverse(a), std::runtime_error);
}

TEST(Cholesky, ReconstructsHermitianPd) {
  std::mt19937_64 gen(23);
  const CMat a = random_matrix(6, 6, gen);
  const CMat g = a.hermitian() * a;  // Hermitian PD w.p. 1
  const CMat l = fl::cholesky(g);
  EXPECT_LT(ref::max_abs_diff(l * l.hermitian(), g), 1e-9);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_GT(l(i, i).real(), 0.0);
    for (std::size_t j = i + 1; j < 6; ++j) EXPECT_EQ(l(i, j), (cplx{0, 0}));
  }
}

TEST(Cholesky, IndefiniteThrows) {
  CMat a = CMat::identity(2);
  a(1, 1) = cplx{-1.0, 0.0};
  EXPECT_THROW(fl::cholesky(a), std::runtime_error);
}

TEST(Filters, ZfInvertsChannel) {
  std::mt19937_64 gen(24);
  const CMat h = random_matrix(8, 6, gen);
  const CMat w = fl::zf_filter(h);
  EXPECT_LT(ref::max_abs_diff(w * h, CMat::identity(6)), 1e-8);
}

TEST(Filters, MmseApproachesZfAsNoiseVanishes) {
  std::mt19937_64 gen(25);
  const CMat h = random_matrix(8, 6, gen);
  const CMat zf = fl::zf_filter(h);
  const CMat mmse = fl::mmse_filter(h, 1e-12);
  EXPECT_LT(ref::max_abs_diff(zf, mmse), 1e-6);
}

TEST(Filters, MmseShrinksTowardZeroAtHighNoise) {
  std::mt19937_64 gen(26);
  const CMat h = random_matrix(6, 6, gen);
  const CMat w = fl::mmse_filter(h, 1e9);
  EXPECT_LT(ref::frobenius_norm(w), 1e-6);
}

// ------------------------------------------- SVD (tests/reference_linalg.h)

TEST(Svd, SingularValuesOfIdentity) {
  const fl::RVec sv = ref::singular_values(CMat::identity(5));
  for (double s : sv) EXPECT_NEAR(s, 1.0, 1e-10);
}

TEST(Svd, MatchesGramEigenvalues) {
  std::mt19937_64 gen(31);
  const CMat a = random_matrix(6, 4, gen);
  const fl::RVec sv = ref::singular_values(a);
  // sum sigma_i^2 == ||A||_F^2
  double sum2 = 0.0;
  for (double s : sv) sum2 += s * s;
  EXPECT_NEAR(sum2, ref::frobenius_norm(a) * ref::frobenius_norm(a), 1e-8);
  // descending order
  for (std::size_t i = 1; i < sv.size(); ++i) EXPECT_GE(sv[i - 1], sv[i]);
}

TEST(Svd, DiagonalMatrixSingularValues) {
  CMat d(3, 3);
  d(0, 0) = cplx{3.0, 0.0};
  d(1, 1) = cplx{0.0, -2.0};  // magnitude 2
  d(2, 2) = cplx{1.0, 0.0};
  const fl::RVec sv = ref::singular_values(d);
  EXPECT_NEAR(sv[0], 3.0, 1e-10);
  EXPECT_NEAR(sv[1], 2.0, 1e-10);
  EXPECT_NEAR(sv[2], 1.0, 1e-10);
}

TEST(Svd, ConditionNumberScalesWithIllConditioning) {
  CMat d = CMat::identity(4);
  d(3, 3) = cplx{1e-3, 0.0};
  EXPECT_NEAR(ref::condition_number(d), 1e3, 1e-3);
  EXPECT_NEAR(ref::condition_number(CMat::identity(4)), 1.0, 1e-10);
}

TEST(Svd, ProductWithUnitaryPreservesSingularValues) {
  std::mt19937_64 gen(32);
  const CMat a = random_matrix(5, 5, gen);
  const fl::QrResult qr = fl::qr_mgs(random_matrix(5, 5, gen));
  const fl::RVec s1 = ref::singular_values(a);
  const fl::RVec s2 = ref::singular_values(qr.Q * a);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(s1[i], s2[i], 1e-8);
}

// Property: the Wübben ordering's first pivot is the minimum column norm —
// R(0,0) of SQRD can never exceed R(0,0) of any column order, in particular
// the natural one.
TEST(SortedQr, FirstPivotIsMinimumColumnNorm) {
  std::mt19937_64 gen(33);
  for (int t = 0; t < 30; ++t) {
    const CMat h = random_matrix(8, 8, gen);
    const CMat r_plain = fl::qr_mgs(h).R;
    const CMat r_sorted = fl::sorted_qr_wubben(h).R;
    EXPECT_LE(std::abs(r_sorted(0, 0)), std::abs(r_plain(0, 0)) + 1e-9);
    double min_norm = std::abs(r_sorted(0, 0));
    for (std::size_t c = 0; c < 8; ++c) {
      min_norm = std::min(min_norm, std::sqrt(fl::norm2(h.col(c))));
    }
    EXPECT_NEAR(std::abs(r_sorted(0, 0)), min_norm, 1e-9);
  }
}
