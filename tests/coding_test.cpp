// Tests for the 802.11 convolutional code, Viterbi decoders & interleaver.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "coding/convolutional.h"
#include "coding/interleaver.h"

namespace fc = flexcore::coding;
using fc::BitVec;

namespace {
BitVec random_bits(std::size_t n, std::mt19937_64& gen) {
  BitVec b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(gen() & 1);
  return b;
}
}  // namespace

TEST(ConvEncode, OutputLengthIsRateHalfPlusTail) {
  std::mt19937_64 gen(1);
  for (std::size_t n : {1u, 7u, 100u, 1000u}) {
    const BitVec coded = fc::conv_encode(random_bits(n, gen));
    EXPECT_EQ(coded.size(), 2 * (n + 6));
  }
}

TEST(ConvEncode, AllZeroInputGivesAllZeroOutput) {
  const BitVec coded = fc::conv_encode(BitVec(64, 0));
  EXPECT_TRUE(std::all_of(coded.begin(), coded.end(),
                          [](std::uint8_t b) { return b == 0; }));
}

TEST(ConvEncode, KnownImpulseResponse) {
  // A single 1 followed by zeros reads out the generator taps 133/171.
  BitVec info(7, 0);
  info[0] = 1;
  const BitVec coded = fc::conv_encode(info);
  // First output pair: both generators see only the new bit -> (1, 1).
  EXPECT_EQ(coded[0], 1);
  EXPECT_EQ(coded[1], 1);
  // Octal 133 = 1011011b, 171 = 1111001b.  Our register convention keeps the
  // newest bit in the MSB, so the impulse response reads each generator
  // MSB-first.
  BitVec g0, g1;
  for (std::size_t step = 0; step < 7; ++step) {
    g0.push_back(coded[2 * step]);
    g1.push_back(coded[2 * step + 1]);
  }
  const BitVec expect_g0{1, 0, 1, 1, 0, 1, 1};  // 133 octal, MSB-first
  const BitVec expect_g1{1, 1, 1, 1, 0, 0, 1};  // 171 octal, MSB-first
  EXPECT_EQ(g0, expect_g0);
  EXPECT_EQ(g1, expect_g1);
}

TEST(Viterbi, DecodesCleanStream) {
  std::mt19937_64 gen(2);
  for (std::size_t n : {1u, 10u, 333u, 2048u}) {
    const BitVec info = random_bits(n, gen);
    EXPECT_EQ(fc::viterbi_decode(fc::conv_encode(info)), info) << "n=" << n;
  }
}

TEST(Viterbi, CorrectsIsolatedBitErrors) {
  std::mt19937_64 gen(3);
  const BitVec info = random_bits(200, gen);
  BitVec coded = fc::conv_encode(info);
  // Flip well-separated bits (free distance 10 at rate 1/2 tolerates
  // isolated errors easily).
  for (std::size_t pos = 5; pos < coded.size(); pos += 50) coded[pos] ^= 1;
  EXPECT_EQ(fc::viterbi_decode(coded), info);
}

TEST(Viterbi, CorrectsBurstsUpToCapability) {
  std::mt19937_64 gen(4);
  const BitVec info = random_bits(400, gen);
  BitVec coded = fc::conv_encode(info);
  // d_free = 10: up to 4 errors within one constraint span are correctable.
  coded[100] ^= 1;
  coded[103] ^= 1;
  coded[301] ^= 1;
  coded[306] ^= 1;
  EXPECT_EQ(fc::viterbi_decode(coded), info);
}

TEST(Viterbi, FailsGracefullyUnderHeavyCorruption) {
  std::mt19937_64 gen(5);
  const BitVec info = random_bits(100, gen);
  BitVec coded = fc::conv_encode(info);
  for (auto& b : coded) b ^= static_cast<std::uint8_t>(gen() & 1);
  const BitVec decoded = fc::viterbi_decode(coded);
  EXPECT_EQ(decoded.size(), info.size());  // still shape-correct
}

TEST(Viterbi, OddLengthThrows) {
  EXPECT_THROW(fc::viterbi_decode(BitVec(3, 0)), std::invalid_argument);
  EXPECT_THROW(fc::viterbi_decode_soft(std::vector<double>(5, 0.0)),
               std::invalid_argument);
}

TEST(ViterbiSoft, MatchesHardOnSaturatedLlrs) {
  std::mt19937_64 gen(6);
  const BitVec info = random_bits(256, gen);
  const BitVec coded = fc::conv_encode(info);
  std::vector<double> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    llrs[i] = coded[i] ? -10.0 : 10.0;  // positive = bit 0
  }
  EXPECT_EQ(fc::viterbi_decode_soft(llrs), info);
}

TEST(ViterbiSoft, ExploitsReliabilityToBeatHard) {
  // Construct a case where hard decisions are wrong but low-confidence:
  // soft decoding must recover while hard decoding (on sliced bits) fails.
  std::mt19937_64 gen(7);
  std::normal_distribution<double> noise(0.0, 1.0);
  int soft_wins = 0, trials = 60;
  for (int t = 0; t < trials; ++t) {
    const BitVec info = random_bits(120, gen);
    const BitVec coded = fc::conv_encode(info);
    std::vector<double> llrs(coded.size());
    BitVec hard(coded.size());
    for (std::size_t i = 0; i < coded.size(); ++i) {
      const double tx = coded[i] ? -1.0 : 1.0;  // BPSK, + = bit 0
      const double rx = tx + 1.1 * noise(gen);
      llrs[i] = 2.0 * rx;
      hard[i] = rx < 0 ? 1 : 0;
    }
    const bool soft_ok = fc::viterbi_decode_soft(llrs) == info;
    const bool hard_ok = fc::viterbi_decode(hard) == info;
    soft_wins += (soft_ok && !hard_ok) ? 1 : 0;
    // Soft should never lose where hard wins (same channel realization).
    EXPECT_FALSE(hard_ok && !soft_ok) << "soft decoder lost to hard";
  }
  EXPECT_GT(soft_wins, 0) << "expected soft decoding to win somewhere";
}

// -------------------------------------------------------------- interleaver

class InterleaverTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(InterleaverTest, PermutationIsBijective) {
  auto [ncbps, nbpsc] = GetParam();
  fc::Interleaver ilv(ncbps, nbpsc);
  std::vector<bool> seen(ncbps, false);
  for (std::size_t idx : ilv.permutation()) {
    ASSERT_LT(idx, ncbps);
    EXPECT_FALSE(seen[idx]);
    seen[idx] = true;
  }
}

TEST_P(InterleaverTest, StreamRoundTrip) {
  auto [ncbps, nbpsc] = GetParam();
  fc::Interleaver ilv(ncbps, nbpsc);
  std::mt19937_64 gen(9);
  const BitVec in = random_bits(4 * ncbps, gen);
  EXPECT_EQ(ilv.deinterleave_stream(ilv.interleave_stream(in)), in);
}

TEST_P(InterleaverTest, SpreadsAdjacentBits) {
  auto [ncbps, nbpsc] = GetParam();
  fc::Interleaver ilv(ncbps, nbpsc);
  // 802.11 goal: adjacent coded bits land on non-adjacent subcarriers.
  const auto& perm = ilv.permutation();
  const std::size_t sub0 = perm[0] / nbpsc;
  const std::size_t sub1 = perm[1] / nbpsc;
  EXPECT_GT(std::max(sub0, sub1) - std::min(sub0, sub1), 1u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, InterleaverTest,
                         ::testing::Values(std::pair{96u, 2u},    // QPSK
                                           std::pair{192u, 4u},   // 16-QAM
                                           std::pair{288u, 6u})); // 64-QAM

TEST(Interleaver, RejectsBadBlockSizes) {
  EXPECT_THROW(fc::Interleaver(100, 4), std::invalid_argument);  // not /16
  EXPECT_THROW(fc::Interleaver(96, 5), std::invalid_argument);   // not /nbpsc
  EXPECT_THROW(fc::Interleaver(0, 1), std::invalid_argument);
}

TEST(Interleaver, SoftStreamUsesSamePermutation) {
  fc::Interleaver ilv(96, 2);
  std::mt19937_64 gen(10);
  const BitVec bits = random_bits(96, gen);
  const BitVec il = ilv.interleave_stream(bits);
  std::vector<double> soft(il.size());
  for (std::size_t i = 0; i < il.size(); ++i) soft[i] = il[i] ? -1.0 : 1.0;
  const std::vector<double> de = ilv.deinterleave_stream(soft);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    EXPECT_EQ(de[i] < 0, bits[i] == 1);
  }
}
