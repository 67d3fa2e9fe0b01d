#include "coding/convolutional.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <stdexcept>

namespace flexcore::coding {

namespace {

// Output pair for (state, input-bit). State = most recent K-1 bits, newest
// bit in the MSB position (bit K-2), matching the shift-register convention
// where the register holds [newest ... oldest].
struct Branch {
  std::uint8_t out0;  // generator kG0 output
  std::uint8_t out1;  // generator kG1 output
  int next_state;
};

struct Trellis {
  std::array<std::array<Branch, 2>, ConvCode::kNumStates> branch;
  Trellis() {
    for (int s = 0; s < ConvCode::kNumStates; ++s) {
      for (int b = 0; b < 2; ++b) {
        // Full register contents: input bit + state bits (7 bits total).
        const std::uint32_t reg =
            (static_cast<std::uint32_t>(b) << (ConvCode::kConstraint - 1)) |
            static_cast<std::uint32_t>(s);
        const auto parity = [](std::uint32_t v) {
          return static_cast<std::uint8_t>(std::popcount(v) & 1);
        };
        branch[static_cast<std::size_t>(s)][static_cast<std::size_t>(b)] =
            Branch{parity(reg & ConvCode::kG0), parity(reg & ConvCode::kG1),
                   static_cast<int>(reg >> 1)};
      }
    }
  }
};

const Trellis& trellis() {
  static const Trellis t;
  return t;
}

constexpr int kTail = ConvCode::kConstraint - 1;

// Generic Viterbi over a terminated trellis.  branch_metric(step, out0, out1)
// returns the metric contribution (lower is better) of emitting (out0,out1)
// at trellis step `step`.
template <typename MetricFn>
BitVec viterbi_core(std::size_t num_steps, MetricFn branch_metric) {
  constexpr int n_states = ConvCode::kNumStates;
  constexpr double inf = std::numeric_limits<double>::infinity();
  const Trellis& t = trellis();

  std::vector<double> metric(n_states, inf), next_metric(n_states, inf);
  metric[0] = 0.0;  // encoder starts in the all-zero state
  // survivor[step][state] = (prev_state << 1) | input_bit
  std::vector<std::vector<std::uint16_t>> survivor(
      num_steps, std::vector<std::uint16_t>(n_states, 0));

  for (std::size_t step = 0; step < num_steps; ++step) {
    std::fill(next_metric.begin(), next_metric.end(), inf);
    for (int s = 0; s < n_states; ++s) {
      if (metric[static_cast<std::size_t>(s)] == inf) continue;
      for (int b = 0; b < 2; ++b) {
        const Branch& br =
            t.branch[static_cast<std::size_t>(s)][static_cast<std::size_t>(b)];
        const double m = metric[static_cast<std::size_t>(s)] +
                         branch_metric(step, br.out0, br.out1);
        if (m < next_metric[static_cast<std::size_t>(br.next_state)]) {
          next_metric[static_cast<std::size_t>(br.next_state)] = m;
          survivor[step][static_cast<std::size_t>(br.next_state)] =
              static_cast<std::uint16_t>((s << 1) | b);
        }
      }
    }
    metric.swap(next_metric);
  }

  // Terminated trellis: trace back from state 0.
  BitVec decoded(num_steps);
  int state = 0;
  for (std::size_t step = num_steps; step-- > 0;) {
    const std::uint16_t sv = survivor[step][static_cast<std::size_t>(state)];
    decoded[step] = static_cast<std::uint8_t>(sv & 1u);
    state = sv >> 1;
  }
  if (decoded.size() < static_cast<std::size_t>(kTail)) return {};
  decoded.resize(decoded.size() - static_cast<std::size_t>(kTail));
  return decoded;
}

}  // namespace

BitVec conv_encode(const BitVec& info) {
  const Trellis& t = trellis();
  BitVec out;
  out.reserve(2 * (info.size() + kTail));
  int state = 0;
  auto push = [&](std::uint8_t bit) {
    const Branch& br = t.branch[static_cast<std::size_t>(state)]
                               [static_cast<std::size_t>(bit)];
    out.push_back(br.out0);
    out.push_back(br.out1);
    state = br.next_state;
  };
  for (std::uint8_t b : info) push(b & 1u);
  for (int i = 0; i < kTail; ++i) push(0);
  return out;
}

BitVec viterbi_decode(const BitVec& coded) {
  if (coded.size() % 2 != 0) {
    throw std::invalid_argument("viterbi_decode: coded length must be even");
  }
  const std::size_t steps = coded.size() / 2;
  return viterbi_core(steps, [&](std::size_t step, std::uint8_t o0,
                                 std::uint8_t o1) {
    return static_cast<double>((coded[2 * step] != o0) +
                               (coded[2 * step + 1] != o1));
  });
}

BitVec viterbi_decode_soft(const std::vector<double>& llrs) {
  if (llrs.size() % 2 != 0) {
    throw std::invalid_argument("viterbi_decode_soft: LLR length must be even");
  }
  const std::size_t steps = llrs.size() / 2;
  // LLR > 0 favors bit 0.  Metric = sum over bits of llr if the hypothesized
  // bit is 1, -llr if 0, shifted to be non-negative via max(|llr|) bound is
  // unnecessary for Viterbi; any affine shift per step cancels.
  return viterbi_core(steps, [&](std::size_t step, std::uint8_t o0,
                                 std::uint8_t o1) {
    const double l0 = llrs[2 * step], l1 = llrs[2 * step + 1];
    return (o0 ? l0 : -l0) + (o1 ? l1 : -l1);
  });
}

}  // namespace flexcore::coding
