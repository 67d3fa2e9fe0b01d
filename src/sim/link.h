// Coded MIMO-OFDM uplink packet simulation (the paper's §5.1 methodology).
//
// Each of the Nt users independently: draws random info bits, encodes them
// with the 802.11 rate-1/2 convolutional code, interleaves per OFDM symbol,
// and Gray-maps onto QAM subcarrier symbols.  The AP detects every
// (subcarrier, OFDM-symbol) MIMO vector with the detector under test,
// then per user: demaps, deinterleaves, Viterbi-decodes and checks the
// packet.  Channels are static over a packet (paper §5) — one ChannelTrace
// per packet, one set_channel per data subcarrier.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "api/runtime.h"
#include "api/uplink_pipeline.h"
#include "channel/rng.h"
#include "channel/trace.h"
#include "coding/interleaver.h"
#include "core/flexcore_detector.h"
#include "detect/detector.h"
#include "modulation/constellation.h"
#include "ofdm/ofdm.h"

namespace flexcore::sim {

/// The link runs the 802.11 numerology of ofdm/ofdm.h.
struct LinkConfig {
  int qam_order = 64;
  /// Requested info bits per user per packet (rounded up via
  /// ofdm::padded_info_bits so coded bits fill whole OFDM symbols).
  std::size_t info_bits_per_user = 1152;
};

/// Result of transporting one packet per user through the link.
struct PacketOutcome {
  std::vector<bool> user_ok;          ///< per-user packet CRC-equivalent
  std::size_t vectors_detected = 0;   ///< MIMO vectors processed
  std::size_t symbol_errors = 0;      ///< raw (pre-FEC) symbol errors
  std::size_t symbols_sent = 0;
  detect::DetectionStats stats;       ///< accumulated detector counters
  double sum_active_pes = 0.0;        ///< sum over subcarriers of PE count
  std::size_t channel_installs = 0;   ///< number of set_channel calls
};

class UplinkPacketLink {
 public:
  explicit UplinkPacketLink(const LinkConfig& cfg);

  /// Simulates one packet burst with hard-decision detection.  The whole
  /// frame (all data subcarriers x all OFDM symbols) is detected as one
  /// job: raw detectors run the per-subcarrier set_channel + detect_batch
  /// lifecycle over it.
  PacketOutcome run_packet(detect::Detector& det,
                           const channel::ChannelTrace& trace,
                           double noise_var, channel::Rng& rng) const;

  /// Same, but driven through an api::UplinkPipeline: the frame is
  /// submitted as ONE api::FrameJob (parallel per-subcarrier preprocessing
  /// + a single subcarrier x vector x path grid), and the facade's
  /// lifecycle counters see every channel and vector.
  PacketOutcome run_packet(api::UplinkPipeline& pipe,
                           const channel::ChannelTrace& trace,
                           double noise_var, channel::Rng& rng) const;

  /// Same, but through the asynchronous multi-cell runtime: the frame is
  /// submitted to `cell` as one job and awaited.  Results are bit-identical
  /// to the pipeline overload (the runtime serializes each cell).  Several
  /// threads can run packets on DIFFERENT cells of one runtime
  /// concurrently — the multi-cell serving shape of fig15.  Throws
  /// std::runtime_error when the ticket completes without a result
  /// (dropped/expired under a saturated queue).
  PacketOutcome run_packet(api::Runtime& rt, api::Cell& cell,
                           const channel::ChannelTrace& trace,
                           double noise_var, channel::Rng& rng) const;

  /// Same, but uses FlexCore's list-based soft output (max-log LLRs) and
  /// soft Viterbi decoding — the paper's "soft detector" future-work
  /// extension.
  PacketOutcome run_packet_soft(core::FlexCoreDetector& det,
                                const channel::ChannelTrace& trace,
                                double noise_var, channel::Rng& rng) const;

  const LinkConfig& config() const noexcept { return cfg_; }
  std::size_t info_bits() const noexcept { return info_bits_; }
  std::size_t ofdm_symbols_per_packet() const noexcept { return n_ofdm_symbols_; }
  const modulation::Constellation& constellation() const noexcept { return c_; }

 private:
  /// Shared packet body: `detect_frame_fn` consumes the whole frame
  /// (channels per subcarrier + subcarrier-major received vectors) and
  /// returns the frame verdicts + lifecycle counters.
  PacketOutcome run_packet_impl(
      const std::function<api::FrameResult(std::span<const linalg::CMat>,
                                           std::span<const linalg::CVec>,
                                           std::size_t)>& detect_frame_fn,
      const channel::ChannelTrace& trace, double noise_var,
      channel::Rng& rng) const;

  LinkConfig cfg_;
  modulation::Constellation c_;
  coding::Interleaver interleaver_;
  std::size_t info_bits_;
  std::size_t n_ofdm_symbols_;
};

}  // namespace flexcore::sim
