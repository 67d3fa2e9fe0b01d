#include "sim/link.h"

#include <stdexcept>

#include "api/uplink_pipeline.h"
#include "coding/convolutional.h"

namespace flexcore::sim {

UplinkPacketLink::UplinkPacketLink(const LinkConfig& cfg)
    : cfg_(cfg),
      c_(cfg.qam_order),
      interleaver_(ofdm::coded_bits_per_ofdm_symbol(c_.bits_per_symbol()),
                   static_cast<std::size_t>(c_.bits_per_symbol())),
      info_bits_(ofdm::padded_info_bits(cfg.info_bits_per_user,
                                        c_.bits_per_symbol())) {
  const std::size_t ncbps =
      ofdm::coded_bits_per_ofdm_symbol(c_.bits_per_symbol());
  n_ofdm_symbols_ = 2 * (info_bits_ + 6) / ncbps;
}

namespace {

/// Per-user transmit pipeline: info bits -> coded/interleaved -> symbols.
struct UserTx {
  coding::BitVec info;
  std::vector<int> symbols;  // length = n_ofdm_symbols * data_subcarriers
};

UserTx make_user_tx(const modulation::Constellation& c,
                    const coding::Interleaver& ilv, std::size_t info_bits,
                    channel::Rng& rng) {
  UserTx tx;
  tx.info.resize(info_bits);
  for (auto& b : tx.info) b = rng.bit();
  coding::BitVec coded = coding::conv_encode(tx.info);
  coded = ilv.interleave_stream(coded);
  const int bps = c.bits_per_symbol();
  tx.symbols.resize(coded.size() / static_cast<std::size_t>(bps));
  for (std::size_t s = 0; s < tx.symbols.size(); ++s) {
    tx.symbols[s] = c.map_bits(coded, s * static_cast<std::size_t>(bps));
  }
  return tx;
}

}  // namespace

PacketOutcome UplinkPacketLink::run_packet(detect::Detector& det,
                                           const channel::ChannelTrace& trace,
                                           double noise_var,
                                           channel::Rng& rng) const {
  return run_packet_impl(
      [&](std::span<const linalg::CMat> channels,
          std::span<const linalg::CVec> ys, std::size_t nv) {
        // Per-subcarrier lifecycle over the frame: set_channel, then one
        // batch of all OFDM symbols sharing that channel.
        api::FrameResult fr;
        fr.results.resize(ys.size());
        detect::BatchResult batch;
        for (std::size_t f = 0; f < channels.size(); ++f) {
          det.set_channel(channels[f], noise_var);
          fr.sum_active_paths += static_cast<double>(det.parallel_tasks());
          ++fr.channels_installed;
          det.detect_batch(ys.subspan(f * nv, nv), &batch);
          api::fold_batch_into_frame(batch, f * nv, &fr);
        }
        return fr;
      },
      trace, noise_var, rng);
}

PacketOutcome UplinkPacketLink::run_packet(api::UplinkPipeline& pipe,
                                           const channel::ChannelTrace& trace,
                                           double noise_var,
                                           channel::Rng& rng) const {
  if (pipe.constellation().order() != cfg_.qam_order) {
    throw std::invalid_argument(
        "run_packet: pipeline constellation does not match "
        "LinkConfig.qam_order");
  }
  return run_packet_impl(
      [&](std::span<const linalg::CMat> channels,
          std::span<const linalg::CVec> ys, std::size_t nv) {
        api::FrameJob job;
        job.channels = channels;
        job.ys = ys;
        job.vectors_per_channel = nv;
        job.noise_var = noise_var;
        return pipe.detect_frame(job);
      },
      trace, noise_var, rng);
}

PacketOutcome UplinkPacketLink::run_packet(api::Runtime& rt, api::Cell& cell,
                                           const channel::ChannelTrace& trace,
                                           double noise_var,
                                           channel::Rng& rng) const {
  if (cell.constellation().order() != cfg_.qam_order) {
    throw std::invalid_argument(
        "run_packet: cell constellation does not match LinkConfig.qam_order");
  }
  return run_packet_impl(
      [&](std::span<const linalg::CMat> channels,
          std::span<const linalg::CVec> ys, std::size_t nv) {
        api::FrameJob job;
        job.channels = channels;
        job.ys = ys;
        job.vectors_per_channel = nv;
        job.noise_var = noise_var;
        api::FrameTicket ticket = rt.submit(cell, job);
        const api::TicketStatus status = ticket.wait();
        if (status != api::TicketStatus::kDone) {
          throw std::runtime_error(
              std::string("run_packet: frame completed as ") +
              api::to_string(status) +
              (ticket.error().empty() ? "" : ": " + ticket.error()));
        }
        return ticket.take();
      },
      trace, noise_var, rng);
}

PacketOutcome UplinkPacketLink::run_packet_impl(
    const std::function<api::FrameResult(std::span<const linalg::CMat>,
                                         std::span<const linalg::CVec>,
                                         std::size_t)>& detect_frame_fn,
    const channel::ChannelTrace& trace, double noise_var,
    channel::Rng& rng) const {
  const std::size_t nt = trace.per_subcarrier.front().cols();
  const std::size_t nsc = ofdm::kDataSubcarriers;
  if (trace.per_subcarrier.size() < nsc) {
    throw std::invalid_argument(
        "run_packet: trace has fewer subcarriers than needed");
  }

  // Transmit side.
  std::vector<UserTx> users(nt);
  for (auto& u : users) u = make_user_tx(c_, interleaver_, info_bits_, rng);

  PacketOutcome out;
  out.user_ok.assign(nt, false);

  // Detected symbol index per user, time-major like UserTx::symbols:
  // slot = t * nsc + f.
  std::vector<std::vector<int>> detected(
      nt, std::vector<int>(users[0].symbols.size()));

  // Build the whole frame: channels are per-subcarrier (static over the
  // packet) and symbol t of subcarrier f uses trace.per_subcarrier[f].
  // All (subcarrier, OFDM symbol) received vectors are generated up front,
  // subcarrier-major, and submitted as ONE frame job — the paper's
  // flattened subframe workload.
  linalg::CVec s(nt);
  std::vector<linalg::CVec> ys(nsc * n_ofdm_symbols_);
  for (std::size_t f = 0; f < nsc; ++f) {
    for (std::size_t t = 0; t < n_ofdm_symbols_; ++t) {
      const std::size_t slot = t * nsc + f;
      for (std::size_t u = 0; u < nt; ++u) {
        s[u] = c_.point(users[u].symbols[slot]);
      }
      ys[f * n_ofdm_symbols_ + t] =
          channel::transmit(trace.per_subcarrier[f], s, noise_var, rng);
    }
  }

  const api::FrameResult fr = detect_frame_fn(
      std::span<const linalg::CMat>(trace.per_subcarrier.data(), nsc), ys,
      n_ofdm_symbols_);
  out.stats += fr.stats;
  out.vectors_detected += ys.size();
  out.sum_active_pes += fr.sum_active_paths;
  out.channel_installs += fr.channels_installed;
  for (std::size_t f = 0; f < nsc; ++f) {
    for (std::size_t t = 0; t < n_ofdm_symbols_; ++t) {
      const std::size_t slot = t * nsc + f;
      const detect::DetectionResult& res = fr.results[f * n_ofdm_symbols_ + t];
      for (std::size_t u = 0; u < nt; ++u) {
        detected[u][slot] = res.symbols[u];
        ++out.symbols_sent;
        if (res.symbols[u] != users[u].symbols[slot]) ++out.symbol_errors;
      }
    }
  }

  // Receive side per user: demap -> deinterleave -> Viterbi -> compare.
  for (std::size_t u = 0; u < nt; ++u) {
    coding::BitVec bits;
    bits.reserve(detected[u].size() *
                 static_cast<std::size_t>(c_.bits_per_symbol()));
    for (int sym : detected[u]) c_.unmap_bits(sym, bits);
    bits = interleaver_.deinterleave_stream(bits);
    const coding::BitVec decoded = coding::viterbi_decode(bits);
    out.user_ok[u] = (decoded == users[u].info);
  }
  return out;
}

PacketOutcome UplinkPacketLink::run_packet_soft(
    core::FlexCoreDetector& det, const channel::ChannelTrace& trace,
    double noise_var, channel::Rng& rng) const {
  const std::size_t nt = trace.per_subcarrier.front().cols();
  const std::size_t nsc = ofdm::kDataSubcarriers;
  const int bps = c_.bits_per_symbol();

  std::vector<UserTx> users(nt);
  for (auto& u : users) u = make_user_tx(c_, interleaver_, info_bits_, rng);

  PacketOutcome out;
  out.user_ok.assign(nt, false);

  // Per-user LLR stream aligned with the interleaved coded bits.
  std::vector<std::vector<double>> llr(
      nt, std::vector<double>(users[0].symbols.size() *
                              static_cast<std::size_t>(bps)));

  linalg::CVec s(nt);
  for (std::size_t f = 0; f < nsc; ++f) {
    det.set_channel(trace.per_subcarrier[f], noise_var);
    out.sum_active_pes += static_cast<double>(det.parallel_tasks());
    ++out.channel_installs;
    for (std::size_t t = 0; t < n_ofdm_symbols_; ++t) {
      const std::size_t slot = t * nsc + f;
      for (std::size_t u = 0; u < nt; ++u) {
        s[u] = c_.point(users[u].symbols[slot]);
      }
      const linalg::CVec y =
          channel::transmit(trace.per_subcarrier[f], s, noise_var, rng);
      const core::SoftOutput soft = det.detect_soft(y);
      out.stats += soft.hard.stats;
      ++out.vectors_detected;
      for (std::size_t u = 0; u < nt; ++u) {
        ++out.symbols_sent;
        if (soft.hard.symbols[u] != users[u].symbols[slot]) ++out.symbol_errors;
        for (int b = 0; b < bps; ++b) {
          llr[u][slot * static_cast<std::size_t>(bps) +
                 static_cast<std::size_t>(b)] =
              soft.llrs[u][static_cast<std::size_t>(b)];
        }
      }
    }
  }

  for (std::size_t u = 0; u < nt; ++u) {
    const std::vector<double> dllr = interleaver_.deinterleave_stream(llr[u]);
    const coding::BitVec decoded = coding::viterbi_decode_soft(dllr);
    out.user_ok[u] = (decoded == users[u].info);
  }
  return out;
}

}  // namespace flexcore::sim
