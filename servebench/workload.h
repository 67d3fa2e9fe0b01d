// The serving benchmark's workloads and their seeded input pools.
//
// A workload is a set of cells sharing one air interface (antennas, users,
// constellation, frame shape, SNR) and a detector spec per cell.  Each cell
// draws a fixed pool of frames from the workload seed BEFORE any runtime is
// built; the serving phases cycle through the pool, so the runtime only
// ever sees generated FrameJobs and no generation runs while timing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "channel/channel.h"
#include "channel/rng.h"
#include "modulation/constellation.h"
#include "sim/frame_synth.h"

namespace servebench {

struct Workload {
  std::string name;
  /// Initial registry spec of each cell (one entry per cell).
  std::vector<std::string> detectors;
  /// Scripted reconfiguration: before frame seq of a cell with
  /// seq % reconfig_every == 0 (seq > 0) the generator toggles the cell
  /// between detectors[c] and toggle_spec.  0 = never.
  std::size_t reconfig_every = 0;
  std::string toggle_spec;
  int qam = 16;
  std::size_t antennas = 8;
  std::size_t users = 8;
  std::size_t subcarriers = 12;
  std::size_t symbols = 2;  ///< OFDM symbols (vectors) per subcarrier
  double snr_db = 10.0;
  /// One channel realization per cell for the whole run; the cell serves
  /// with reuse_preprocessing (a static coherence interval).
  bool static_channel = false;
  /// Antenna clusters of an api::ShardedRuntime; 0 = monolithic Runtime.
  std::size_t shards = 0;
  /// Frames drawn per cell.  With a reconfig script it must be a multiple
  /// of 2 * reconfig_every, so pool frame i always runs under the same
  /// spec (the correctness check keys decisions by (cell, seq % pool)).
  std::size_t pool_frames = 32;

  std::size_t cells() const { return detectors.size(); }
  double noise_var() const {
    return flexcore::channel::noise_var_for_snr_db(snr_db);
  }
  /// Spec in force for frame `seq` of cell `c` under the reconfig script.
  const std::string& spec_at(std::size_t c, std::uint64_t seq) const {
    if (reconfig_every == 0 || (seq / reconfig_every) % 2 == 0) {
      return detectors[c];
    }
    return toggle_spec;
  }
};

/// The workloads, by name (see servebench/manifest.json for why each one
/// is in the benchmark).
inline const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> w(3);
    // Two static 12x12 64-QAM cells, one per exact/quantized tier: with
    // preprocessing amortized away, the path grid and reconstruction are
    // the whole service.
    w[0].name = "coherent-12x12";
    w[0].detectors = {"flexcore-64", "flexcore-64:i16"};
    w[0].qam = 64;
    w[0].antennas = w[0].users = 12;
    w[0].subcarriers = 48;
    w[0].symbols = 7;
    w[0].snr_db = 18.0;
    w[0].static_channel = true;
    w[0].pool_frames = 64;
    // Six small mobile cells: a new channel every frame plus scripted
    // path-budget swaps, so per-frame preprocessing and the runtime's
    // fixed per-frame cost dominate.
    w[1].name = "mobile-8x8-i16";
    w[1].detectors.assign(6, "flexcore-32:i16");
    w[1].reconfig_every = 16;
    w[1].toggle_spec = "flexcore-16:i16";
    w[1].qam = 16;
    w[1].antennas = w[1].users = 8;
    w[1].subcarriers = 12;
    w[1].symbols = 2;
    w[1].snr_db = 10.0;
    w[1].pool_frames = 128;
    // Two massive-MIMO cells behind the decentralized partial-QR
    // fronthaul (C = 2 antenna clusters).
    w[2].name = "massive-64x8-sharded";
    w[2].detectors.assign(2, "flexcore-32");
    w[2].qam = 16;
    w[2].antennas = 64;
    w[2].users = 8;
    w[2].subcarriers = 48;
    w[2].symbols = 7;
    w[2].snr_db = -2.0;
    w[2].shards = 2;
    w[2].pool_frames = 32;
    return w;
  }();
  return all;
}

inline const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload \"" + name + "\"");
}

/// splitmix64: decorrelates the per-cell streams of one seed.
inline std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Seed of the static channels.  A static cell models one fixed site, so
/// its channel does not follow --seed (which draws symbols and noise):
/// with 96 channel matrices per run, a per-seed channel moved the
/// coherent workload's SER over three decades between seeds (1e-5 to
/// 2e-2 at 18 dB), which no regression bound can hold.
inline constexpr std::uint64_t kSiteSeed = 0x5173;

/// Draws every cell's frame pool for `seed`.
inline std::vector<std::vector<flexcore::sim::SynthFrame>> draw_pools(
    const Workload& wl, const flexcore::modulation::Constellation& qam,
    std::uint64_t seed) {
  namespace ch = flexcore::channel;
  std::vector<std::vector<flexcore::sim::SynthFrame>> pools(wl.cells());
  std::vector<flexcore::linalg::CMat> channels(wl.subcarriers);
  for (std::size_t c = 0; c < wl.cells(); ++c) {
    ch::Rng traffic(mix_seed(seed, c));
    ch::Rng site(mix_seed(kSiteSeed, c));
    if (wl.static_channel) {
      for (auto& h : channels) h = ch::rayleigh_iid(wl.antennas, wl.users, site);
    }
    pools[c].reserve(wl.pool_frames);
    for (std::size_t i = 0; i < wl.pool_frames; ++i) {
      if (!wl.static_channel) {
        for (auto& h : channels) {
          h = ch::rayleigh_iid(wl.antennas, wl.users, traffic);
        }
      }
      pools[c].push_back(flexcore::sim::synth_frame_over(
          qam, channels, wl.symbols, wl.noise_var(), traffic));
    }
  }
  return pools;
}

/// FNV-1a over every vector's decided symbols: the decision fingerprint
/// the correctness checks compare between serving and replays.
template <typename Results>
std::uint64_t decision_hash(const Results& results) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& r : results) {
    for (const int s : r.symbols) {
      h ^= static_cast<std::uint32_t>(s);
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

/// Tier of a registry spec: 1 for the quantized ":i16" tier, 0 for fp64.
inline std::size_t tier_of(const std::string& spec) {
  return spec.size() >= 4 && spec.compare(spec.size() - 4, 4, ":i16") == 0;
}

/// The spec with its tier suffix replaced by `tier`'s.
inline std::string spec_in_tier(const std::string& spec, std::size_t tier) {
  const std::string base = tier_of(spec) ? spec.substr(0, spec.size() - 4) : spec;
  return tier == 1 ? base + ":i16" : base;
}

}  // namespace servebench
