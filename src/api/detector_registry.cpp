#include "api/detector_registry.h"

#include <charconv>
#include <optional>

#include "core/adaptive_kbest.h"
#include "detect/fcsd.h"
#include "detect/kbest.h"
#include "detect/linear.h"
#include "detect/sic.h"
#include "detect/trellis.h"

namespace flexcore::api {

namespace {

/// One line of the spec table: the canonical spec list_specs() returns
/// and the pattern the unknown-spec message lists, in that order.
struct SpecEntry {
  std::string_view canonical;
  std::string_view pattern;
};

constexpr SpecEntry kSpecs[] = {
    {"zf", "zf"},
    {"mmse", "mmse"},
    {"zf-sic", "zf-sic (alias: sic)"},
    {"trellis50", "trellis50 (alias: trellis)"},
    {"ml-sd", "ml-sd (alias: ml; options: cfg.ml_sphere)"},
    {"fcsd-L1", "fcsd-L<L> (bare = L1)"},
    {"kbest-8", "kbest-<K> (bare = K8)"},
    {"akbest-16",
     "akbest-<budget> (bare = 16; Pe model: cfg.flexcore.pe_model)"},
    {"flexcore-64", "flexcore[-<PEs>][:i16] (base config: cfg.flexcore)"},
    {"a-flexcore-64",
     "a-flexcore[-<PEs>][:i16] (threshold: "
     "cfg.flexcore.adaptive_threshold, else 0.95)"},
    {"flexcore-64:i16",
     "<flexcore or a-flexcore spec>:i16 (int16 quantized block kernels, "
     "LUT-compiled slicing)"},
};

/// A spec split once into <family>[-<number>][:i16]; fcsd spells its
/// number L<levels>.  A suffix after the last '-' that is not a number
/// belongs to the family name ("zf-sic", "a-flexcore").
struct ParsedSpec {
  std::string_view family;
  std::optional<std::size_t> number;
  bool levels = false;  ///< the number was spelled L<n>
  detect::Precision precision = detect::Precision::kFloat64;
};

ParsedSpec parse_spec(std::string_view spec) {
  ParsedSpec p;
  p.family = spec;
  if (p.family.ends_with(":i16")) {
    p.precision = detect::Precision::kInt16;
    p.family.remove_suffix(4);
  }
  const std::size_t dash = p.family.rfind('-');
  if (dash == std::string_view::npos) return p;
  std::string_view digits = p.family.substr(dash + 1);
  const bool levels = digits.starts_with('L');
  if (levels) digits.remove_prefix(1);
  std::size_t number = 0;
  const auto [ptr, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), number);
  if (ec != std::errc() || ptr != digits.data() + digits.size()) return p;
  p.family = p.family.substr(0, dash);
  p.number = number;
  p.levels = levels;
  return p;
}

const modulation::Constellation& require_constellation(
    const DetectorConfig& cfg, std::string_view spec) {
  if (cfg.constellation == nullptr) {
    throw std::invalid_argument("api::make_detector(\"" + std::string(spec) +
                                "\"): DetectorConfig.constellation is null");
  }
  return *cfg.constellation;
}

[[noreturn]] void throw_unknown(std::string_view spec) {
  std::string msg =
      "api::make_detector: no detector \"" + std::string(spec) + "\"; known:";
  for (const SpecEntry& e : kSpecs) {
    msg += ' ';
    msg += e.pattern;
    msg += ',';
  }
  msg.pop_back();
  throw std::invalid_argument(msg);
}

}  // namespace

std::unique_ptr<detect::Detector> make_detector(std::string_view spec,
                                                const DetectorConfig& cfg) {
  const ParsedSpec p = parse_spec(spec);
  const std::string_view f = p.family;
  const bool fp64 = p.precision == detect::Precision::kFloat64;
  // Parameterless families take neither a number nor a tier.
  if (fp64 && !p.number) {
    if (f == "zf" || f == "mmse") {
      return std::make_unique<detect::LinearDetector>(
          require_constellation(cfg, spec),
          f == "zf" ? detect::LinearKind::kZeroForcing
                    : detect::LinearKind::kMmse);
    }
    if (f == "zf-sic" || f == "sic") {
      return std::make_unique<detect::SicDetector>(
          require_constellation(cfg, spec));
    }
    if (f == "trellis50" || f == "trellis") {
      return std::make_unique<detect::TrellisDetector>(
          require_constellation(cfg, spec));
    }
    if (f == "ml-sd" || f == "ml") {
      return std::make_unique<detect::MlSphereDecoder>(
          require_constellation(cfg, spec), cfg.ml_sphere);
    }
  }
  if (fp64 && f == "fcsd" && (!p.number || p.levels)) {
    return std::make_unique<detect::FcsdDetector>(
        require_constellation(cfg, spec), p.number.value_or(1));
  }
  if (p.levels) throw_unknown(spec);
  if (fp64 && f == "kbest") {
    if (p.number == 0u) {
      throw std::invalid_argument("api::make_detector: kbest needs K >= 1");
    }
    return std::make_unique<detect::KBestDetector>(
        require_constellation(cfg, spec), p.number.value_or(8));
  }
  if (fp64 && f == "akbest") {
    if (p.number == 0u) {
      throw std::invalid_argument(
          "api::make_detector: akbest needs a budget >= 1");
    }
    return std::make_unique<core::AdaptiveKBestDetector>(
        require_constellation(cfg, spec), p.number.value_or(16),
        cfg.flexcore.pe_model);
  }
  if (f == "flexcore" || f == "a-flexcore") {
    core::FlexCoreConfig fcfg = cfg.flexcore;
    fcfg.precision = p.precision;
    if (p.number) fcfg.num_pes = *p.number;
    if (f == "flexcore") {
      fcfg.adaptive_threshold = 0.0;
    } else if (fcfg.adaptive_threshold <= 0.0) {
      fcfg.adaptive_threshold = 0.95;
    }
    return std::make_unique<core::FlexCoreDetector>(
        require_constellation(cfg, spec), fcfg);
  }
  throw_unknown(spec);
}

std::vector<std::string> list_specs() {
  std::vector<std::string> specs;
  for (const SpecEntry& e : kSpecs) specs.emplace_back(e.canonical);
  return specs;
}

}  // namespace flexcore::api
