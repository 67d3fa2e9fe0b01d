#include "api/detector_registry.h"

#include <charconv>
#include <optional>
#include <utility>

#include "core/adaptive_kbest.h"
#include "detect/fcsd.h"
#include "detect/kbest.h"
#include "detect/linear.h"
#include "detect/sic.h"
#include "detect/trellis.h"

namespace flexcore::api {

namespace {

using modulation::Constellation;

const Constellation& require_constellation(const DetectorConfig& cfg,
                                           std::string_view spec) {
  if (cfg.constellation == nullptr) {
    throw std::invalid_argument("api::make_detector(\"" + std::string(spec) +
                                "\"): DetectorConfig.constellation is null");
  }
  return *cfg.constellation;
}

/// Strips a trailing precision-tier suffix (":fp32" / ":i16") off a spec,
/// recording the tier in *precision (fp64 when no suffix is present).
/// Only the path-parallel factories call this — "zf:fp32" and "zf:i16"
/// stay unknown specs.
std::string_view strip_precision(std::string_view spec,
                                 detect::Precision* precision) {
  *precision = detect::Precision::kFloat64;
  if (spec.ends_with(":fp32")) {
    *precision = detect::Precision::kFloat32;
    return spec.substr(0, spec.size() - 5);
  }
  if (spec.ends_with(":i16")) {
    *precision = detect::Precision::kInt16;
    return spec.substr(0, spec.size() - 4);
  }
  return spec;
}

/// Parses "<family>" (returns nullopt in *value) or "<family>-<digits>"
/// (returns the parsed number).  Returns false when spec is neither.
bool match_family(std::string_view spec, std::string_view family,
                  std::optional<std::size_t>* value) {
  if (spec == family) {
    value->reset();
    return true;
  }
  if (spec.size() <= family.size() + 1 ||
      spec.substr(0, family.size()) != family ||
      spec[family.size()] != '-') {
    return false;
  }
  const std::string_view digits = spec.substr(family.size() + 1);
  std::size_t parsed = 0;
  const auto [ptr, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), parsed);
  if (ec != std::errc() || ptr != digits.data() + digits.size()) return false;
  *value = parsed;
  return true;
}

/// Exact-name factory for parameterless detectors, with optional alias.
template <typename Make>
DetectorRegistry::Factory exact(std::string name, std::string alias,
                                Make make) {
  return [name = std::move(name), alias = std::move(alias),
          make](std::string_view spec, const DetectorConfig& cfg)
             -> std::unique_ptr<detect::Detector> {
    if (spec != name && (alias.empty() || spec != alias)) return nullptr;
    return make(require_constellation(cfg, spec), cfg);
  };
}

void register_builtins(DetectorRegistry& r) {
  r.add({"zf", "zf", "zf",
         exact("zf", "", [](const Constellation& c, const DetectorConfig&) {
           return std::make_unique<detect::LinearDetector>(
               c, detect::LinearKind::kZeroForcing);
         })});
  r.add({"mmse", "mmse", "mmse",
         exact("mmse", "", [](const Constellation& c, const DetectorConfig&) {
           return std::make_unique<detect::LinearDetector>(
               c, detect::LinearKind::kMmse);
         })});
  r.add({"zf-sic", "zf-sic", "zf-sic (alias: sic)",
         exact("zf-sic", "sic",
               [](const Constellation& c, const DetectorConfig&) {
                 return std::make_unique<detect::SicDetector>(c);
               })});
  r.add({"trellis50", "trellis50", "trellis50 (alias: trellis)",
         exact("trellis50", "trellis",
               [](const Constellation& c, const DetectorConfig&) {
                 return std::make_unique<detect::TrellisDetector>(c);
               })});
  r.add({"ml-sd", "ml-sd", "ml-sd (alias: ml; options: cfg.ml_sphere)",
         exact("ml-sd", "ml",
               [](const Constellation& c, const DetectorConfig& cfg) {
                 return std::make_unique<detect::MlSphereDecoder>(
                     c, cfg.ml_sphere);
               })});

  r.add({"fcsd", "fcsd-L1", "fcsd-L<L>[:fp32|:i16] (bare = L1)",
         [](std::string_view spec, const DetectorConfig& cfg)
             -> std::unique_ptr<detect::Detector> {
           detect::Precision precision;
           const std::string_view stem = strip_precision(spec, &precision);
           std::size_t levels = 1;
           if (stem != "fcsd") {
             constexpr std::string_view kPrefix = "fcsd-L";
             if (stem.size() <= kPrefix.size() ||
                 stem.substr(0, kPrefix.size()) != kPrefix) {
               return nullptr;
             }
             const std::string_view digits = stem.substr(kPrefix.size());
             const auto [ptr, ec] = std::from_chars(
                 digits.data(), digits.data() + digits.size(), levels);
             if (ec != std::errc() ||
                 ptr != digits.data() + digits.size()) {
               return nullptr;
             }
           }
           return std::make_unique<detect::FcsdDetector>(
               require_constellation(cfg, spec), levels, precision);
         }});

  r.add({"kbest", "kbest-8", "kbest-<K> (bare = K8)",
         [](std::string_view spec, const DetectorConfig& cfg)
             -> std::unique_ptr<detect::Detector> {
           std::optional<std::size_t> k;
           if (!match_family(spec, "kbest", &k)) return nullptr;
           if (k.has_value() && *k == 0) {
             throw std::invalid_argument(
                 "api::make_detector: kbest needs K >= 1");
           }
           return std::make_unique<detect::KBestDetector>(
               require_constellation(cfg, spec), k.value_or(8));
         }});

  r.add({"akbest", "akbest-16",
         "akbest-<budget> (bare = 16; Pe model: cfg.flexcore.pe_model)",
         [](std::string_view spec, const DetectorConfig& cfg)
             -> std::unique_ptr<detect::Detector> {
           std::optional<std::size_t> budget;
           if (!match_family(spec, "akbest", &budget)) return nullptr;
           if (budget.has_value() && *budget == 0) {
             throw std::invalid_argument(
                 "api::make_detector: akbest needs a budget >= 1");
           }
           return std::make_unique<core::AdaptiveKBestDetector>(
               require_constellation(cfg, spec), budget.value_or(16),
               cfg.flexcore.pe_model);
         }});

  r.add({"flexcore", "flexcore-64",
         "flexcore[-<PEs>][:fp32|:i16] (base config: cfg.flexcore)",
         [](std::string_view spec, const DetectorConfig& cfg)
             -> std::unique_ptr<detect::Detector> {
           core::FlexCoreConfig fcfg = cfg.flexcore;
           const std::string_view stem =
               strip_precision(spec, &fcfg.precision);
           std::optional<std::size_t> pes;
           if (!match_family(stem, "flexcore", &pes)) return nullptr;
           fcfg.adaptive_threshold = 0.0;  // the spec family decides
           if (pes.has_value()) fcfg.num_pes = *pes;
           return std::make_unique<core::FlexCoreDetector>(
               require_constellation(cfg, spec), fcfg);
         }});

  r.add({"a-flexcore", "a-flexcore-64",
         "a-flexcore[-<PEs>][:fp32|:i16] (threshold: "
         "cfg.flexcore.adaptive_threshold or cfg.adaptive_threshold)",
         [](std::string_view spec, const DetectorConfig& cfg)
             -> std::unique_ptr<detect::Detector> {
           core::FlexCoreConfig fcfg = cfg.flexcore;
           const std::string_view stem =
               strip_precision(spec, &fcfg.precision);
           std::optional<std::size_t> pes;
           if (!match_family(stem, "a-flexcore", &pes)) return nullptr;
           if (fcfg.adaptive_threshold <= 0.0) {
             fcfg.adaptive_threshold =
                 cfg.adaptive_threshold > 0.0 ? cfg.adaptive_threshold : 0.95;
           }
           if (pes.has_value()) fcfg.num_pes = *pes;
           return std::make_unique<core::FlexCoreDetector>(
               require_constellation(cfg, spec), fcfg);
         }});

  // Surfaces the int16 quantized tier in list_specs()/canonical_names() as
  // its own entry, so drivers that iterate canonical specs exercise it.
  // Construction is handled by the "flexcore" factory above (which strips
  // the ":i16" suffix), so this factory never matches anything itself.
  r.add({"flexcore:i16", "flexcore-64:i16",
         "<path-parallel spec>:i16 (int16 quantized block kernels, "
         "LUT-compiled slicing)",
         [](std::string_view, const DetectorConfig&)
             -> std::unique_ptr<detect::Detector> { return nullptr; }});
}

}  // namespace

void DetectorRegistry::add(Entry entry) {
  entries_.push_back(std::move(entry));
}

std::unique_ptr<detect::Detector> DetectorRegistry::make(
    std::string_view spec, const DetectorConfig& cfg) const {
  for (const Entry& e : entries_) {
    if (auto det = e.factory(spec, cfg)) return det;
  }
  std::string msg =
      "api::make_detector: no detector \"" + std::string(spec) + "\"; known:";
  for (const Entry& e : entries_) {
    msg += ' ';
    msg += e.pattern;
    msg += ',';
  }
  if (!entries_.empty()) msg.pop_back();
  throw std::invalid_argument(msg);
}

std::vector<std::string> DetectorRegistry::canonical_names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& e : entries_) names.push_back(e.canonical);
  return names;
}

std::vector<std::string> DetectorRegistry::patterns() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.pattern);
  return out;
}

DetectorRegistry& DetectorRegistry::global() {
  static DetectorRegistry* registry = [] {
    auto* r = new DetectorRegistry();
    register_builtins(*r);
    return r;
  }();
  return *registry;
}

std::unique_ptr<detect::Detector> make_detector(std::string_view spec,
                                                const DetectorConfig& cfg) {
  return DetectorRegistry::global().make(spec, cfg);
}

std::vector<std::string> list_specs() {
  return DetectorRegistry::global().canonical_names();
}

}  // namespace flexcore::api
