// String/config-driven detector construction — the library's front door.
//
// Every detector reports, through name(), a spec that constructs it again,
// so specs round-trip:
//
//   modulation::Constellation qam(64);
//   api::DetectorConfig cfg;
//   cfg.constellation = &qam;
//   auto det = api::make_detector("flexcore-128", cfg);  // name() == spec
//   auto fcsd = api::make_detector("fcsd-L2", cfg);
//   auto kbest = api::make_detector("kbest-8", cfg);
//
// A spec is <family>[-<number>][:i16].  Parametric families take their
// parameter from the number (flexcore-<PEs>, a-flexcore-<PEs>, fcsd-L<L>,
// kbest-<K>, akbest-<B>); bare family names fall back to the values in
// DetectorConfig or the family's default.  The FlexCore families
// (flexcore, a-flexcore) additionally accept the precision-tier suffix
// ":i16" (e.g. "flexcore-128:i16"), which runs their block kernels in the
// quantized int16 tier; the suffix is the only way to pick a tier, and a
// bare spec runs fp64.  Unknown specs — including a tier suffix on any
// other family, e.g. "fcsd-L1:i16" or "zf:i16" — throw
// std::invalid_argument listing the known spec patterns.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/flexcore_detector.h"
#include "detect/detector.h"
#include "detect/ml_sphere.h"

namespace flexcore::api {

/// Tuning knobs make_detector reads.  `constellation` is required
/// (detectors keep a non-owning pointer to it, so it must outlive them);
/// everything else has library defaults.
struct DetectorConfig {
  const modulation::Constellation* constellation = nullptr;

  /// Base configuration for the "flexcore"/"a-flexcore" families.  A spec
  /// number overrides num_pes, the tier suffix decides `precision`, and
  /// the spec family decides adaptive vs plain: a-flexcore activates paths
  /// up to flexcore.adaptive_threshold when it is > 0, and up to 0.95 (the
  /// paper's Fig. 10 operating point) otherwise.  Its pe_model also feeds
  /// the "akbest" family.
  core::FlexCoreConfig flexcore;

  /// Options for the "ml-sd" family.
  detect::MlSphereDecoder::Options ml_sphere;
};

/// Constructs the detector `spec` names.  Throws std::invalid_argument for
/// unknown specs (listing the known spec patterns), for invalid parameters
/// (e.g. "kbest-0") and when cfg.constellation is null.
std::unique_ptr<detect::Detector> make_detector(std::string_view spec,
                                                const DetectorConfig& cfg);

/// One canonical, fully-parameterized spec per family (e.g. "flexcore-64",
/// "fcsd-L1", "kbest-8", ...) plus one for the int16 tier, in a fixed
/// order.  Every returned spec constructs via make_detector and
/// round-trips through name().  Benches/tests should iterate this instead
/// of hard-coding the name table.
std::vector<std::string> list_specs();

/// Same, but returns the concrete detector type for callers that need
/// subtype-specific API (e.g. FlexCoreDetector::detect_soft).  Throws
/// std::invalid_argument when the spec constructs a different type.
template <typename D>
std::unique_ptr<D> make_detector_as(std::string_view spec,
                                    const DetectorConfig& cfg) {
  std::unique_ptr<detect::Detector> base = make_detector(spec, cfg);
  if (auto* typed = dynamic_cast<D*>(base.get())) {
    base.release();
    return std::unique_ptr<D>(typed);
  }
  throw std::invalid_argument("api::make_detector_as: \"" +
                              std::string(spec) +
                              "\" does not construct the requested type");
}

}  // namespace flexcore::api
