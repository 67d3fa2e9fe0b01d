// String/config-driven detector construction — the library's front door.
//
// Every detector in the library is registered in a DetectorRegistry under
// the same spelling its name() method reports, so specs round-trip:
//
//   modulation::Constellation qam(64);
//   api::DetectorConfig cfg;
//   cfg.constellation = &qam;
//   auto det = api::make_detector("flexcore-128", cfg);  // name() == spec
//   auto fcsd = api::make_detector("fcsd-L2", cfg);
//   auto kbest = api::make_detector("kbest-8", cfg);
//
// Parametric families parse their parameter out of the spec suffix
// (flexcore-<PEs>, a-flexcore-<PEs>, fcsd-L<L>, kbest-<K>, akbest-<B>);
// bare family names fall back to the values in DetectorConfig.  The
// path-parallel families additionally accept the precision-tier suffix
// ":i16" (e.g. "flexcore-128:i16" or "fcsd-L1:i16"), which runs their block
// kernels in the quantized int16 tier; the suffix is the only way to pick
// a tier, and a bare spec runs fp64.  Unknown specs — including a
// tier suffix on a family without block kernels, e.g. "zf:i16" — throw
// std::invalid_argument listing the registered families.
//
// This registry is the seam later scaling work plugs into: alternative
// backends register additional factories and every driver picks them up by
// name, with no construction-site changes.
#pragma once

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/flexcore_detector.h"
#include "detect/detector.h"
#include "detect/ml_sphere.h"

namespace flexcore::api {

/// Tuning knobs consumed by the registered factories.  `constellation` is
/// required (detectors keep a non-owning pointer to it, so it must outlive
/// them); everything else has library defaults.
struct DetectorConfig {
  const modulation::Constellation* constellation = nullptr;

  /// Base configuration for the "flexcore"/"a-flexcore" families (a spec
  /// suffix overrides num_pes; the spec family decides adaptive vs plain
  /// and the tier suffix decides `precision`).  Its pe_model also feeds
  /// the "akbest" family.
  core::FlexCoreConfig flexcore;

  /// Options for the "ml-sd" family.
  detect::MlSphereDecoder::Options ml_sphere;

  /// a-FlexCore activation threshold used when flexcore.adaptive_threshold
  /// is unset (0); 0.95 is the paper's Fig. 10 operating point.
  double adaptive_threshold = 0.95;
};

/// Registry of detector factories.  A factory inspects the spec and returns
/// nullptr when the spec does not belong to its family; the first factory
/// that accepts wins.  A factory that accepts a spec but finds it invalid
/// (e.g. "flexcore-0") throws std::invalid_argument.
class DetectorRegistry {
 public:
  using Factory = std::function<std::unique_ptr<detect::Detector>(
      std::string_view spec, const DetectorConfig& cfg)>;

  struct Entry {
    std::string family;     ///< e.g. "kbest"
    std::string canonical;  ///< e.g. "kbest-8" — round-trips through name()
    std::string pattern;    ///< e.g. "kbest[-<K>]" (for error messages)
    Factory factory;
  };

  void add(Entry entry);

  /// Constructs the detector `spec` names.  Throws std::invalid_argument
  /// for unknown specs (listing the registered families) and when
  /// cfg.constellation is null.
  std::unique_ptr<detect::Detector> make(std::string_view spec,
                                         const DetectorConfig& cfg) const;

  /// One canonical, fully-parameterized spelling per family; every entry
  /// satisfies make(n, cfg)->name() == n.
  std::vector<std::string> canonical_names() const;

  /// Accepted spec patterns, for help/error text.
  std::vector<std::string> patterns() const;

  /// The process-wide registry, pre-populated with all built-in detectors.
  static DetectorRegistry& global();

 private:
  std::vector<Entry> entries_;
};

/// Constructs a detector by name from the global registry.
std::unique_ptr<detect::Detector> make_detector(std::string_view spec,
                                                const DetectorConfig& cfg);

/// One canonical, fully-parameterized spec per registered family (e.g.
/// "flexcore-64", "fcsd-L1", "kbest-8", ...), in registration order.  Every
/// returned spec constructs via make_detector and round-trips through
/// name().  Benches/tests should iterate this instead of hard-coding the
/// name table, so new backends are picked up automatically.
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
