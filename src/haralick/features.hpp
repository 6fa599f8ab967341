// The fourteen Haralick textural features (Haralick, Shanmugam & Dinstein,
// 1973) of a symmetric co-occurrence matrix: their identities and selection
// sets. Every filter computes them through KernelScratch in kernel.hpp: the
// feature sweep, and in Fast mode the integer moments of the bin window for
// f1, f3, f4 and f5; the dense and sparse reference passes of paper
// Sec. 4.4.1 live in tests/oracle.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string_view>

namespace h4d::haralick {

/// Haralick's f1..f14, in his numbering order.
enum class Feature : int {
  AngularSecondMoment = 0,  // f1
  Contrast,                 // f2
  Correlation,              // f3
  SumOfSquaresVariance,     // f4
  InverseDifferenceMoment,  // f5
  SumAverage,               // f6
  SumVariance,              // f7
  SumEntropy,               // f8
  Entropy,                  // f9
  DifferenceVariance,       // f10
  DifferenceEntropy,        // f11
  InfoMeasureCorrelation1,  // f12
  InfoMeasureCorrelation2,  // f13
  MaximalCorrelationCoeff,  // f14
};

inline constexpr int kNumFeatures = 14;

std::string_view feature_name(Feature f);
/// Short identifier usable in file names ("asm", "contrast", ...).
std::string_view feature_slug(Feature f);

/// Set of selected features, as a bitmask over Feature.
class FeatureSet {
 public:
  constexpr FeatureSet() = default;
  constexpr FeatureSet(std::initializer_list<Feature> fs) {
    for (Feature f : fs) set(f);
  }

  constexpr void set(Feature f) { mask_ |= (1u << static_cast<int>(f)); }
  constexpr bool has(Feature f) const { return (mask_ >> static_cast<int>(f)) & 1u; }
  constexpr int count() const { return __builtin_popcount(mask_); }
  constexpr std::uint32_t mask() const { return mask_; }
  static constexpr FeatureSet from_mask(std::uint32_t m) {
    FeatureSet s;
    s.mask_ = m & ((1u << kNumFeatures) - 1u);
    return s;
  }

  static constexpr FeatureSet all() { return from_mask((1u << kNumFeatures) - 1u); }

  /// The four most computation-expensive features used throughout the
  /// paper's evaluation (Sec. 5.1): ASM, Correlation, Sum of Squares, IDM.
  static constexpr FeatureSet paper_eval() {
    return FeatureSet{Feature::AngularSecondMoment, Feature::Correlation,
                      Feature::SumOfSquaresVariance, Feature::InverseDifferenceMoment};
  }

  friend constexpr bool operator==(const FeatureSet&, const FeatureSet&) = default;

 private:
  std::uint32_t mask_ = 0;
};

/// Result of a feature computation; unselected slots hold 0.
struct FeatureVector {
  std::array<double, kNumFeatures> value{};

  double operator[](Feature f) const { return value[static_cast<std::size_t>(f)]; }
  double& operator[](Feature f) { return value[static_cast<std::size_t>(f)]; }
};

}  // namespace h4d::haralick
