// Microprocessor clock-speed model: frequency as a function of supply voltage.
//
// Two regions, matching measured 65 nm silicon behaviour (paper Fig. 11a):
//   * super/near-threshold: alpha-power law  f = k * (V - Vth)^alpha / V;
//   * subthreshold (below Vth + near_threshold_margin): exponential roll-off
//     f = f(onset) * exp((V - onset) / slope), which is what pushes the
//     conventional minimum-energy point up out of deep subthreshold.
//
// Calibrated so f(1.0 V) ~ 1.2 GHz (Fig. 11a right axis) with a roll-off that
// leaves the conventional MEP near 0.33 V.
#pragma once

#include "common/units.hpp"

namespace hemp {

struct SpeedModelParams {
  /// Threshold voltage of the logic transistors.
  Volts threshold{0.30};
  /// Alpha-power-law velocity-saturation exponent.
  double alpha = 1.05;
  /// Calibration point: frequency reached at `reference_voltage`.
  Volts reference_voltage{1.0};
  Hertz reference_frequency{1.2e9};
  /// Above Vth + margin the alpha-power law holds; below it the exponential
  /// subthreshold branch takes over (continuously).
  Volts near_threshold_margin{0.06};
  /// Subthreshold e-folding slope (V per e-fold of frequency).
  Volts subthreshold_slope{0.05};
  /// Logic stops resolving below this supply.
  Volts min_operating_voltage{0.20};
  /// Maximum rated supply.
  Volts max_operating_voltage{1.2};

  void validate() const;
};

class SpeedModel {
 public:
  explicit SpeedModel(const SpeedModelParams& params = {});

  /// Maximum clock frequency sustainable at supply `v`.
  /// Throws RangeError outside [min, max] operating voltage.
  [[nodiscard]] Hertz max_frequency(Volts v) const;

  /// Smallest supply able to sustain `f` (inverse of max_frequency).
  /// Throws RangeError when `f` exceeds the frequency at max voltage.
  [[nodiscard]] Volts voltage_for_frequency(Hertz f) const;

  [[nodiscard]] Volts min_voltage() const { return params_.min_operating_voltage; }
  [[nodiscard]] Volts max_voltage() const { return params_.max_operating_voltage; }
  [[nodiscard]] const SpeedModelParams& params() const { return params_; }

 private:
  [[nodiscard]] double alpha_law(double v) const;
  [[nodiscard]] Volts subthreshold_onset() const;

  SpeedModelParams params_;
  double gain_ = 0.0;  // k in the alpha-power law, from the calibration point
  Hertz f_onset_{0.0};  ///< alpha_law at the subthreshold onset
};

}  // namespace hemp
