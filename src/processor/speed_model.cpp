#include "processor/speed_model.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/numeric.hpp"

namespace hemp {

void SpeedModelParams::validate() const {
  HEMP_REQUIRE(threshold.value() > 0.0, "SpeedModel: threshold must be positive");
  HEMP_REQUIRE(alpha >= 1.0 && alpha <= 2.0, "SpeedModel: alpha out of range [1, 2]");
  HEMP_REQUIRE(reference_voltage > threshold,
               "SpeedModel: reference voltage must exceed threshold");
  HEMP_REQUIRE(reference_frequency.value() > 0.0,
               "SpeedModel: reference frequency must be positive");
  HEMP_REQUIRE(near_threshold_margin.value() > 0.0,
               "SpeedModel: near-threshold margin must be positive");
  HEMP_REQUIRE(subthreshold_slope.value() > 0.0,
               "SpeedModel: subthreshold slope must be positive");
  HEMP_REQUIRE(min_operating_voltage.value() > 0.0 &&
                   min_operating_voltage < max_operating_voltage,
               "SpeedModel: invalid operating voltage envelope");
  HEMP_REQUIRE(max_operating_voltage >= reference_voltage,
               "SpeedModel: reference voltage above max operating voltage");
}

SpeedModel::SpeedModel(const SpeedModelParams& params) : params_(params) {
  params_.validate();
  const double v = params_.reference_voltage.value();
  const double vth = params_.threshold.value();
  gain_ = params_.reference_frequency.value() * v / std::pow(v - vth, params_.alpha);
  f_onset_ = Hertz(alpha_law(subthreshold_onset().value()));
}

double SpeedModel::alpha_law(double v) const {
  const double vth = params_.threshold.value();
  return gain_ * std::pow(v - vth, params_.alpha) / v;
}

Volts SpeedModel::subthreshold_onset() const {
  return params_.threshold + params_.near_threshold_margin;
}

Hertz SpeedModel::max_frequency(Volts v) const {
  // Tolerate float round-off at the envelope edges (grid sweeps land there).
  constexpr double kEdgeTol = 1e-9;
  if (v.value() > params_.max_operating_voltage.value() &&
      v.value() <= params_.max_operating_voltage.value() + kEdgeTol) {
    v = params_.max_operating_voltage;
  }
  if (v.value() < params_.min_operating_voltage.value() &&
      v.value() >= params_.min_operating_voltage.value() - kEdgeTol) {
    v = params_.min_operating_voltage;
  }
  HEMP_CHECK_RANGE(v >= params_.min_operating_voltage && v <= params_.max_operating_voltage,
                   "SpeedModel: supply outside operating envelope");
  const Volts onset = subthreshold_onset();
  if (v >= onset) return Hertz(alpha_law(v.value()));
  const double decades = (v - onset).value() / params_.subthreshold_slope.value();
  return Hertz(f_onset_.value() * std::exp(decades));
}

Volts SpeedModel::voltage_for_frequency(Hertz f) const {
  HEMP_CHECK_RANGE(f.value() > 0.0, "SpeedModel: non-positive frequency");
  const Hertz f_max = max_frequency(params_.max_operating_voltage);
  HEMP_CHECK_RANGE(f <= f_max, "SpeedModel: frequency above what max voltage sustains");
  const Hertz f_min = max_frequency(params_.min_operating_voltage);
  if (f <= f_min) return params_.min_operating_voltage;
  auto g = [&](double v) { return max_frequency(Volts(v)).value() - f.value(); };
  return Volts(numeric::brent_root(g, params_.min_operating_voltage.value(),
                                   params_.max_operating_voltage.value(),
                                   {.x_tol = 1e-9}));
}

}  // namespace hemp
