// Battery model for the conventional (non-harvesting) baseline.
//
// The paper positions its battery-less SoC against battery-powered designs
// and cites the battery-aware regulator-scheduling work of Cho et al.
// (ISLPED'08, ref [19]): as the battery discharges its terminal voltage
// drops, and the best (regulator, DVFS) configuration changes with it.  This
// module provides the battery substrate for that baseline: an open-circuit
// voltage curve over state of charge, internal resistance, and discharge
// bookkeeping.
#pragma once

#include "common/interpolation.hpp"
#include "common/units.hpp"

namespace hemp {

struct BatteryParams {
  /// Total charge capacity.
  Coulombs capacity{3.6};  // 1 mAh
  /// Open-circuit voltage vs state-of-charge (SoC in [0,1], ascending).
  /// Default approximates a single NiMH-class cell whose voltage range
  /// brackets the processor rail — the regime where the direct-connection
  /// (passive voltage scaling, refs [17-18]) option is actually exercised.
  std::vector<std::pair<double, double>> ocv_curve{
      {0.0, 0.90}, {0.05, 1.05}, {0.2, 1.15}, {0.5, 1.25},
      {0.8, 1.32}, {1.0, 1.40}};
  /// Internal series resistance.
  Ohms internal_resistance{2.0};
  /// Battery is unusable below this terminal voltage.
  Volts cutoff{0.90};

  void validate() const;
};

class Battery {
 public:
  explicit Battery(const BatteryParams& params = {}, double initial_soc = 1.0);

  // hemp-analyzer: allow(unit-boundary) — dimensionless fraction in [0, 1]
  [[nodiscard]] double state_of_charge() const { return soc_; }
  [[nodiscard]] Coulombs charge_remaining() const {
    return Coulombs(params_.capacity.value() * soc_);
  }

  /// Open-circuit voltage at the current state of charge.
  [[nodiscard]] Volts open_circuit_voltage() const;
  [[nodiscard]] Volts open_circuit_voltage(double soc) const;

  /// Terminal voltage when sourcing `i` (OCV minus the IR drop).
  [[nodiscard]] Volts terminal_voltage(Amps i) const;

  /// True when the battery can still deliver `i` above the cutoff voltage.
  [[nodiscard]] bool can_supply(Amps i) const;

  /// Draw `i` for `dt`; returns the charge actually removed (clamps at
  /// empty).  Throws RangeError for negative current (this model does not
  /// recharge — the paper's point is precisely that batteries deplete).
  Coulombs discharge(Amps i, Seconds dt);

  /// Total energy delivered to the load so far (terminal voltage x charge).
  [[nodiscard]] Joules energy_delivered() const { return energy_delivered_; }

  [[nodiscard]] const BatteryParams& params() const { return params_; }

 private:
  BatteryParams params_;
  PiecewiseLinear ocv_;
  double soc_;
  Joules energy_delivered_{0.0};
};

}  // namespace hemp
