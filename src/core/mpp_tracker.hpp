// Time-based maximum-power-point tracking (paper Sec. VI-A, Eqs. 6-7, Fig. 8).
//
// Instead of sensing current, the scheme measures how long the solar-node
// voltage takes to fall between two comparator thresholds while the load is
// known.  From the capacitor energy balance over that interval,
//
//   (P_draw - P_in) * t = C * (V1^2 - V2^2) / 2
//   =>  P_in = P_draw - C * (V1^2 - V2^2) / (2 t)                      (Eq. 7)
//
// the incoming solar power follows directly.  A lookup table built offline
// from the cell's I-V family maps the estimated input power to the new MPP
// voltage, and DVFS retargets the load to hold the node there.
#pragma once

#include <functional>
#include <optional>

#include "common/interpolation.hpp"
#include "common/units.hpp"
#include "core/system_model.hpp"
#include "processor/processor.hpp"
#include "sim/soc_system.hpp"
#include "storage/comparator.hpp"

namespace hemp {

struct ControllerInputs;  // core/controller_inputs.hpp

/// Eq. 7: input power from a measured V1 -> V2 fall time under load `p_draw`.
Watts estimate_input_power(Watts p_draw, Farads c, Volts v1, Volts v2, Seconds t);

/// MppLut's default irradiance sampling (suns): `kMppLutSamples` uniform
/// samples across [kMppLutGMin, kMppLutGMax].
inline constexpr double kMppLutGMin = 0.02;
inline constexpr double kMppLutGMax = 1.2;
inline constexpr int kMppLutSamples = 48;

/// Offline-built lookup table from measured input power to the MPP voltage.
class MppLut {
 public:
  /// Sample the cell's I-V family across irradiance [g_min, g_max]; the
  /// "measured power" axis is the cell output at `measure_voltage` (the
  /// midpoint of the comparator window, where Eq. 7's estimate applies).
  MppLut(const PvCell& cell, Volts measure_voltage, double g_min = kMppLutGMin,
         double g_max = kMppLutGMax, int samples = kMppLutSamples);

  /// The same sampling over supplied evaluators: `measured(g)` is the cell's
  /// output at the measure voltage and `mpp(g)` its MPP.  The PvCell
  /// constructor is this one over the exact cell; a fleet engine passes its
  /// precomputed surfaces.  `mpp` is only called for kept samples.
  MppLut(Volts measure_voltage, const std::function<Watts(double)>& measured,
         const std::function<MaxPowerPoint(double)>& mpp,
         double g_min = kMppLutGMin, double g_max = kMppLutGMax,
         int samples = kMppLutSamples);

  /// MPP voltage for an estimated input power (clamped to the table range).
  [[nodiscard]] Volts mpp_voltage_for(Watts p_in) const;
  /// Estimated irradiance for an input power (diagnostics / tests).
  [[nodiscard]] double irradiance_for(Watts p_in) const;
  /// Available MPP power for an estimated input power.
  [[nodiscard]] Watts mpp_power_for(Watts p_in) const;

  [[nodiscard]] Volts measure_voltage() const { return measure_voltage_; }

 private:
  Volts measure_voltage_;
  PiecewiseLinear power_to_vmpp_;
  PiecewiseLinear power_to_g_;
  PiecewiseLinear power_to_pmpp_;
};

struct MppTrackerParams {
  /// How often the DVFS loop nudges the operating point.
  Seconds control_period{500e-6};
  /// Solar-node voltage error tolerated before stepping DVFS.
  Volts deadband{0.02};
  /// Slew tolerance for derivative damping: when the node is already moving
  /// toward the target faster than this per control period, hold the ladder
  /// (the node integrates power imbalance, so stepping while it slews causes
  /// limit cycling).
  Volts slew_tolerance{0.002};
  /// Threshold-timer window (paper Fig. 8's V1 and V2).
  Volts v_high{1.0};
  Volts v_low{0.9};
  /// Must match the SoC's solar storage cap (Eq. 7's C).
  Farads solar_capacitance{47e-6};
  /// Number of DVFS ladder steps.
  int dvfs_steps = 48;
  /// Highest Vdd the ladder uses (stays inside the regulator envelope).
  Volts vdd_ceiling{0.8};

  /// Where the MppLut measures the cell: the timer window's midpoint.
  [[nodiscard]] Volts lut_measure_voltage() const {
    return Volts(0.5 * (v_high.value() + v_low.value()));
  }

  void validate() const;
};

/// Runtime MPP-tracking DVFS controller.
///
/// Steady state: proportional ladder stepping keeps the solar node at the MPP
/// voltage (drawing more pulls the node down, drawing less lets it rise).
/// Transient: when the light collapses, the node falls through the timer
/// window; Eq. 7 estimates the new input power; the LUT yields the new MPP
/// target and the ladder is re-seeded near the sustainable level.
class MppTrackingController : public SocController {
 public:
  /// `inputs` (optional) supplies the LUT and the full-sun MPP instead of
  /// solving them on `model`.
  MppTrackingController(const SystemModel& model, const MppTrackerParams& params,
                        const ControllerInputs* inputs = nullptr);

  void on_start(const SocState& state, SocCommand& cmd) override;
  void on_tick(const SocState& state, SocCommand& cmd) override;
  void step_hint(const SocState& state, SocStepHint& hint) const override;

  [[nodiscard]] Volts target_voltage() const { return v_target_; }
  [[nodiscard]] std::optional<Watts> last_power_estimate() const {
    return last_estimate_;
  }
  [[nodiscard]] int retarget_count() const { return retargets_; }

 private:
  /// Step the DVFS ladder: positive = draw more power (higher level).
  void step(int delta, SocCommand& cmd);
  /// Seed the ladder at the level whose source draw best matches `p_budget`.
  void seed_for_budget(Watts p_budget, const SocState& state, SocCommand& cmd);

  const SystemModel* model_;
  MppTrackerParams params_;
  MppLut lut_;
  DvfsLadder ladder_;
  ThresholdTimer timer_;
  /// Cold-start MPP target, solved once at construction so on_start (and the
  /// stepped fast path) never runs the exact MPP solver.
  Volts v_mpp_full_sun_{0.0};
  std::size_t level_ = 0;
  Volts v_target_{0.0};
  Volts prev_v_solar_{0.0};
  Seconds next_control_{0.0};
  std::optional<Watts> last_estimate_;
  int retargets_ = 0;
};

}  // namespace hemp
