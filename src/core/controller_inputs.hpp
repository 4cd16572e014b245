// Model-derived controller inputs, handed over already computed.
//
// The managed controllers derive a few inputs from their exact SystemModel
// at construction: the MppLut samples (one MPP solve each), the full-sun MPP,
// the Fig. 7a crossover power (a RegulatorSelector bisection), and later the
// MPP lookups of every holistic MEP solve.  That is ~68 exact solves per
// controller.  An engine that already holds these quantities on shared
// surfaces (the batch fleet kernel) passes them in a ControllerInputs instead,
// and the controllers read it in place of solving.  Without one they solve
// them on the model.
#pragma once

#include <functional>

#include "common/units.hpp"
#include "core/mpp_tracker.hpp"
#include "harvester/iv_curve.hpp"

namespace hemp {

struct ControllerInputs {
  /// Eq. 7 power estimate -> MPP table, sampled at the tracker's
  /// mid-window measure voltage (MppTrackingController checks it).
  MppLut lut;
  /// model.mpp(1.0): the tracker's cold-start target and the min-energy
  /// mode's light normalisation.
  MaxPowerPoint full_sun_mpp{};
  /// MPP power at the Fig. 7a crossover irradiance; zero when no crossover
  /// exists (the low-light bypass then never engages).
  Watts crossover_power{0.0};
  /// MPP at irradiance `g` (suns): what the holistic MEP solve reads.
  std::function<MaxPowerPoint(double)> mpp;
};

}  // namespace hemp
