// Fleet simulator: N heterogeneous battery-less nodes over one simulated day.
//
// The reference fleet engine.  Each node is drawn, configured and reported
// through fleet/population.hpp — the same functions BatchFleetKernel uses —
// then simulated as one SocSystem transient (dense reference loop, or the
// single-node fast path for policies that opt in), or scored analytically
// by an offline policy; the per-node results reduce into a FleetReport.
//
// Determinism contract: every stochastic choice for node i depends only on
// (scenario.seed, i), each node's transient is single-threaded IEEE
// arithmetic, and results land in per-node slots (sim/sweep.hpp), so the
// parallel run is bit-identical to the serial run and the same seed yields
// the same summary hash on every rerun.
#pragma once

#include <memory>

#include "core/energy_manager.hpp"  // PeriodicJobController lives here now
#include "fleet/report.hpp"
#include "fleet/scenario.hpp"
#include "harvester/light_environment.hpp"
#include "sim/sweep.hpp"

namespace hemp {

class EnergyPolicy;

/// Pool and serial/parallel switch for run(): the node sweep's own options.
using FleetOptions = SweepOptions;

class FleetSimulator {
 public:
  /// Throws ModelError (listing the registered names) when scenario.policy
  /// names a policy the global registry does not know.
  explicit FleetSimulator(FleetScenario scenario);

  /// Run the whole fleet and aggregate.  Safe to call repeatedly; every run
  /// with the same scenario returns a bit-identical report.
  [[nodiscard]] FleetReport run(const FleetOptions& opts = {}) const;

  [[nodiscard]] const FleetScenario& scenario() const { return scenario_; }

  /// The SocSystem engine run() steps the nodes on, by SocSystem::run's rule:
  /// "fast" (the single-node fast path) when the forced policy opts into
  /// SocConfig::fast_path and the auditor is off, "dense" (the reference
  /// loop) otherwise.  The legacy mix's two modes never opt in.  An offline
  /// policy (the DP oracle) runs no transient and reads "dense".
  [[nodiscard]] const char* engine() const;

 private:
  [[nodiscard]] NodeResult run_node(int index,
                                    const IrradianceTrace* shared) const;

  FleetScenario scenario_;
  /// Set when scenario_.shared_sky().
  std::shared_ptr<const IrradianceTrace> shared_trace_;
  /// forced_policy(scenario_); nullptr keeps the legacy sampled mix.
  const EnergyPolicy* forced_policy_ = nullptr;
};

}  // namespace hemp
