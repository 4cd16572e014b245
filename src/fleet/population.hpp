// Fleet population: who each node of a FleetScenario is.
//
// Both fleet engines — FleetSimulator and BatchFleetKernel — draw, configure
// and report every node through these functions, so they simulate the same
// population by construction.  Node i draws from node_rng(scenario, i): its
// identity first (sample_node), then, for per-node skies, its trace
// (make_trace).  A shared sky comes from a stream no node uses.
#pragma once

#include "common/rng.hpp"
#include "core/system_model.hpp"
#include "fleet/report.hpp"
#include "fleet/scenario.hpp"
#include "harvester/light_environment.hpp"
#include "harvester/pv_cell.hpp"
#include "policy/energy_policy.hpp"
#include "sim/soc_system.hpp"

namespace hemp {

[[nodiscard]] Rng node_rng(const FleetScenario& scenario, int index);

/// A sky of `scenario.trace_kind`, drawn from `rng`.
[[nodiscard]] IrradianceTrace make_trace(const FleetScenario& scenario,
                                         Rng& rng);
/// The one sky of a FleetScenario::shared_sky() fleet.
[[nodiscard]] IrradianceTrace make_shared_sky(const FleetScenario& scenario);

/// Draw node `index`'s identity from `rng`, leaving the stream where the
/// node's sky continues.  Every draw is always taken.
[[nodiscard]] NodeSample sample_node(const FleetScenario& scenario, int index,
                                     Rng& rng);
/// The same draw on node_rng(scenario, index).
[[nodiscard]] NodeSample sample_node(const FleetScenario& scenario, int index);

/// `scenario.policy` resolved in the global registry (ModelError listing the
/// registered names when unknown); nullptr keeps the legacy sampled mix.
[[nodiscard]] const EnergyPolicy* forced_policy(const FleetScenario& scenario);

/// The policy `sample` runs: `forced`, else mep_hold / mpp_track by the
/// sampled mode.  A forced EnergyManager policy records its own mode in
/// `sample.min_energy`; any other forced policy keeps the draw.
const EnergyPolicy& node_policy(const EnergyPolicy* forced, NodeSample& sample);

/// A node's cell: only Isc scales with pv_scale (same Voc/Rs/Rsh).
[[nodiscard]] PvCellParams node_pv(double pv_scale);

/// The node's cell and storage plus the scenario's rail capacitance, time
/// step, waveform interval and trace-coarsening budget on SocConfig defaults.
[[nodiscard]] SocConfig node_soc_config(const FleetScenario& scenario,
                                        const NodeSample& sample);

/// The node's PolicyContext, less the engine's own `trace` / `inputs`.
[[nodiscard]] PolicyContext node_policy_context(const FleetScenario& scenario,
                                                const NodeSample& sample,
                                                const SocConfig& config,
                                                const SystemModel& model);

/// The node's result; the only place deadline hit rate and energy per job
/// are derived.
[[nodiscard]] NodeResult node_result(const NodeSample& sample,
                                     const SimTotals& day,
                                     const PolicyJobStats& jobs,
                                     double mppt_error);

}  // namespace hemp
