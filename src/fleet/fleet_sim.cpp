#include "fleet/fleet_sim.hpp"

#include <cmath>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "fleet/population.hpp"
#include "processor/corners.hpp"
#include "regulator/switched_cap.hpp"
#include "sim/soc_system.hpp"
#include "sim/sweep.hpp"

namespace hemp {

FleetSimulator::FleetSimulator(FleetScenario scenario)
    : scenario_(std::move(scenario)) {
  scenario_.validate();
  forced_policy_ = forced_policy(scenario_);
  if (scenario_.shared_sky()) {
    shared_trace_ =
        std::make_shared<const IrradianceTrace>(make_shared_sky(scenario_));
  }
}

const char* FleetSimulator::engine() const {
  // Every node gets the switched-cap regulator and SocConfig's audit default.
  const bool fast = forced_policy_ != nullptr && forced_policy_->fast_path() &&
                    !SocConfig{}.audit;
  return fast ? "fast" : "dense";
}

namespace {

/// Mean relative MPP-voltage error over the waveform samples where the node
/// was tracking under the regulator with a running clock.  Irradiance is
/// quantized to 0.01-sun buckets before the MPP solve so a day-long record
/// costs at most ~100 solves (served by SystemModel's cache thereafter).
double mppt_tracking_error(const Waveform& wf, const SystemModel& model) {
  const std::vector<double>& v_solar = wf.series("v_solar");
  const std::vector<double>& irradiance = wf.series("irradiance");
  const std::vector<double>& frequency = wf.series("frequency_hz");
  const std::vector<double>& path = wf.series("path");
  double total = 0.0;
  std::size_t samples = 0;
  for (std::size_t i = 0; i < v_solar.size(); ++i) {
    if (path[i] != static_cast<double>(static_cast<int>(PowerPath::kRegulated)))
      continue;
    if (frequency[i] <= 0.0 || irradiance[i] < 0.05) continue;
    const double g = std::round(irradiance[i] * 100.0) / 100.0;
    if (g < 0.05) continue;
    const double v_mpp = model.mpp(g).voltage.value();
    if (v_mpp <= 0.0) continue;
    total += std::abs(v_solar[i] - v_mpp) / v_mpp;
    ++samples;
  }
  return samples > 0 ? total / static_cast<double>(samples) : 0.0;
}

}  // namespace

NodeResult FleetSimulator::run_node(int index,
                                    const IrradianceTrace* shared) const {
  // The node's stream: identity draws first, then (per-node skies) its trace.
  Rng rng = node_rng(scenario_, index);
  NodeSample s = sample_node(scenario_, index, rng);
  const EnergyPolicy& policy = node_policy(forced_policy_, s);
  SocConfig cfg = node_soc_config(scenario_, s);
  cfg.fast_path = policy.fast_path();

  const PvCell cell(cfg.pv);
  const SwitchedCapRegulator model_regulator;
  const Processor processor = make_test_chip_at(s.conditions);
  const SystemModel model(cell, model_regulator, processor);

  const IrradianceTrace trace = shared ? *shared : make_trace(scenario_, rng);
  PolicyContext ctx = node_policy_context(scenario_, s, cfg, model);
  ctx.trace = &trace;

  // Offline policies (the DP oracle) score the node analytically — the fleet
  // records the score in place of a transient.
  if (const std::optional<OfflineScore> score = policy.offline(ctx)) {
    SimTotals day;
    day.cycles = score->cycles;
    day.harvested = score->harvested;
    day.delivered_to_processor = score->delivered;
    day.halted_time = score->halted;
    return node_result(s, day,
                       {score->jobs_submitted, score->jobs_completed,
                        score->jobs_missed},
                       0.0);
  }

  // --- One simulated day. ---------------------------------------------------
  const std::unique_ptr<PolicyController> controller = policy.make_controller(ctx);
  SocSystem soc(cfg, std::make_unique<SwitchedCapRegulator>(), processor);
  const SimResult sim = soc.run(trace, *controller, scenario_.day_length);
  return node_result(s, sim.totals, controller->job_stats(),
                     mppt_tracking_error(sim.waveform, model));
}

FleetReport FleetSimulator::run(const FleetOptions& opts) const {
  const IrradianceTrace* shared = shared_trace_.get();
  std::vector<NodeResult> results = sweep_indexed(
      static_cast<std::size_t>(scenario_.nodes),
      [&](std::size_t i) { return run_node(static_cast<int>(i), shared); },
      opts);
  return aggregate(scenario_, std::move(results));
}

}  // namespace hemp
