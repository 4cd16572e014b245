#include "fleet/population.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "core/energy_manager.hpp"
#include "policy/registry.hpp"
#include "processor/corners.hpp"
#include "trace/generators.hpp"

namespace hemp {

Rng node_rng(const FleetScenario& scenario, int index) {
  return Rng(scenario.seed).fork(static_cast<std::uint64_t>(index));
}

IrradianceTrace make_trace(const FleetScenario& scenario, Rng& rng) {
  // Cloud and indoor decks are tuned for a 0.25 s compressed day: stretch
  // them so event counts stay day-length invariant.
  const double stretch = scenario.day_length.value() / 0.25;
  switch (scenario.trace_kind) {
    case TraceKind::kConstant:
      return IrradianceTrace::constant(scenario.constant_g);
    case TraceKind::kDiurnal: {
      DiurnalArcParams params;
      params.day_length = scenario.day_length;
      return diurnal_arc(rng, params);
    }
    case TraceKind::kClouds: {
      CloudFieldParams params;
      params.day.day_length = scenario.day_length;
      params.mean_gap = Seconds(0.03 * stretch);
      params.mean_duration = Seconds(0.01 * stretch);
      return cloud_field(rng, params);
    }
    case TraceKind::kIndoor: {
      IndoorDutyParams params;
      params.duration = scenario.day_length;
      params.mean_on = Seconds(0.04 * stretch);
      params.mean_off = Seconds(0.02 * stretch);
      return indoor_duty(rng, params);
    }
    case TraceKind::kCsv:
      return IrradianceTrace::from_csv(scenario.trace_csv);
  }
  throw ModelError("make_trace: unknown trace kind");
}

IrradianceTrace make_shared_sky(const FleetScenario& scenario) {
  Rng sky_rng = Rng(scenario.seed).fork(~0ULL);
  return make_trace(scenario, sky_rng);
}

NodeSample sample_node(const FleetScenario& scenario, int index, Rng& rng) {
  static constexpr ProcessCorner kCorners[] = {ProcessCorner::kSlowSlow,
                                               ProcessCorner::kTypical,
                                               ProcessCorner::kFastFast};
  NodeSample s;
  s.index = index;
  s.pv_scale = rng.uniform(scenario.pv_scale_min, scenario.pv_scale_max);
  // Log-uniform: capacitor vendors quote decade series, and a fleet spans
  // decades of storage size, not a linear band.
  s.solar_capacitance =
      Farads(std::exp(rng.uniform(std::log(scenario.solar_cap_min.value()),
                                  std::log(scenario.solar_cap_max.value()))));
  s.conditions.corner =
      kCorners[rng.weighted(scenario.corner_weights.data(),
                            scenario.corner_weights.size())];
  s.conditions.temperature_c =
      std::clamp(rng.normal(scenario.temperature_mean_c,
                            scenario.temperature_sigma_c),
                 -20.0, 85.0);
  s.min_energy = rng.uniform() < scenario.min_energy_fraction;
  s.job_phase = scenario.job_cycles > 0.0
                    ? Seconds(rng.uniform(0.0, scenario.job_period.value()))
                    : Seconds(0.0);
  return s;
}

NodeSample sample_node(const FleetScenario& scenario, int index) {
  Rng rng = node_rng(scenario, index);
  return sample_node(scenario, index, rng);
}

const EnergyPolicy* forced_policy(const FleetScenario& scenario) {
  if (scenario.policy.empty()) return nullptr;
  return &PolicyRegistry::global().at(scenario.policy);
}

const EnergyPolicy& node_policy(const EnergyPolicy* forced,
                                NodeSample& sample) {
  if (forced == nullptr) {
    // The legacy mix (the EnergyManager pair the pre-policy fleet wired).
    return PolicyRegistry::global().at(sample.min_energy ? "mep_hold"
                                                         : "mpp_track");
  }
  if (const EnergyManagerParams* params = forced->manager_params()) {
    sample.min_energy = params->mode == ManagerMode::kMinEnergy;
  }
  return *forced;
}

PvCellParams node_pv(double pv_scale) {
  PvCellParams p;
  p.isc_full_sun = p.isc_full_sun * pv_scale;
  return p;
}

SocConfig node_soc_config(const FleetScenario& scenario,
                          const NodeSample& sample) {
  SocConfig cfg;
  cfg.pv = node_pv(sample.pv_scale);
  cfg.solar_capacitance = sample.solar_capacitance;
  cfg.vdd_capacitance = scenario.vdd_cap;
  cfg.time_step = scenario.time_step;
  cfg.waveform_interval = scenario.waveform_interval;
  cfg.trace_coarsen_eps = scenario.trace_coarsen_eps;
  return cfg;
}

PolicyContext node_policy_context(const FleetScenario& scenario,
                                  const NodeSample& sample,
                                  const SocConfig& config,
                                  const SystemModel& model) {
  PolicyContext ctx;
  ctx.model = &model;
  ctx.workload = PolicyWorkload{scenario.job_cycles, scenario.job_period,
                                scenario.job_deadline, sample.job_phase};
  ctx.day_length = scenario.day_length;
  ctx.solar_capacitance = config.solar_capacitance;
  ctx.vdd_capacitance = config.vdd_capacitance;
  ctx.solar_start_voltage = config.solar_start_voltage;
  return ctx;
}

NodeResult node_result(const NodeSample& sample, const SimTotals& day,
                       const PolicyJobStats& jobs, double mppt_error) {
  NodeResult r;
  r.sample = sample;
  r.cycles = day.cycles;
  r.brownouts = day.brownouts;
  r.timing_faults = day.timing_faults;
  r.jobs_submitted = jobs.submitted;
  r.jobs_completed = jobs.completed;
  r.jobs_missed = jobs.missed;
  r.deadline_hit_rate = jobs.deadline_hit_rate();
  r.mppt_error = mppt_error;
  r.harvested = day.harvested;
  r.delivered = day.delivered_to_processor;
  r.halted = day.halted_time;
  r.energy_per_job = jobs.completed > 0
                         ? day.delivered_to_processor / jobs.completed
                         : Joules(0.0);
  return r;
}

}  // namespace hemp
