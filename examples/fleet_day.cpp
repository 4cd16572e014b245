// A compressed day across a small fleet of heterogeneous battery-less nodes.
//
// Walks the fleet layer end to end: build a scenario in code, peek at the
// sampled per-node hardware, run the fleet (cloudy per-node skies over a
// shared diurnal arc), and read the population aggregates — the distribution
// of forward progress, brownouts, and deadline hits that a single-node
// simulation can't show.  Runs in a few seconds on one core.
#include <cstdio>

#include "fleet/fleet_sim.hpp"
#include "fleet/population.hpp"
#include "processor/corners.hpp"

int main() {
  using namespace hemp;

  FleetScenario scenario;
  scenario.name = "fleet_day";
  scenario.nodes = 24;
  scenario.seed = 7;
  scenario.day_length = Seconds(0.1);  // one compressed diurnal arc
  scenario.time_step = Seconds(10e-6);
  scenario.trace_kind = TraceKind::kClouds;
  scenario.job_cycles = 1e6;            // one recognition-scale job...
  scenario.job_period = Seconds(0.02);  // ...every 20 ms of compressed day
  scenario.job_deadline = Seconds(8e-3);
  scenario.validate();

  const FleetSimulator sim(scenario);

  std::printf("=== %d-node fleet, one compressed day ===\n\n", scenario.nodes);
  std::printf("sampled hardware (first 6 nodes):\n");
  std::printf("%6s %10s %10s %8s %8s %8s\n", "node", "pv_scale", "cap (uF)",
              "corner", "temp C", "policy");
  for (int i = 0; i < 6; ++i) {
    const NodeSample s = sample_node(scenario, i);
    std::printf("%6d %10.2f %10.1f %8s %8.1f %8s\n", i, s.pv_scale,
                s.solar_capacitance.value() * 1e6,
                to_string(s.conditions.corner).c_str(),
                s.conditions.temperature_c,
                s.min_energy ? "eco" : "perf");
  }

  const FleetReport report = sim.run();

  std::printf("\npopulation results:\n");
  std::printf("  harvested        %.4g J total\n",
              report.total_harvested.value());
  std::printf("  forward progress %.3g cycles total "
              "(p05 %.3g / p50 %.3g / p95 %.3g per node)\n",
              report.total_cycles, report.cycles.p05, report.cycles.p50,
              report.cycles.p95);
  std::printf("  brownouts        %ld total (p95 %g per node)\n",
              report.total_brownouts, report.brownouts.p95);
  std::printf("  jobs             %ld/%ld completed, deadline hit rate "
              "p05 %.2f / p50 %.2f\n",
              report.total_jobs_completed, report.total_jobs_submitted,
              report.deadline_hit_rate.p05, report.deadline_hit_rate.p50);
  std::printf("  MPPT error       p50 %.1f%% / p95 %.1f%%\n",
              report.mppt_error.p50 * 100.0, report.mppt_error.p95 * 100.0);
  std::printf("\nsummary hash %s — rerun and it will match bit for bit.\n",
              hash_hex(report.summary_hash).c_str());
  return 0;
}
