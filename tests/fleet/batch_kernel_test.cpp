#include "fleet/batch_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/solver_stats.hpp"
#include "common/thread_pool.hpp"
#include "core/regulator_selector.hpp"
#include "fleet/fleet_sim.hpp"
#include "fleet/population.hpp"
#include "processor/corners.hpp"
#include "regulator/switched_cap.hpp"

namespace hemp {
namespace {

/// Smoke-scale scenario: small fleet, short compressed day.
FleetScenario quick_scenario() {
  FleetScenario s;
  s.name = "batch-test";
  s.nodes = 8;
  s.seed = 42;
  s.day_length = Seconds(0.02);
  s.time_step = Seconds(10e-6);
  s.waveform_interval = Seconds(200e-6);
  s.trace_kind = TraceKind::kConstant;
  s.constant_g = 0.9;
  s.job_cycles = 2e5;
  s.job_period = Seconds(5e-3);
  s.job_deadline = Seconds(2e-3);
  return s;
}

double rel_gap(double a, double b) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1e-12});
  return std::fabs(a - b) / scale;
}

/// Assert the batch kernel reproduces the reference FleetSimulator modally.
///
/// The kernel is an event-driven integrator over the same closed forms, not a
/// re-execution of the tick loop, so two regimes exist (see DESIGN.md):
///
///   * Converged nodes — the vast majority — track the reference within a few
///     percent on energy and within the slew-gate jitter on cycles (the MPP
///     tracker's dv gate samples a marginal quantity every control period;
///     tick-scale phase offsets flip some of those decisions, shifting ladder
///     cadence without changing qualitative behaviour).
///
///   * Bifurcated nodes sit on a knife edge of the reference's *draw-based*
///     light estimate: one ladder step of difference at a single reassess
///     instant decides between staying regulated and entering the low-light
///     bypass (which can latch for the rest of the day when nothing
///     discharges the node below the threshold-timer window).  No
///     re-discretized integrator can adjudicate these identically, so the
///     contract bounds their *count*, not their trajectories.
void expect_equivalent(const FleetScenario& scenario, double energy_tol,
                       double cycles_tol) {
  const FleetReport ref = FleetSimulator(scenario).run({.parallel = false});
  const BatchFleetKernel kernel(scenario);
  const FleetReport batch = kernel.run({.parallel = false});
  ASSERT_EQ(ref.node_results.size(), batch.node_results.size());
  int bifurcated = 0;
  double agg_harv_ref = 0.0, agg_harv_bat = 0.0;
  double agg_cyc_ref = 0.0, agg_cyc_bat = 0.0;
  for (std::size_t i = 0; i < ref.node_results.size(); ++i) {
    const NodeResult& r = ref.node_results[i];
    const NodeResult& b = batch.node_results[i];
    SCOPED_TRACE("node " + std::to_string(i) +
                 (r.sample.min_energy ? " (min-energy)" : " (max-perf)"));
    EXPECT_EQ(r.sample.pv_scale, b.sample.pv_scale);
    EXPECT_EQ(r.sample.min_energy, b.sample.min_energy);
    // Submission is a pure function of the job phase/period — always exact.
    EXPECT_EQ(r.jobs_submitted, b.jobs_submitted);
    if (rel_gap(r.cycles, b.cycles) > 0.5 ||
        std::abs(r.jobs_completed - b.jobs_completed) > 1) {
      ++bifurcated;  // modal disagreement: counted, not compared
      continue;
    }
    agg_harv_ref += r.harvested.value();
    agg_harv_bat += b.harvested.value();
    agg_cyc_ref += r.cycles;
    agg_cyc_bat += b.cycles;
    EXPECT_LT(rel_gap(r.harvested.value(), b.harvested.value()), energy_tol)
        << "harvested ref=" << r.harvested.value()
        << " batch=" << b.harvested.value();
    EXPECT_LT(rel_gap(r.delivered.value(), b.delivered.value()), cycles_tol)
        << "delivered ref=" << r.delivered.value()
        << " batch=" << b.delivered.value();
    EXPECT_LT(rel_gap(r.cycles, b.cycles), cycles_tol)
        << "cycles ref=" << r.cycles << " batch=" << b.cycles;
    EXPECT_LE(std::abs(r.jobs_completed - b.jobs_completed), 1);
  }
  // At most a quarter of the population may sit on a reference knife edge.
  EXPECT_LE(bifurcated,
            std::max(1, static_cast<int>(ref.node_results.size()) / 4));
  // Converged-population aggregates are tighter than any single node.
  EXPECT_LT(rel_gap(agg_harv_ref, agg_harv_bat), energy_tol)
      << "aggregate harvested ref=" << agg_harv_ref
      << " batch=" << agg_harv_bat;
  EXPECT_LT(rel_gap(agg_cyc_ref, agg_cyc_bat), cycles_tol)
      << "aggregate cycles ref=" << agg_cyc_ref << " batch=" << agg_cyc_bat;
}

TEST(BatchFleetKernel, SameSeedBitIdenticalReport) {
  const BatchFleetKernel kernel(quick_scenario());
  const FleetReport a = kernel.run();
  const FleetReport b = kernel.run();
  EXPECT_EQ(a.summary_hash, b.summary_hash);
}

TEST(BatchFleetKernel, ParallelBitIdenticalToSerial) {
  const BatchFleetKernel kernel(quick_scenario());
  const FleetReport serial = kernel.run({.parallel = false});
  const FleetReport parallel = kernel.run({.parallel = true});
  EXPECT_EQ(serial.summary_hash, parallel.summary_hash);
  EXPECT_EQ(serial.total_cycles, parallel.total_cycles);
}

TEST(BatchFleetKernel, RunEqualsAggregateOfRunNodeOnEveryPool) {
  // run() is one run_node per node, sharded node by node, then aggregate().
  // A ragged fleet (19 nodes: no multiple of any pool size) on a per-node
  // cloudy sky, so nodes step at genuinely different cadences, must give
  // exactly the serial run_node loop's results on any pool.
  FleetScenario s = quick_scenario();
  s.nodes = 19;
  s.trace_kind = TraceKind::kClouds;
  const BatchFleetKernel kernel(s);
  std::vector<NodeResult> loop;
  for (int i = 0; i < s.nodes; ++i) loop.push_back(kernel.run_node(i));
  const FleetReport expected = aggregate(s, std::move(loop));

  ThreadPool one(1);
  ThreadPool four(4);
  const std::map<std::string, BatchKernelOptions> runs = {
      {"serial", {.parallel = false}},
      {"shared pool", {.parallel = true}},
      {"1-thread pool", {.pool = &one}},
      {"4-thread pool", {.pool = &four}},
  };
  for (const auto& [name, opts] : runs) {
    SCOPED_TRACE(name);
    const FleetReport got = kernel.run(opts);
    EXPECT_EQ(got.summary_hash, expected.summary_hash);
    EXPECT_EQ(got.total_cycles, expected.total_cycles);
    ASSERT_EQ(got.node_results.size(), expected.node_results.size());
    for (std::size_t i = 0; i < got.node_results.size(); ++i) {
      SCOPED_TRACE("node " + std::to_string(i));
      const NodeResult& a = got.node_results[i];
      const NodeResult& b = expected.node_results[i];
      EXPECT_EQ(a.sample.index, b.sample.index);
      EXPECT_EQ(a.cycles, b.cycles);
      EXPECT_EQ(a.brownouts, b.brownouts);
      EXPECT_EQ(a.timing_faults, b.timing_faults);
      EXPECT_EQ(a.jobs_submitted, b.jobs_submitted);
      EXPECT_EQ(a.jobs_completed, b.jobs_completed);
      EXPECT_EQ(a.jobs_missed, b.jobs_missed);
      EXPECT_EQ(a.deadline_hit_rate, b.deadline_hit_rate);
      EXPECT_EQ(a.mppt_error, b.mppt_error);
      EXPECT_EQ(a.harvested.value(), b.harvested.value());
      EXPECT_EQ(a.delivered.value(), b.delivered.value());
      EXPECT_EQ(a.halted.value(), b.halted.value());
      EXPECT_EQ(a.energy_per_job.value(), b.energy_per_job.value());
    }
  }
}

TEST(BatchFleetKernel, RunNodeMatchesRun) {
  const BatchFleetKernel kernel(quick_scenario());
  const FleetReport report = kernel.run();
  const NodeResult lone = kernel.run_node(3);
  EXPECT_EQ(report.node_results[3].cycles, lone.cycles);
  EXPECT_EQ(report.node_results[3].harvested.value(), lone.harvested.value());
}

TEST(BatchFleetKernel, NoExactSolvesDuringRun) {
  const BatchFleetKernel kernel(quick_scenario());
  const auto before = solver_stats::snapshot();
  (void)kernel.run();
  const auto delta = solver_stats::delta_since(before);
  EXPECT_EQ(delta.total(), 0u);
  EXPECT_EQ(delta.mpp_solves, 0u);
  EXPECT_EQ(delta.regulated_solves, 0u);
}

/// The hardware population and policy mix scenarios/smoke.scn and
/// scenarios/day1000.scn share.
constexpr const char* kShippedPopulation =
    "trace = clouds\n"
    "shared_trace = false\n"
    "pv_scale_min = 0.6\n"
    "pv_scale_max = 1.4\n"
    "solar_cap_min_uf = 22\n"
    "solar_cap_max_uf = 100\n"
    "vdd_cap_uf = 10\n"
    "corner_ss = 0.2\n"
    "corner_tt = 0.6\n"
    "corner_ff = 0.2\n"
    "temperature_mean_c = 25\n"
    "temperature_sigma_c = 8\n"
    "min_energy_fraction = 0.25\n";

/// scenarios/smoke.scn.
FleetScenario smoke_scenario() {
  return FleetScenario::from_string(
      std::string(kShippedPopulation) +
      "name = smoke\n"
      "nodes = 16\n"
      "seed = 7\n"
      "day_length_s = 0.05\n"
      "time_step_us = 10\n"
      "waveform_interval_us = 500\n"
      "job_cycles = 1e6\n"
      "job_period_ms = 10\n"
      "job_deadline_ms = 4\n");
}

/// The first `nodes` nodes of scenarios/day1000.scn.
FleetScenario day1000_scenario(int nodes) {
  return FleetScenario::from_string(
      std::string(kShippedPopulation) +
      "name = day1000\n"
      "nodes = " + std::to_string(nodes) + "\n"
      "seed = 2018\n"
      "day_length_s = 0.25\n"
      "time_step_us = 5\n"
      "waveform_interval_us = 250\n"
      "job_cycles = 2e6\n"
      "job_period_ms = 40\n"
      "job_deadline_ms = 8\n");
}

/// Assert two ControllerInputs read the same surfaces and table: every
/// field, and the lookups at probe points.
void expect_same_inputs(const ControllerInputs& a, const ControllerInputs& b) {
  EXPECT_EQ(a.full_sun_mpp.voltage.value(), b.full_sun_mpp.voltage.value());
  EXPECT_EQ(a.full_sun_mpp.power.value(), b.full_sun_mpp.power.value());
  EXPECT_EQ(a.crossover_power.value(), b.crossover_power.value());
  EXPECT_EQ(a.lut.measure_voltage().value(), b.lut.measure_voltage().value());
  for (const double g : {0.001, 0.02, 0.3, 0.77, 1.2}) {
    EXPECT_EQ(a.mpp(g).voltage.value(), b.mpp(g).voltage.value());
    EXPECT_EQ(a.mpp(g).power.value(), b.mpp(g).power.value());
    const Watts p = a.mpp(g).power;
    EXPECT_EQ(a.lut.mpp_voltage_for(p).value(),
              b.lut.mpp_voltage_for(p).value());
    EXPECT_EQ(a.lut.irradiance_for(p), b.lut.irradiance_for(p));
    EXPECT_EQ(a.lut.mpp_power_for(p).value(), b.lut.mpp_power_for(p).value());
  }
}

TEST(BatchFleetKernel, ConstructionIndependentOfThreadOrder) {
  // Serial construction against a 4-thread pool: the same kernel, built by
  // the same exact solves, whatever order the pool runs the bodies in.
  ThreadPool pool(4);
  for (const FleetScenario& s :
       {smoke_scenario(), day1000_scenario(64)}) {
    SCOPED_TRACE(s.name);
    const auto serial_before = solver_stats::snapshot();
    const BatchFleetKernel serial(s, {.parallel = false});
    const auto serial_solves = solver_stats::delta_since(serial_before);
    const auto pooled_before = solver_stats::snapshot();
    const BatchFleetKernel pooled(s, {.pool = &pool});
    const auto pooled_solves = solver_stats::delta_since(pooled_before);
    EXPECT_GT(serial_solves.mpp_solves, 0u);
    EXPECT_EQ(serial_solves.mpp_solves, pooled_solves.mpp_solves);
    EXPECT_EQ(serial_solves.regulated_solves, pooled_solves.regulated_solves);
    for (int i = 0; i < s.nodes; ++i) {
      SCOPED_TRACE("node " + std::to_string(i));
      expect_same_inputs(serial.controller_inputs(i),
                         pooled.controller_inputs(i));
    }
    EXPECT_EQ(serial.run({.parallel = false}).summary_hash,
              pooled.run({.pool = &pool}).summary_hash);
  }
}

TEST(BatchFleetKernel, BuildsAndRunsInsideATaskOfItsOwnPool) {
  // A kernel built and run inside a pool task nests parallel_for on that
  // pool; with one worker, every nested helper queues behind its caller.
  const std::uint64_t expected =
      BatchFleetKernel(quick_scenario(), {.parallel = false})
          .run({.parallel = false})
          .summary_hash;
  ThreadPool pool(1);
  std::vector<std::uint64_t> hashes(2, 0);
  parallel_for(pool, hashes.size(), [&](std::size_t i) {
    const BatchFleetKernel kernel(quick_scenario(), {.pool = &pool});
    hashes[i] = kernel.run({.pool = &pool}).summary_hash;
  });
  for (const std::uint64_t h : hashes) EXPECT_EQ(h, expected);
}

TEST(BatchFleetKernel, ForcedPolicyNodeSamplesMatchReference) {
  // Both engines draw and record every node through fleet/population.hpp, so
  // under a forced EnergyManager policy they agree on each identity field —
  // the recorded mode included, which is the policy's own, not the draw.
  FleetScenario s = quick_scenario();
  s.nodes = 16;
  s.policy = "hyst_eager";
  s.min_energy_fraction = 0.25;
  const FleetReport batch = BatchFleetKernel(s).run();
  const FleetReport ref = FleetSimulator(s).run();
  ASSERT_EQ(batch.node_results.size(), ref.node_results.size());
  for (std::size_t i = 0; i < ref.node_results.size(); ++i) {
    const NodeSample& a = batch.node_results[i].sample;
    const NodeSample& b = ref.node_results[i].sample;
    EXPECT_EQ(a.index, b.index) << "node " << i;
    EXPECT_EQ(a.pv_scale, b.pv_scale) << "node " << i;
    EXPECT_EQ(a.solar_capacitance.value(), b.solar_capacitance.value())
        << "node " << i;
    EXPECT_EQ(a.conditions.corner, b.conditions.corner) << "node " << i;
    EXPECT_EQ(a.conditions.temperature_c, b.conditions.temperature_c)
        << "node " << i;
    EXPECT_EQ(a.min_energy, b.min_energy) << "node " << i;
    EXPECT_EQ(a.job_phase.value(), b.job_phase.value()) << "node " << i;
  }
}

TEST(BatchFleetKernel, EquivalentToReferenceConstantLight) {
  expect_equivalent(quick_scenario(), 0.12, 0.25);
}

TEST(BatchFleetKernel, EquivalentToReferenceDiurnal) {
  FleetScenario s = quick_scenario();
  s.trace_kind = TraceKind::kDiurnal;
  s.shared_trace = false;
  expect_equivalent(s, 0.12, 0.25);
}

TEST(BatchFleetKernel, EquivalentToReferenceClouds) {
  FleetScenario s = quick_scenario();
  s.trace_kind = TraceKind::kClouds;
  s.shared_trace = true;
  expect_equivalent(s, 0.12, 0.25);
}

TEST(BatchFleetKernel, EquivalentToReferenceIndoorSteps) {
  // The indoor generator emits a hard step function: the strongest exercise
  // of breakpoint handling in the event stepper.
  FleetScenario s = quick_scenario();
  s.trace_kind = TraceKind::kIndoor;
  s.shared_trace = false;
  s.job_cycles = 0.0;  // indoor light cannot sustain the default sprint load
  expect_equivalent(s, 0.15, 0.30);
}

TEST(BatchFleetKernel, EquivalentAcrossCornerExtremes) {
  // Force corner-heavy fleets: all-SS then all-FF populations.
  for (int corner = 0; corner < 2; ++corner) {
    FleetScenario s = quick_scenario();
    s.corner_weights = corner == 0 ? std::array<double, 3>{1.0, 0.0, 0.0}
                                   : std::array<double, 3>{0.0, 0.0, 1.0};
    SCOPED_TRACE(corner == 0 ? "all slow-slow" : "all fast-fast");
    // The slow-slow corner runs closest to the f_max clamp, so ladder-cadence
    // jitter moves a larger share of each node's cycles.
    expect_equivalent(s, 0.12, 0.40);
  }
}

TEST(BatchFleetKernel, EquivalentAcrossPolicyExtremes) {
  // All max-performance trackers, then all min-energy (MEP) nodes.
  for (double fraction : {0.0, 1.0}) {
    FleetScenario s = quick_scenario();
    s.min_energy_fraction = fraction;
    SCOPED_TRACE("min_energy_fraction=" + std::to_string(fraction));
    expect_equivalent(s, 0.12, 0.25);
  }
}

TEST(BatchFleetKernel, StepTraceNeverSkipsComparatorCrossing) {
  // Indoor duty-cycled light switches between bright and dark instantly; the
  // solar node repeatedly charges through the comparator bank and collapses
  // back.  Every recorded edge sequence must strictly alternate per
  // comparator — a skipped crossing would produce two same-direction edges.
  FleetScenario s = quick_scenario();
  s.trace_kind = TraceKind::kIndoor;
  s.shared_trace = false;
  s.job_cycles = 0.0;
  s.nodes = 6;
  const BatchFleetKernel kernel(s);
  int total_events = 0;
  for (int node = 0; node < s.nodes; ++node) {
    std::vector<BatchComparatorEvent> events;
    (void)kernel.run_node_traced(node, events);
    total_events += static_cast<int>(events.size());
    std::map<int, bool> last_rising;
    Seconds last_time{-1.0};
    for (const BatchComparatorEvent& e : events) {
      EXPECT_GE(e.time.value(), last_time.value());
      last_time = e.time;
      const auto it = last_rising.find(e.comparator);
      if (it != last_rising.end()) {
        EXPECT_NE(it->second, e.rising)
            << "comparator " << e.comparator << " emitted two "
            << (e.rising ? "rising" : "falling") << " edges in a row at t="
            << e.time.value();
      }
      last_rising[e.comparator] = e.rising;
    }
  }
  EXPECT_GT(total_events, 0);
}

TEST(BatchFleetKernel, CrossoverTableTracksTheExactSelector) {
  // day1000's population (scenarios/day1000.scn); a constant sky skips the
  // per-node trace build and leaves every node's sampled hardware unchanged.
  const FleetScenario s = FleetScenario::from_string(
      "name = day1000_crossover\n"
      "nodes = 256\n"
      "seed = 2018\n"
      "day_length_s = 0.25\n"
      "time_step_us = 5\n"
      "trace = constant\n"
      "pv_scale_min = 0.6\n"
      "pv_scale_max = 1.4\n"
      "solar_cap_min_uf = 22\n"
      "solar_cap_max_uf = 100\n"
      "corner_ss = 0.2\n"
      "corner_tt = 0.6\n"
      "corner_ff = 0.2\n"
      "temperature_mean_c = 25\n"
      "temperature_sigma_c = 8\n"
      "min_energy_fraction = 0.25\n"
      "job_cycles = 2e6\n"
      "job_period_ms = 40\n"
      "job_deadline_ms = 8\n");
  const BatchFleetKernel kernel(s);
  const SwitchedCapRegulator reg;
  int mismatched = 0;
  int both = 0;
  double err_sum = 0.0;
  double err_max = 0.0;
  for (int i = 0; i < s.nodes; ++i) {
    const NodeSample n = sample_node(s, i);
    PvCellParams pv;
    pv.isc_full_sun = pv.isc_full_sun * n.pv_scale;
    const PvCell cell(pv);
    const Processor proc = make_test_chip_at(n.conditions);
    const SystemModel model(cell, reg, proc);
    const auto g_exact = RegulatorSelector(model).crossover_irradiance();
    const double table = kernel.controller_inputs(i).crossover_power.value();
    if (g_exact.has_value() != (table > 0.0)) {
      ++mismatched;
      continue;
    }
    if (!g_exact) continue;
    const double exact = model.mpp(*g_exact).power.value();
    const double err = std::fabs(table - exact) / exact;
    ++both;
    err_sum += err;
    err_max = std::max(err_max, err);
  }
  // Existence flips only on nodes near a corner's crossover boundary (16 of
  // 256; a table that blends "no crossover" in as 0 flips 40); where both
  // have one, the power is off by 0.8% on average and 6.2% at worst.
  EXPECT_LE(mismatched, 16);
  ASSERT_GT(both, 0);
  EXPECT_LT(err_sum / both, 0.008);
  EXPECT_LT(err_max, 0.063);
}

TEST(BatchFleetKernel, TracedRunMatchesUntraced) {
  const BatchFleetKernel kernel(quick_scenario());
  std::vector<BatchComparatorEvent> events;
  const NodeResult traced = kernel.run_node_traced(1, events);
  const NodeResult plain = kernel.run_node(1);
  // Tracing adds comparator watch levels, which only tightens steps; the
  // physics must land on (nearly) the same totals.
  EXPECT_LT(rel_gap(traced.harvested.value(), plain.harvested.value()), 1e-3);
  EXPECT_LT(rel_gap(traced.cycles, plain.cycles), 1e-3);
}

}  // namespace
}  // namespace hemp
