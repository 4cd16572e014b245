// Property tests for the shared flat::NodeStepper primitives, independent of
// either engine: the closed-form rail episode against the reference tick
// map, the no-late-detection contract of the step-length choice, and the
// per-step energy ledger.
#include "sim/flat_stepper.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "processor/processor.hpp"
#include "regulator/switched_cap.hpp"

namespace hemp {
namespace {

// ---------------------------------------------------------------------------
// (i) rail_regulated_episode == iterating the reference tick map.
// ---------------------------------------------------------------------------

/// One reference tick of the regulated rail in energy form: plain Euler
/// toward the effective target, E' = E + (dt_ref/tau)(E_eff - E), with the
/// net power clamped to [-p_load, rated - p_load] (regulator output in
/// [0, rated] on top of the load).
double reference_tick(double e, double e_eff, double dt_ref, double tau,
                      double p_load, double rated) {
  const double p_net = std::clamp((e_eff - e) / tau, -p_load, rated - p_load);
  return e + p_net * dt_ref;
}

TEST(FlatStepper, RailEpisodeMatchesReferenceTickMapTickByTick) {
  const double c_vdd = 10e-6;
  const double tau = 50e-6;
  const double rated = flat::make_flat_sc(SwitchedCapParams{}).rated;
  struct Case {
    double v_0, v_cmd, p_load, dt_ref;
  };
  const Case cases[] = {
      {0.20, 0.70, 2e-4, 2e-6},   // ramp at rated, then geometric
      {0.45, 0.50, 1e-4, 2e-6},   // geometric only
      {0.90, 0.40, 5e-4, 5e-6},   // drain at p_load, then geometric
      {0.90, 0.40, 0.0, 5e-6},    // no load: pinned above target
      {0.10, 0.80, 0.0, 10e-6},   // unloaded ramp
      {0.60, 0.60, 3e-3, 2e-6},   // heavy load
  };
  for (const Case& c : cases) {
    const double e_0 = 0.5 * c_vdd * c.v_0 * c.v_0;
    const double e_eff = 0.5 * c_vdd * c.v_cmd * c.v_cmd + c.p_load * c.dt_ref;
    double e_ref = e_0;
    for (int n = 1; n <= 300; ++n) {
      e_ref = reference_tick(e_ref, e_eff, c.dt_ref, tau, c.p_load, rated);
      const double dt = n * c.dt_ref;
      const flat::RailEpisode ep = flat::rail_regulated_episode(
          e_0, e_eff, dt, c.dt_ref, tau, c.p_load, rated);
      ASSERT_NEAR(ep.e_end, e_ref, 1e-9 * e_eff)
          << "v_0=" << c.v_0 << " v_cmd=" << c.v_cmd << " ticks=" << n;
      ASSERT_NEAR(ep.t_ramp + ep.t_drain + ep.t_decay, dt, 1e-12 * dt);
    }
  }
}

// ---------------------------------------------------------------------------
// A standalone stepper over the default components.
// ---------------------------------------------------------------------------

struct Rig {
  flat::FlatSc sc = flat::make_flat_sc(SwitchedCapParams{});
  flat::FlatProc pc = flat::make_flat_proc(Processor::make_test_chip());
  flat::IvSurface surface =
      flat::build_iv_surface({1.0}, PvCellParams{}, 1.7, 160, 1.25, 64);
  flat::FlatTrace trace;
  SocCommand cmd;
  SocStepHint hint;
  flat::NodeStepper st;

  /// A random node state on a random path, with random controller levels
  /// around it.
  void randomize(Rng& rng) {
    draw(rng);
    // A conducting bypass is drawn already merged at its quasi-steady switch
    // drop, as every merged step leaves it: a zero-length merge.  Merging a
    // wider gap is an instantaneous charge-sharing jump at bypass entry — a
    // transient neither contract covers, and the one the entry replay
    // exists for (a replayed tick is a single reference tick).
    if (cmd.path == PowerPath::kBypass && st.v_s > st.v_d &&
        !(st.replay_bypass_entry &&
          st.v_s - st.v_d > flat::kBypassMergeBand)) {
      // The drop depends on the cell current and the load at the merged
      // voltages: iterate to the fixed point.
      for (int i = 0; i < 8; ++i) {
        st.gate(cmd);
        (void)flat::integrate_bypass_merged(st.iv, st.c_solar, st.c_vdd,
                                            st.r_on, st.v_s, st.v_d, 0.0,
                                            st.irradiance(), st.p_load,
                                            flat::kWatchVFloor);
      }
    }
    hint = SocStepHint{};
    hint.event_driven = true;
    if (rng.uniform() < 0.5) hint.deadline(rng.uniform(1e-5, 2e-3));
    for (int i = 0; i < 3; ++i) hint.watch_solar(level_near(rng, st.v_s));
    for (int i = 0; i < 2; ++i) hint.watch_rail(level_near(rng, st.v_d));
  }

  void draw(Rng& rng) {
    const double t_end = 0.01;
    trace = rng.uniform() < 0.5
                ? flat::flatten_constant(rng.uniform(0.0, 1.2))
                : flat::flatten_trace(
                      IrradianceTrace::step(rng.uniform(0.0, 1.2),
                                            rng.uniform(0.0, 1.2),
                                            Seconds(rng.uniform(0.0, 2e-3))),
                      t_end);
    st = flat::NodeStepper{};
    st.sc = &sc;
    st.pc = &pc;
    st.trace = &trace;
    st.iv = surface.bind(1.0);
    st.t_end = t_end;
    st.dt_ref = rng.uniform() < 0.5 ? 2e-6 : 5e-6;
    st.tau = 50e-6;
    st.c_solar = rng.uniform(22e-6, 100e-6);
    st.c_vdd = 10e-6;
    st.r_on = 1.0;
    st.replay_bypass_entry = rng.uniform() < 0.5;

    const double u = rng.uniform();
    cmd = SocCommand{};
    cmd.path = u < 0.4   ? PowerPath::kRegulated
               : u < 0.8 ? PowerPath::kBypass
                         : PowerPath::kOff;
    cmd.vdd_target = Volts(rng.uniform(0.3, 0.8));
    cmd.frequency = Hertz(rng.uniform(5e6, 400e6));
    cmd.run = rng.uniform() < 0.8;
    st.v_s = rng.uniform(0.5, 1.4);
    st.v_d = cmd.path == PowerPath::kRegulated
                 ? rng.uniform(0.2, 0.9)
                 : rng.uniform(0.15, st.v_s + 0.05);
  }

  /// A watch level on either side of `v`, at least the watch deadband away.
  static double level_near(Rng& rng, double v) {
    const double dist = rng.uniform(flat::kWatchDeadband, 0.08);
    return rng.uniform() < 0.5 ? v + dist : v - dist;
  }

  double step() {
    st.gate(cmd);
    return st.step(cmd, hint, st.irradiance());
  }
};

/// How far `v_1` landed past `level` on a step from `v_0` (<= 0: not past).
double overshoot(double v_0, double v_1, double level) {
  if (v_0 < level) return v_1 - level;
  if (v_0 > level) return level - v_1;
  return 0.0;
}

// ---------------------------------------------------------------------------
// (ii) No late detection: a chosen step carries a watched level at most half
// a hysteresis band past its threshold, so the edge is seen inside its band.
// A single reference tick is exempt — the dense reference loop has the same
// one-tick latency.
//
// Two known mechanisms exceed the half band by a little, in well under 1% of
// the crossings below (max ~1.3 mV over 30000 states); fixing either moves
// every engine's step sequence, so they are ROADMAP items, and the test
// holds them to a full band:
//   * implicit midpoint overshoots an equilibrium on a stiff long step (a
//     detached solar node near open circuit lands past a level the exact
//     dynamics, which the bound integrates, never reach);
//   * a conducting bypass prices the solar node's discharge at the level
//     voltage, while the merged integrator draws the load at the rail, which
//     sits one switch drop lower.
// ---------------------------------------------------------------------------

TEST(FlatStepper, ChosenStepNeverOvershootsAWatchedLevel) {
  Rig rig;
  Rng rng(20181010);
  int crossings = 0;
  int past_half_band = 0;
  int long_steps = 0;
  const auto check = [&](double past, const char* node, double level,
                         int trial) {
    if (past <= 0.0) return;
    ++crossings;
    if (past > flat::kCompHalfHyst + 1e-9) ++past_half_band;
    EXPECT_LE(past, 2.0 * flat::kCompHalfHyst)
        << node << " level " << level << " path "
        << static_cast<int>(rig.cmd.path) << " trial " << trial;
  };
  for (int trial = 0; trial < 30000; ++trial) {
    rig.randomize(rng);
    const double v_s0 = rig.st.v_s;
    const double v_d0 = rig.st.v_d;
    const double dt = rig.step();
    if (dt <= rig.st.dt_ref) continue;
    ++long_steps;
    for (std::size_t i = 0; i < rig.hint.solar_watch_count; ++i) {
      const double level = rig.hint.solar_watch[i];
      check(overshoot(v_s0, rig.st.v_s, level), "solar", level, trial);
    }
    for (std::size_t i = 0; i < rig.hint.rail_watch_count; ++i) {
      const double level = rig.hint.rail_watch[i];
      check(overshoot(v_d0, rig.st.v_d, level), "rail", level, trial);
    }
  }
  // The property is not vacuous: most steps are long, and thousands of
  // them cross a level.
  EXPECT_GT(long_steps, 10000);
  EXPECT_GT(crossings, 1000);
  EXPECT_LT(past_half_band, crossings / 100)
      << past_half_band << " of " << crossings << " crossings";
}

// ---------------------------------------------------------------------------
// (iii) One step balances its energy ledger.
// ---------------------------------------------------------------------------

TEST(FlatStepper, OneStepBalancesTheEnergyLedger) {
  Rig rig;
  Rng rng(7);
  for (int trial = 0; trial < 3000; ++trial) {
    rig.randomize(rng);
    const double v_s0 = rig.st.v_s;
    const double v_d0 = rig.st.v_d;
    rig.step();
    const flat::NodeStepper& st = rig.st;
    const double losses = st.reg_loss + st.byp_loss;
    const double d_stored = 0.5 * st.c_solar * (st.v_s * st.v_s - v_s0 * v_s0) +
                            0.5 * st.c_vdd * (st.v_d * st.v_d - v_d0 * v_d0);
    const double out = d_stored + st.delivered + losses;
    // Scale: every energy flow of the step.
    const double scale = st.harvested + st.delivered + losses +
                         std::fabs(d_stored) + 1e-15;
    ASSERT_LE(std::fabs(st.harvested - out), 0.02 * scale)
        << "harvested " << st.harvested << " vs " << out << " path "
        << static_cast<int>(rig.cmd.path) << " from " << v_s0 << "/" << v_d0
        << " to " << st.v_s << "/" << st.v_d << " replay "
        << st.replay_bypass_entry << " trial " << trial;
  }
}

}  // namespace
}  // namespace hemp
