// One surface-only node loop shared by both event-driven engines: the fleet
// batch kernel (fleet/batch_kernel.cpp) and the single-node fast path
// (sim/fast_soc.cpp).  Both drive a real SocController (the batch kernel
// builds its nodes' controllers through the policy registry) through run(),
// the one loop: its per-step calls are private, so everything from the
// controller call to the time advance lives here, once.
//
// The loop.  run(ctl, hook) calls on_start at t = 0, then steps until t_end
// or ctl.finished(), and flushes the per-cause step counts once at the end:
//
//   control            SocState refresh, on_tick, the load gate (vmin latch,
//                      f_max clamp, timing faults), the controller's hint
//   hook.deadline(t)   the engine's next timed event, added to the hint
//   step               step length, integration, totals, time advance
//   observe            post-step state the controller sees next
//   hook.on_step(t0, g0, dt, state, cmd)
//                      the engine's own work on the finished step
//
// The fast path's hook adds its waveform cadence and records a waveform row;
// the batch kernel's adds no deadline (+infinity) and accumulates the node's
// MPPT tracking error.
//
// Step length.  A step jumps to the earliest timed event — the hint's
// deadline, the next trace knot — tightened by
//   * the analytic no-late-detection bounds dt <= C * dist / i_max on every
//     watched level of both nodes (flat::watch_bound_dt).  Within a step
//     every voltage is monotone (autonomous scalar dynamics under constant
//     step inputs), so endpoint sampling can never miss a crossing; the bound
//     keeps detection latency inside one comparator hysteresis band.  The
//     stepper itself watches the regulator's ratio boundaries (eta and the
//     supports envelope change across them) and the processor's vmin/vmax;
//     the hint adds the controller's levels (a controller that owns
//     comparators registers their switching levels, th -/+ kCompHalfHyst by
//     the latched output);
//   * accuracy caps: kRunDtCap while the clock runs (f_eff and p_load are
//     frozen over a step), and in bypass a cap on the rail swing per step;
//   * the regulated-rail settle rule.  Outside its settle band, with the
//     clock running, the rail needs fine steps (~2*tau): p_load(v_dd) and the
//     effective-frequency clamp f_max(v_dd) must track the moving rail.  With
//     the clock gated nothing rides the rail and the 3-regime tick map is
//     exact in closed form for any dt, so the step goes to the closed-form
//     episode endpoint (flat::rail_settle_dt) instead of grinding capped
//     micro-steps.  Supported episodes still keep the ~2*tau cap: eta(vin)
//     and the supports check freeze at step start, and relaxing the cap
//     measurably degrades the max-performance duty-cycling nodes of the
//     equivalence suites (systematically past ~2x, marginally at 2x; see
//     DESIGN.md 6h).  Only a *pinned* rail (regulator unsupported, or stuck
//     above target with no load to sink into) has no endpoint and runs
//     uncapped — the watch bounds alone guarantee crossing detection there.
// Steps are then floored to whole reference ticks, so controller decisions
// land on the instants the fixed-step loop uses; the final step of a run may
// be a sub-tick remainder.
//
// Integration.  The regulated rail follows the exact piecewise 3-regime
// closed form of the reference tick map (flat::rail_regulated_episode), with
// conversion losses priced per regime; the solar node integrates implicit
// midpoint over the IV surface; a conducting bypass integrates both nodes
// as one merged quasi-steady node (flat::integrate_bypass_merged).
//
// Exactly two behaviours differ between the engines, and each engine sets
// them in code: the fast path replays the reference RC tick through bypass
// entry (replay_bypass_entry, see kBypassMergeBand), and its hook adds the
// waveform cadence to the hint as one more deadline.  A controller that
// declines long steps (SocStepHint::event_driven == false) steps dense
// reference ticks on either engine.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "common/annotations.hpp"
#include "common/solver_stats.hpp"
#include "sim/flat_model.hpp"
#include "sim/soc_system.hpp"
#include "storage/comparator.hpp"

namespace hemp::flat {

/// Half of the comparator's default hysteresis band: a watched crossing must
/// be detected before the node leaves the band, so this is both the watch
/// overshoot allowance and the offset that resolves a comparator's direction.
inline constexpr double kCompHalfHyst = 0.5 * kComparatorHysteresis.value();

/// Above this solar-to-rail gap the bypass switch is still slewing the rail
/// through its R_on (tau_RC ~ R_on * C_parallel, a few tens of us): the
/// quasi-steady merged closed form does not apply yet, and the processor load
/// drawn *during* the merge is what keeps the rail peak below vmax in the
/// reference.  With replay_bypass_entry set the stepper replays the reference
/// RC tick exactly through this regime and hands over to the merged form once
/// inside the band.
inline constexpr double kBypassMergeBand = 0.02;

struct NodeStepper {
  // --- Wiring (set once per run).
  const FlatSc* sc = nullptr;
  const FlatProc* pc = nullptr;
  const FlatTrace* trace = nullptr;
  IvSurface::Bound iv{};
  double t_end = 0.0;
  double dt_ref = 0.0;  ///< reference tick: step quantum and event slack
  double tau = 0.0;     ///< regulator restoration time constant
  double c_solar = 0.0;
  double c_vdd = 0.0;
  double r_on = 0.0;    ///< bypass switch on-resistance
  bool replay_bypass_entry = false;

  // --- Node state.
  double t = 0.0;
  double v_s = 0.0;
  double v_d = 0.0;
  std::size_t cur = 0;  ///< trace cursor

  // --- Load gate (set by gate(), frozen over the step).
  bool can_run = false;
  double f_eff = 0.0;
  double p_load = 0.0;  ///< this step's load; the previous step's until gate()
  bool reg_ok = true;   ///< regulator had headroom and transferred this step
  bool vmin_latch = false;
  bool fault_latch = false;
  bool was_running = false;
  bool sc_ok = false;   ///< sc_supports(v_s, vdd_target), frozen per step

  // --- Totals.
  double cycles = 0.0;
  double harvested = 0.0;
  double delivered = 0.0;
  double halted = 0.0;
  double reg_loss = 0.0;
  double byp_loss = 0.0;
  int brownouts = 0;
  int timing_faults = 0;
  solver_stats::StepCause step_cause = solver_stats::StepCause::kDeadline;
  std::array<std::uint64_t, solver_stats::kStepCauseCount> step_counts{};

  // Exact-key memos for the stepped loop's libm calls.  At steady state the
  // rail voltage, effective frequency, commanded rail and episode tick count
  // repeat with bit-identical inputs step after step, so the std::pow /
  // std::exp calls and divides are mostly cache hits; a key mismatch
  // recomputes, so results never change.
  PowMemo pow_memo{};
  double fmax_key = std::numeric_limits<double>::quiet_NaN();
  double fmax_val = 0.0;
  double pload_key_rail = std::numeric_limits<double>::quiet_NaN();
  double pload_key_clock = 0.0;
  double pload_val = 0.0;
  double ratio_bounds_vdd = std::numeric_limits<double>::quiet_NaN();
  std::array<double, kScMaxRatios> ratio_bounds{};

  [[nodiscard]] bool done() const { return t >= t_end - 1e-15; }

  /// Irradiance at the present time (the controller's view of the sky).
  [[nodiscard]] double irradiance() { return trace->at(t, cur); }

  /// Wire the run constants and the start voltages from `cfg`: the
  /// reference tick, the regulator time constant, both capacitances, the
  /// bypass switch resistance and the two node start voltages.  The engine
  /// sets the surfaces, the trace, t_end and replay_bypass_entry itself.
  void configure(const SocConfig& cfg) {
    dt_ref = cfg.time_step.value();
    tau = cfg.regulation_time_constant.value();
    c_solar = cfg.solar_capacitance.value();
    c_vdd = cfg.vdd_capacitance.value();
    r_on = cfg.bypass.on_resistance.value();
    v_s = cfg.solar_start_voltage.value();
    v_d = cfg.vdd_start_voltage.value();
  }

  /// The node loop (see the header comment).  Returns the controller's
  /// final view of the node.
  template <class Hook>
  HEMP_HOT SocState run(SocController& ctl, Hook& hook) {
    SocState state{};
    SocCommand cmd{};
    SocStepHint hint;
    start(ctl, state, cmd);
    while (!done()) {
      const double t0 = t;
      const double g0 = control(ctl, state, cmd, hint);
      hint.deadline(hook.deadline(t0));
      const double dt = step(cmd, hint, g0);
      observe(state);
      hook.on_step(t0, g0, dt, state, cmd);
      if (ctl.finished(state)) break;
    }
    flush_step_counts();
    return state;
  }

  /// Load for this step, with the reference tick semantics: the rail voltage
  /// gates the clock (vmin latch with re-enable hysteresis in bypass), and
  /// the commanded frequency clamps at f_max(v_dd).
  HEMP_HOT void gate(const SocCommand& cmd) {
    if (v_d < pc->vmin) {
      vmin_latch = true;
    } else if (v_d >= pc->vmin + (cmd.path == PowerPath::kBypass
                                      ? kVminHysteresis
                                      : 0.0)) {
      vmin_latch = false;
    }
    can_run = cmd.run && !vmin_latch && v_d <= pc->vmax;
    p_load = 0.0;
    f_eff = 0.0;
    if (can_run) {
      const double v_fm = std::clamp(v_d, pc->vmin, pc->vmax);
      if (v_fm != fmax_key) {
        fmax_key = v_fm;
        fmax_val = proc_fmax(*pc, v_fm);
      }
      f_eff = cmd.frequency.value();
      bool clamped = false;
      if (f_eff > fmax_val) {
        clamped = true;
        f_eff = fmax_val;
      }
      // The reference counts clamped *ticks*; the stepper counts clamp
      // episodes (transitions into the clamped condition).
      if (clamped && !fault_latch) ++timing_faults;
      fault_latch = clamped;
      if (v_d != pload_key_rail || f_eff != pload_key_clock) {
        pload_key_rail = v_d;
        pload_key_clock = f_eff;
        pload_val = proc_power(*pc, v_d, f_eff);
      }
      p_load = pload_val;
    } else {
      fault_latch = false;
      if (was_running && cmd.run) ++brownouts;
    }
    was_running = can_run;
  }

  /// One step: its length, the integration of both nodes, the per-step
  /// totals and the time advance.  `g0` is irradiance() at the step start
  /// (control()'s return).  Returns the step's dt.
  HEMP_HOT double step(const SocCommand& cmd, const SocStepHint& hint,
                       double g0) {
    sc_ok = sc_supports(*sc, v_s, cmd.vdd_target.value());
    step_cause = solver_stats::StepCause::kDeadline;
    StepPlan pl;
    pl.dt = hint.event_driven ? choose_dt(cmd, hint, g0) : dt_ref;
    ++step_counts[static_cast<std::size_t>(step_cause)];
    pl.g_mid = trace->at(t + 0.5 * pl.dt, cur);
    integrate_pre(cmd, pl);
    if (pl.solar_solve) {
      const double p_avg =
          integrate_solar(iv, c_solar, v_s, pl.dt, pl.g_mid, pl.p_in);
      harvested += pl.dt * p_avg;
      reg_loss += (pl.p_in - pl.p_out) * pl.dt;
      double e_d = 0.5 * c_vdd * v_d * v_d + (pl.p_out - p_load) * pl.dt;
      if (e_d < 0.0) e_d = 0.0;
      v_d = std::sqrt(2.0 * e_d / c_vdd);
    }
    if (can_run) {
      cycles += f_eff * pl.dt;
      delivered += p_load * pl.dt;
    } else if (cmd.run) {
      halted += pl.dt;
    }
    t += pl.dt;
    return pl.dt;
  }

  /// The run's totals so far (audit_checks stays 0).
  [[nodiscard]] SimTotals totals() const {
    SimTotals out;
    out.harvested = Joules(harvested);
    out.delivered_to_processor = Joules(delivered);
    out.regulator_loss = Joules(reg_loss);
    out.bypass_loss = Joules(byp_loss);
    out.cycles = cycles;
    out.brownouts = brownouts;
    out.timing_faults = timing_faults;
    out.halted_time = Seconds(halted);
    out.simulated_time = Seconds(t);
    return out;
  }

  // ---------------------------------------------------------------------
  // Internals.
  // ---------------------------------------------------------------------

 private:
  /// Hand the node to the controller at the run start.  The command latch
  /// starts at the rail's start voltage.
  void start(SocController& ctl, SocState& state, SocCommand& cmd) {
    cmd.vdd_target = Volts(v_d);
    state.v_solar = Volts(v_s);
    state.v_dd = Volts(v_d);
    state.irradiance = irradiance();
    ctl.on_start(state, cmd);
  }

  /// Step start: refresh the controller's view of the node, run on_tick,
  /// gate the load, and collect the controller's step hint into `hint`
  /// (reset first).  Returns irradiance() at the step start (step()'s g0).
  HEMP_HOT double control(SocController& ctl, SocState& state, SocCommand& cmd,
                          SocStepHint& hint) {
    const double g0 = irradiance();
    state.time = Seconds(t);
    state.irradiance = g0;
    state.v_solar = Volts(v_s);
    state.v_dd = Volts(v_d);
    state.p_harvest = Watts(v_s * iv.cell_i(v_s, g0));
    state.path = cmd.path;
    ctl.on_tick(state, cmd);
    gate(cmd);
    hint.reset();
    ctl.step_hint(state, hint);
    return g0;
  }

  /// Step end: what the step did, as the controller sees it at the next
  /// control() (its node voltages, load, clock and retired cycles).
  void observe(SocState& state) const {
    state.v_solar = Volts(v_s);
    state.v_dd = Volts(v_d);
    state.p_processor = Watts(p_load);
    state.frequency = Hertz(f_eff);
    state.processor_running = can_run;
    state.regulator_ok = reg_ok;
    state.cycles_retired = cycles;
  }

  /// Flush the per-cause step counts to solver_stats (once per run).
  void flush_step_counts() const {
    for (int c = 0; c < solver_stats::kStepCauseCount; ++c) {
      solver_stats::count_steps(static_cast<solver_stats::StepCause>(c),
                                step_counts[static_cast<std::size_t>(c)]);
    }
  }

  /// What integrate_pre leaves for the solar solve and the rail update.
  struct StepPlan {
    double dt = 0.0;
    double g_mid = 0.0;        ///< irradiance at the step midpoint
    bool solar_solve = false;  ///< step needs an integrate_solar solve
    double p_in = 0.0;         ///< regulator source-side draw for the solve
    double p_out = 0.0;        ///< regulator output power for the rail update
  };

  /// (vdd + margin) / ratio boundary levels, recomputed only when the
  /// commanded rail moves.
  const std::array<double, kScMaxRatios>& ratio_bounds_for(double vdd) {
    if (vdd != ratio_bounds_vdd) {
      for (std::size_t k = 0; k < sc->n_ratios; ++k) {
        ratio_bounds[k] = (vdd + sc->margin) / sc->ratios[k];
      }
      ratio_bounds_vdd = vdd;
    }
    return ratio_bounds;
  }

  HEMP_HOT double choose_dt(const SocCommand& cmd, const SocStepHint& hint,
                            double g0) {
    using solver_stats::StepCause;
    // A deadline already due: decide again one whole tick later (even past
    // the run end, as the dense fallback does).
    if (hint.next_deadline_s <= t + 1e-15) return dt_ref;
    if (replay_bypass_entry && cmd.path == PowerPath::kBypass &&
        v_s - v_d > kBypassMergeBand) {
      step_cause = StepCause::kSettle;
      return std::min(dt_ref, t_end - t);  // dense RC merge transient
    }
    double dt = std::min(t_end - t, can_run ? kRunDtCap : kDtMax);
    {
      const double knot = trace->next_knot(t, cur);
      if (knot > t && knot - t < dt) {
        dt = knot - t;
        step_cause = StepCause::kTraceKnot;
      }
    }
    if (hint.next_deadline_s - t < dt) {
      dt = hint.next_deadline_s - t;
      step_cause = StepCause::kDeadline;
    }

    const bool regulated = cmd.path == PowerPath::kRegulated;
    const double vt = cmd.vdd_target.value();
    const double e_t = 0.5 * c_vdd * vt * vt + p_load * dt_ref;
    const double e_0 = 0.5 * c_vdd * v_d * v_d;
    // Regulated rail outside its settle band (see the header comment).
    if (regulated) {
      const double v_eff = std::sqrt(2.0 * e_t / c_vdd);
      if (std::fabs(v_d - v_eff) > kRailBand) {
        const double settle_cap = kRailSettleFactor * tau;
        if (p_load > 0.0) {
          if (settle_cap < dt) {
            dt = settle_cap;
            step_cause = StepCause::kSettle;
          }
        } else {
          double dt_settle = std::numeric_limits<double>::infinity();
          if (sc_ok) {
            const double v_lo = v_eff - kRailBand;
            const double v_hi = v_eff + kRailBand;
            dt_settle = rail_settle_dt(e_0, e_t, dt_ref, tau, 0.0, sc->rated,
                                       0.5 * c_vdd * v_lo * v_lo,
                                       0.5 * c_vdd * v_hi * v_hi);
            dt_settle = std::min(dt_settle, settle_cap);
          }
          if (dt_settle < dt) {
            dt = std::max(dt_settle, dt_ref);
            step_cause = StepCause::kSettle;
          }
        }
      }
    }

    // G is linear between knots and dt never crosses one, so the extreme
    // irradiance over the step sits at an endpoint.
    const double g_end = trace->constant ? g0 : trace->at(t + dt, cur);
    const double g_hi = std::max(g0, g_end);

    // Bypass rides the clock on the shared node: cap the rail swing per step
    // to keep the frequency error within ~1%.  The swing rate is the *net*
    // current into the merged node — near the operating equilibrium it is
    // tiny, so this is an accuracy cap, not a tick-scale clamp.
    if (!regulated && can_run) {
      const double i_pv = iv.cell_i(v_s, g_hi);
      const double i_load = p_load / std::max(v_d, kWatchVFloor);
      const double i_net = std::fabs(i_pv - i_load);
      const double rate = (1.5 * i_net + 1e-6) / (c_solar + c_vdd);
      if (rate > 0.0 && kBypassDvCap / rate < dt) {
        dt = kBypassDvCap / rate;
        step_cause = StepCause::kWatchBound;
      }
    }

    WatchAccum ws, wd;
    for (std::size_t i = 0; i < hint.solar_watch_count; ++i) {
      ws.level(v_s, hint.solar_watch[i]);
    }
    if (regulated) {
      const std::array<double, kScMaxRatios>& rb = ratio_bounds_for(vt);
      for (std::size_t k = 0; k < sc->n_ratios; ++k) ws.level(v_s, rb[k]);
    }
    if (cmd.run) {
      wd.level(v_d, vmin_latch && cmd.path == PowerPath::kBypass
                        ? pc->vmin + kVminHysteresis
                        : pc->vmin);
    }
    if (cmd.path == PowerPath::kBypass) wd.level(v_d, pc->vmax);
    for (std::size_t i = 0; i < hint.rail_watch_count; ++i) {
      wd.level(v_d, hint.rail_watch[i]);
    }

    WatchBoundIn wb;
    wb.dt = dt;
    wb.half_hyst = kCompHalfHyst;
    wb.v_floor = kWatchVFloor;
    wb.v_s = v_s;
    wb.v_d = v_d;
    wb.c_solar = c_solar;
    wb.c_vdd = c_vdd;
    wb.p_load = p_load;
    wb.regulated = regulated;
    wb.conducting = cmd.path == PowerPath::kBypass && v_s > v_d;
    wb.cmd_vdd = vt;
    wb.e_t = e_t;
    wb.e_0 = e_0;
    wb.tau = tau;
    wb.dt_ref = dt_ref;
    wb.sc_ok = sc_ok;
    wb.sc = sc;
    wb.iv = &iv;
    wb.g_hi = g_hi;
    wb.g_lo = std::min(g0, g_end);
    const double dt_watched = watch_bound_dt(wb, ws, wd);
    if (dt_watched < dt) {
      dt = dt_watched;
      step_cause = StepCause::kWatchBound;
    }

    // Quantize to whole reference ticks (flooring preserves every bound
    // above), then clamp to the run end.
    const double ticks = std::max(1.0, std::floor(dt / dt_ref + 1e-6));
    return std::min(ticks * dt_ref, t_end - t);
  }

  HEMP_HOT void integrate_pre(const SocCommand& cmd, StepPlan& pl) {
    pl.solar_solve = true;
    pl.p_in = 0.0;
    pl.p_out = 0.0;
    reg_ok = true;
    if (cmd.path == PowerPath::kRegulated) {
      reg_ok = sc_ok;
      if (!sc_ok) return;
      // Closed-form restoration matching the reference tick map exactly
      // (see rail_regulated_episode for the 3-regime derivation).  The steady
      // rail rides at sqrt(vt^2 + 2*p_load*dt_ref/C), which keeps the
      // commanded frequency off the f_max clamp.
      const double vt = cmd.vdd_target.value();
      const double e_t = 0.5 * c_vdd * vt * vt + p_load * dt_ref;
      const double e_0 = 0.5 * c_vdd * v_d * v_d;
      const RailEpisode ep = rail_regulated_episode(
          e_0, e_t, pl.dt, dt_ref, tau, p_load, sc->rated, &pow_memo);
      // Conversion losses priced per regime: the ramp pins p_out at rated,
      // the drain pins it at zero, and the geometric phase transfers its own
      // average — so a one-step settle episode sees the same eta profile the
      // capped micro-steps would walk through.
      double e_in = 0.0;   // source-side energy drawn over the step
      double e_out = 0.0;  // regulator output energy over the step
      if (ep.t_ramp > 0.0) {
        const double eta = sc_efficiency(*sc, v_s, vt, sc->rated);
        if (eta > 0.0) {
          e_out += sc->rated * ep.t_ramp;
          e_in += sc->rated * ep.t_ramp / eta;
        } else {
          reg_ok = false;  // regulator stalled: no transfer this regime
        }
      }
      if (ep.t_decay > 0.0) {
        const double p_restore = (ep.e_end - ep.e_decay_0) / ep.t_decay;
        const double p_dec = std::clamp(p_load + p_restore, 0.0, sc->rated);
        if (p_dec > 0.0) {
          const double eta = sc_efficiency(*sc, v_s, vt, p_dec);
          if (eta > 0.0) {
            e_out += p_dec * ep.t_decay;
            e_in += p_dec * ep.t_decay / eta;
          } else {
            reg_ok = false;
          }
        }
      }
      pl.p_out = e_out / pl.dt;
      pl.p_in = e_in / pl.dt;
      return;
    }

    // Bypass (and kOff): the switch conducts solar -> rail when v_s > v_d.
    // The discrete reference update rings at tau_RC ~ R*C_parallel ~ 8 us;
    // the stepper integrates the merged quasi-steady limit instead
    // (charge-conserving, same energy).
    if (cmd.path == PowerPath::kBypass && v_s > v_d) {
      if (replay_bypass_entry && v_s - v_d > kBypassMergeBand) {
        replay_bypass_tick(pl);
        return;
      }
      const BypassStepResult r = integrate_bypass_merged(
          iv, c_solar, c_vdd, r_on, v_s, v_d, pl.dt, pl.g_mid, p_load,
          kWatchVFloor);
      if (r.conducted) {
        harvested += pl.dt * r.p_harvest_avg;
        byp_loss += r.i_r * r.i_r * r_on * pl.dt;
        pl.solar_solve = false;  // the merged solve integrated both nodes
        return;
      }
      // Diode would block: integrate the nodes detached (p_in stays 0).
    }
  }

  /// Bypass-entry transient (dt pinned to one reference tick by choose_dt):
  /// replay the reference update exactly — harvest, load drain, then the
  /// dv/R_on charge transfer with measured-loss bookkeeping — so the rail
  /// trajectory (and its sub-vmax peak under the growing f_max(v_dd) load)
  /// matches the dense loop.
  void replay_bypass_tick(StepPlan& pl) {
    const double dt = pl.dt;
    const double i_pv = iv.cell_i(v_s, pl.g_mid);
    harvested += v_s * i_pv * dt;
    double v_s1 = std::sqrt(v_s * v_s + 2.0 * v_s * i_pv * dt / c_solar);
    double e_d = 0.5 * c_vdd * v_d * v_d - p_load * dt;
    if (e_d < 0.0) e_d = 0.0;
    double v_d1 = std::sqrt(2.0 * e_d / c_vdd);
    const double i_r = (v_s1 - v_d1) / r_on;
    if (i_r > 0.0) {
      const double e_s_pre = 0.5 * c_solar * v_s1 * v_s1;
      const double e_d_pre = 0.5 * c_vdd * v_d1 * v_d1;
      v_s1 = std::max(v_s1 - i_r * dt / c_solar, 0.0);
      v_d1 += i_r * dt / c_vdd;
      byp_loss += (e_s_pre - 0.5 * c_solar * v_s1 * v_s1) -
                  (0.5 * c_vdd * v_d1 * v_d1 - e_d_pre);
    }
    v_s = v_s1;
    v_d = v_d1;
    pl.solar_solve = false;
  }
};

}  // namespace hemp::flat
