// Surface-only event-driven single-node engine: the fast path behind
// SocSystem::run (opt-in via SocConfig::fast_path).
//
// The dense reference loop (soc_system.cpp) evaluates the exact component
// models every 2 us tick — a Brent solve for the cell current dominates.
// This engine instead drives the real SocController through the shared
// flat::NodeStepper (sim/flat_stepper.hpp), which reads the precomputed
// hemp::flat surfaces and advances in long closed-form steps bounded by the
// controller's SocStepHint (deadlines and watch levels), the trace knots,
// the comparator bank and the waveform decimation cadence.  Zero exact
// solves run inside the stepped loop — the equivalence suite in tests/sim
// asserts this via hemp::solver_stats.
#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/error.hpp"
#include "regulator/switched_cap.hpp"
#include "sim/flat_model.hpp"
#include "sim/flat_stepper.hpp"
#include "sim/soc_system.hpp"

namespace hemp {

/// Cached surfaces: rebuilt only when a trace exceeds the covered irradiance.
struct FastSocContext {
  flat::FlatSc sc;
  flat::FlatProc pc;
  flat::IvSurface iv;
  double g_max = 0.0;
};

bool SocSystem::fast_eligible() const {
  return dynamic_cast<const SwitchedCapRegulator*>(regulator_.get()) != nullptr;
}

namespace {

struct FastEngine {
  // Wiring (set once in run_fast).
  SocController* controller = nullptr;
  ComparatorBank* comparators = nullptr;
  std::vector<ComparatorEvent>* events = nullptr;
  Waveform* waveform = nullptr;
  double interval = 0.0;

  flat::NodeStepper st;
  SocState state{};
  SocCommand cmd{};
  double next_sample = 0.0;

  HEMP_HOT SimResult loop() {
    SocStepHint hint;
    while (!st.done()) {
      const double t = st.t;
      const double g0 = st.control(*controller, state, cmd, hint);
      // Step length from the controller's own bounds plus the waveform
      // cadence: a record fires this iteration when next_sample is already
      // due, so the step must not overshoot the sample after it.
      hint.deadline(next_sample > t ? next_sample : t + interval);
      st.step(cmd, hint, g0);
      st.observe(state);

      // --- Comparator edges, decimated waveform. ---------------------------
      comparators->update_into(Volts(st.v_s), Seconds(st.t), *events);
      for (const ComparatorEvent& ev : *events) {
        controller->on_comparator(ev, state, cmd);
      }
      if (t >= next_sample) {
        const double row[8] = {st.v_s,
                               st.v_d,
                               g0,
                               st.f_eff,
                               state.p_harvest.value(),
                               st.p_load,
                               static_cast<double>(static_cast<int>(cmd.path)),
                               st.cycles};
        waveform->record(t, row);
        next_sample = t + interval;
      }
      if (controller->finished(state)) break;
    }

    st.flush_step_counts();
    // hemp-analyzer: allow(hot-path-purity) — slack trim after the stepped loop
    waveform->finalize();
    return SimResult{std::move(*waveform), st.totals(), state};
  }
};

}  // namespace

SimResult SocSystem::run_fast(const IrradianceTrace& trace_in,
                              SocController& controller, Seconds t_end) {
  flat::FlatTrace trace = flat::flatten_trace(trace_in, t_end.value());
  if (config_.trace_coarsen_eps > 0.0) {
    trace.coarsen(config_.trace_coarsen_eps * t_end.value());
  }
  double g_need = trace.constant
                      ? trace.g_const
                      : *std::max_element(trace.gs.begin(), trace.gs.end());
  g_need = std::max(1.25, g_need * 1.05);

  if (!fast_ctx_ || fast_ctx_->g_max < g_need) {
    auto ctx = std::make_shared<FastSocContext>();
    const auto* screg =
        dynamic_cast<const SwitchedCapRegulator*>(regulator_.get());
    HEMP_REQUIRE(screg != nullptr,
                 "SocSystem: fast path needs the switched-cap regulator");
    ctx->sc = flat::make_flat_sc(screg->params());
    ctx->pc = flat::make_flat_proc(processor_);
    // Cover the full reachable solar-node range: open-circuit at the surface's
    // peak irradiance plus margin, and the configured start voltage.
    const double v_max = std::max(1.15 * config_.pv.voc_full_sun.value(),
                                  config_.solar_start_voltage.value() + 0.1);
    ctx->iv = flat::build_iv_surface({1.0}, config_.pv, v_max, /*v_knots=*/160,
                                     g_need, /*g_knots=*/64);
    ctx->g_max = g_need;
    fast_ctx_ = std::move(ctx);
  }

  ComparatorBank comparators(config_.comparator_thresholds);
  comparators.reset(config_.solar_start_voltage);
  std::vector<ComparatorEvent> events;
  events.reserve(comparators.size());
  Waveform waveform({"v_solar", "v_dd", "irradiance", "frequency_hz",
                     "p_harvest_w", "p_processor_w", "path", "cycles"});
  waveform.reserve_samples(
      static_cast<std::size_t>(t_end.value() / config_.waveform_interval.value()) +
      2);

  FastEngine e;
  e.controller = &controller;
  e.comparators = &comparators;
  e.events = &events;
  e.waveform = &waveform;
  e.interval = config_.waveform_interval.value();
  flat::NodeStepper& st = e.st;
  st.sc = &fast_ctx_->sc;
  st.pc = &fast_ctx_->pc;
  st.trace = &trace;
  st.bank = &comparators;
  st.iv = fast_ctx_->iv.bind(1.0);
  st.t_end = t_end.value();
  st.dt_ref = config_.time_step.value();
  st.tau = config_.regulation_time_constant.value();
  st.c_solar = config_.solar_capacitance.value();
  st.c_vdd = config_.vdd_capacitance.value();
  st.r_on = config_.bypass.on_resistance.value();
  st.replay_bypass_entry = true;
  st.v_s = config_.solar_start_voltage.value();
  st.v_d = config_.vdd_start_voltage.value();

  st.start(controller, e.state, e.cmd);
  return e.loop();
}

}  // namespace hemp
