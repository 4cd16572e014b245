// Surface-only event-driven single-node engine: the fast path behind
// SocSystem::run (opt-in via SocConfig::fast_path).
//
// The dense reference loop (soc_system.cpp) evaluates the exact component
// models every 2 us tick — a Brent solve for the cell current dominates.
// This engine instead drives the real SocController through the one
// event-driven loop, flat::NodeStepper::run (sim/flat_stepper.hpp), which
// reads the precomputed hemp::flat surfaces and advances in long closed-form
// steps bounded by the controller's SocStepHint (deadlines and watch levels)
// and the trace knots.  The engine's step hook adds the waveform decimation
// cadence as one more deadline and records the decimated waveform rows.
// Zero exact solves run inside the stepped loop — the equivalence suite in
// tests/sim asserts this via hemp::solver_stats.
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

/// The fast path's step hook: the waveform cadence as one more deadline, and
/// one decimated waveform row per sample instant.
struct WaveformHook {
  const flat::NodeStepper& st;
  Waveform& waveform;
  double interval = 0.0;
  double next_sample = 0.0;

  /// A row is recorded after the step from `t` when next_sample is already
  /// due, so that step must not overshoot the sample after it.
  [[nodiscard]] double deadline(double t) const {
    return next_sample > t ? next_sample : t + interval;
  }

  HEMP_HOT void on_step(double t0, double g0, double /*dt*/,
                        const SocState& state, const SocCommand& cmd) {
    if (t0 < next_sample) return;
    const double row[8] = {st.v_s,
                           st.v_d,
                           g0,
                           st.f_eff,
                           state.p_harvest.value(),
                           st.p_load,
                           static_cast<double>(static_cast<int>(cmd.path)),
                           st.cycles};
    waveform.record(t0, row);
    next_sample = t0 + interval;
  }
};

}  // namespace

SimResult SocSystem::run_fast(const IrradianceTrace& trace_in,
                              SocController& controller, Seconds t_end) {
  const flat::FlatTrace trace = flat::flatten_coarsened(
      trace_in, t_end.value(), config_.trace_coarsen_eps);
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
    ctx->iv = flat::build_iv_surface({1.0}, config_.pv, v_max, flat::kIvVKnots,
                                     g_need, flat::kIvGKnots);
    ctx->g_max = g_need;
    fast_ctx_ = std::move(ctx);
  }

  Waveform waveform({"v_solar", "v_dd", "irradiance", "frequency_hz",
                     "p_harvest_w", "p_processor_w", "path", "cycles"});
  waveform.reserve_samples(
      static_cast<std::size_t>(t_end.value() / config_.waveform_interval.value()) +
      2);

  flat::NodeStepper st;
  st.configure(config_);
  st.sc = &fast_ctx_->sc;
  st.pc = &fast_ctx_->pc;
  st.trace = &trace;
  st.iv = fast_ctx_->iv.bind(1.0);
  st.t_end = t_end.value();
  st.replay_bypass_entry = true;

  WaveformHook hook{st, waveform, config_.waveform_interval.value()};
  const SocState state = st.run(controller, hook);
  waveform.finalize();
  return SimResult{std::move(waveform), st.totals(), state};
}

}  // namespace hemp
