#include "fleet/batch_kernel.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/error.hpp"
#include "common/interpolation.hpp"
#include "common/numeric.hpp"
#include "common/rng.hpp"
#include "common/solver_stats.hpp"
#include "core/energy_manager.hpp"
#include "core/regulator_selector.hpp"
#include "core/sprint_scheduler.hpp"
#include "core/system_model.hpp"
#include "harvester/iv_curve.hpp"
#include "harvester/pv_cell.hpp"
#include "policy/registry.hpp"
#include "processor/corners.hpp"
#include "processor/processor.hpp"
#include "regulator/switched_cap.hpp"
#include "sim/flat_model.hpp"
#include "sim/flat_stepper.hpp"
#include "sim/soc_system.hpp"
#include "trace/generators.hpp"

namespace hemp {

namespace {

// The batch kernel integrates every node with the shared flat::NodeStepper
// (sim/flat_stepper.hpp) over the hemp::flat closed forms.  Every physics and
// controller constant comes from the structs the reference engine uses
// (SocConfig, BypassParams, SwitchedCapParams, the per-node Processor, the
// forced policy's EnergyManagerParams, MppLut's sampling defaults); the
// constants below are only this kernel's own discretisation choices.

using flat::FlatTrace;
using flat::flatten_constant;
using flat::flatten_trace;
using PvFlat = flat::FlatPv;
using ProcFlat = flat::FlatProc;

// Surface resolution (shared across the fleet; exact solves, ctor only).
constexpr int kSurfaceSKnots = 13;
constexpr int kSurfaceGKnots = 61;
constexpr double kSurfaceGMin = 0.005;
constexpr double kSurfaceGMax = 1.25;
constexpr int kCrossTempKnots = 6;
constexpr int kCrossSKnots = 7;
constexpr double kCrossMinG = 0.045;  // below resolution: "no crossover"

// Terminal-current surface i(v, g): the stepped loop's only cell-model
// evaluation (bilinear in (v, g), scale-blended across two pv-scale slices).
// 1.7 V covers the largest open-circuit voltage any sampled cell reaches;
// the v pitch (~11 mV) keeps the bilinear error on the diode knee (curvature
// scale n*Vt ~ 116 mV) well under a percent.
constexpr int kIvVKnots = 160;
constexpr double kIvVMax = 1.7;
constexpr int kIvGKnots = 64;

// Every fleet node shares the default switched-cap regulator.
const flat::FlatSc kScFlat = flat::make_flat_sc(SwitchedCapParams{});

/// A node's cell: only Isc scales with pv_scale (same Voc/Rs/Rsh).
PvCellParams scaled_pv(double pv_scale) {
  PvCellParams p;
  p.isc_full_sun = p.isc_full_sun * pv_scale;
  return p;
}

bool sc_supports(double vin, double vout) {
  return flat::sc_supports(kScFlat, vin, vout);
}

double sc_efficiency(double vin, double vout, double pout) {
  return flat::sc_efficiency(kScFlat, vin, vout, pout);
}

// ---------------------------------------------------------------------------
// Shared (pv_scale, irradiance) MPP surfaces.
// ---------------------------------------------------------------------------

std::vector<double> linspace(double lo, double hi, int n) {
  std::vector<double> xs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    xs[static_cast<std::size_t>(i)] = lo + (hi - lo) * i / (n - 1);
  }
  return xs;
}

/// Degenerate sampled ranges (pv_scale_min == pv_scale_max) still need two
/// distinct grid knots.
std::pair<double, double> widen_if_degenerate(double lo, double hi) {
  if (hi - lo < 1e-12) hi = lo + 1e-6;
  return {lo, hi};
}

}  // namespace

// ---------------------------------------------------------------------------
// Shared state: everything precomputed once per scenario.
// ---------------------------------------------------------------------------

struct BatchFleetKernel::Shared {
  FleetScenario scenario;
  bool shared_sky = false;
  FlatTrace sky;  ///< valid when shared_sky

  /// Node hardware defaults the fleet never overrides (start voltages,
  /// regulation time constant, bypass switch, comparator bank); per-node
  /// capacitances and the time step come from the scenario.
  SocConfig soc{};
  /// Energy-manager parameters every lane runs: the forced policy's, or the
  /// defaults the legacy mix's mpp_track / mep_hold policies share (the
  /// per-node mode then comes from the sampled min_energy flag).
  EnergyManagerParams manager{};

  // SoA node-parameter plane (index-parallel arrays).
  std::vector<NodeSample> samples;
  std::vector<PvFlat> pv;
  std::vector<ProcFlat> proc;
  std::vector<double> crossover_power;  ///< 0 = no low-light crossover
  std::vector<FlatTrace> traces;        ///< empty when shared_sky
  std::vector<Processor> processors;    ///< kept for exact sprint planning

  // Shared MPP + terminal-current surfaces over (pv_scale, irradiance),
  // built by the hemp::flat layer (exact solves, ctor only).
  flat::MppSurface mpp;
  flat::IvSurface iv;

  // Exact cell/regulator the sprint scheduler's SystemModel plumbs through
  // (plan() only touches the processor, but the model wants references).
  PvCell ref_cell{PvCellParams{}};
  SwitchedCapRegulator ref_reg;

  [[nodiscard]] double vmpp_at(double s, double g) const {
    return mpp.vmpp_at(s, g);
  }

  [[nodiscard]] double pmpp_at(double s, double g) const {
    return mpp.pmpp_at(s, g);
  }
};

BatchFleetKernel::BatchFleetKernel(FleetScenario scenario) {
  auto shared = std::make_shared<Shared>();
  Shared& sh = *shared;
  sh.scenario = std::move(scenario);
  sh.scenario.validate();
  const FleetScenario& sc = sh.scenario;

  // --- Forced scenario policy: the flattened manager lane implements
  // EnergyManager with a FIFO job queue, so only EnergyManager-backed FIFO
  // policies can ride this kernel; everything else must use the reference
  // engine. ------------------------------------------------------------------
  bool forced = false;
  if (!sc.policy.empty()) {
    const EnergyManagerParams* params =
        PolicyRegistry::global().at(sc.policy).manager_params();
    if (params == nullptr ||
        params->queue_discipline != QueueDiscipline::kFifo) {
      throw ModelError("BatchFleetKernel: policy '" + sc.policy +
                       "' has no batch-kernel lane; run it on the reference "
                       "kernel (fleetsim --kernel reference)");
    }
    sh.manager = *params;
    forced = true;
  }

  // --- Shared MPP + terminal-current surfaces: exact solves sampled once
  // for the fleet by the hemp::flat builders. -------------------------------
  const auto [s_lo, s_hi] =
      widen_if_degenerate(sc.pv_scale_min, sc.pv_scale_max);
  sh.mpp = flat::build_mpp_surface(PvCellParams{}, s_lo, s_hi, kSurfaceSKnots,
                                   kSurfaceGMin, kSurfaceGMax, kSurfaceGKnots);
  sh.iv = flat::build_iv_surface(linspace(s_lo, s_hi, kSurfaceSKnots),
                                 PvCellParams{}, kIvVMax, kIvVKnots,
                                 kSurfaceGMax, kIvGKnots);

  // --- Low-light crossover tables: exact RegulatorSelector bisection per
  // corner over a coarse (temperature, pv_scale) grid; interpolated per node.
  const std::vector<double> temp_knots = linspace(-20.0, 85.0, kCrossTempKnots);
  const std::vector<double> cross_s_knots = linspace(s_lo, s_hi, kCrossSKnots);
  constexpr ProcessCorner kAllCorners[] = {ProcessCorner::kSlowSlow,
                                           ProcessCorner::kTypical,
                                           ProcessCorner::kFastFast};
  std::array<std::optional<BilinearGrid>, 3> cross_grids;
  for (int c = 0; c < 3; ++c) {
    std::vector<double> vals(temp_knots.size() * cross_s_knots.size());
    for (std::size_t i = 0; i < temp_knots.size(); ++i) {
      for (std::size_t j = 0; j < cross_s_knots.size(); ++j) {
        const PvCell cell(scaled_pv(cross_s_knots[j]));
        const SwitchedCapRegulator reg;
        const Processor proc =
            make_test_chip_at({kAllCorners[c], temp_knots[i]});
        const SystemModel model(cell, reg, proc);
        RegulatorSelector selector(model);
        const auto g_cross = selector.crossover_irradiance();
        vals[i * cross_s_knots.size() + j] = g_cross.value_or(0.0);
      }
    }
    cross_grids[static_cast<std::size_t>(c)].emplace(temp_knots, cross_s_knots,
                                                     std::move(vals));
  }

  // --- Node identity sampling: exactly FleetSimulator's draw order, so the
  // per-node RNG stream continues into the same trace draws afterwards. -----
  sh.shared_sky = sc.shared_trace || sc.trace_kind == TraceKind::kCsv ||
                  sc.trace_kind == TraceKind::kConstant;
  const auto make_trace = [&sc](Rng& rng) -> IrradianceTrace {
    switch (sc.trace_kind) {
      case TraceKind::kConstant:
        return IrradianceTrace::constant(sc.constant_g);
      case TraceKind::kDiurnal: {
        DiurnalArcParams params;
        params.day_length = sc.day_length;
        return diurnal_arc(rng, params);
      }
      case TraceKind::kClouds: {
        CloudFieldParams params;
        params.day.day_length = sc.day_length;
        const double stretch = sc.day_length.value() / 0.25;
        params.mean_gap = Seconds(0.03 * stretch);
        params.mean_duration = Seconds(0.01 * stretch);
        return cloud_field(rng, params);
      }
      case TraceKind::kIndoor: {
        IndoorDutyParams params;
        params.duration = sc.day_length;
        const double stretch = sc.day_length.value() / 0.25;
        params.mean_on = Seconds(0.04 * stretch);
        params.mean_off = Seconds(0.02 * stretch);
        return indoor_duty(rng, params);
      }
      case TraceKind::kCsv:
        return IrradianceTrace::from_csv(sc.trace_csv);
    }
    throw ModelError("BatchFleetKernel: unknown trace kind");
  };

  // Adaptive knot coarsening: every flattened trace gives up knots until the
  // cumulative absorbed-irradiance perturbation hits the scenario's per-day
  // budget (see flat::FlatTrace::coarsen).  Each surviving knot is a step the
  // event-driven loop must take, so this directly buys throughput.
  const double coarsen_budget = sc.trace_coarsen_eps * sc.day_length.value();
  if (sh.shared_sky) {
    Rng sky_rng = Rng(sc.seed).fork(~0ULL);
    const IrradianceTrace trace = make_trace(sky_rng);
    sh.sky = sc.trace_kind == TraceKind::kConstant
                 ? flatten_constant(sc.constant_g)
                 : flatten_trace(trace, sc.day_length.value());
    if (coarsen_budget > 0.0) sh.sky.coarsen(coarsen_budget);
  }

  const std::size_t n = static_cast<std::size_t>(sc.nodes);
  sh.samples.resize(n);
  sh.pv.resize(n);
  sh.proc.resize(n);
  sh.crossover_power.resize(n);
  sh.processors.reserve(n);
  if (!sh.shared_sky) sh.traces.resize(n);

  static constexpr ProcessCorner kCorners[] = {ProcessCorner::kSlowSlow,
                                               ProcessCorner::kTypical,
                                               ProcessCorner::kFastFast};
  for (std::size_t i = 0; i < n; ++i) {
    Rng rng = Rng(sc.seed).fork(static_cast<std::uint64_t>(i));
    NodeSample& s = sh.samples[i];
    s.index = static_cast<int>(i);
    s.pv_scale = rng.uniform(sc.pv_scale_min, sc.pv_scale_max);
    s.solar_capacitance =
        Farads(std::exp(rng.uniform(std::log(sc.solar_cap_min.value()),
                                    std::log(sc.solar_cap_max.value()))));
    s.conditions.corner = kCorners[rng.weighted(sc.corner_weights.data(),
                                                sc.corner_weights.size())];
    s.conditions.temperature_c =
        std::clamp(rng.normal(sc.temperature_mean_c, sc.temperature_sigma_c),
                   -20.0, 85.0);
    s.min_energy = rng.uniform() < sc.min_energy_fraction;
    // The Bernoulli draw above must always happen — the per-node stream
    // continues into the phase/trace draws — but a forced policy overrides
    // the sampled mode (the effective mode lands in the report's CSV).
    if (forced) s.min_energy = sh.manager.mode == ManagerMode::kMinEnergy;
    s.job_phase = sc.job_cycles > 0.0
                      ? Seconds(rng.uniform(0.0, sc.job_period.value()))
                      : Seconds(0.0);
    if (!sh.shared_sky) {
      sh.traces[i] = flatten_trace(make_trace(rng), sc.day_length.value());
      if (coarsen_budget > 0.0) sh.traces[i].coarsen(coarsen_budget);
    }

    sh.pv[i] = flat::make_flat_pv(scaled_pv(s.pv_scale));
    sh.processors.push_back(make_test_chip_at(s.conditions));
    sh.proc[i] = flat::make_flat_proc(sh.processors.back());

    const int corner_ix = s.conditions.corner == ProcessCorner::kSlowSlow ? 0
                          : s.conditions.corner == ProcessCorner::kTypical ? 1
                                                                           : 2;
    const double g_cross = (*cross_grids[static_cast<std::size_t>(corner_ix)])(
        s.conditions.temperature_c, s.pv_scale);
    sh.crossover_power[i] =
        g_cross >= kCrossMinG ? sh.pmpp_at(s.pv_scale, g_cross) : 0.0;
    // A zero crossover power is exactly how the manager encodes "bypass off".
    if (!sh.manager.low_light_bypass_enabled) sh.crossover_power[i] = 0.0;
  }

  shared_ = std::move(shared);
}

BatchFleetKernel::~BatchFleetKernel() = default;

const FleetScenario& BatchFleetKernel::scenario() const {
  return shared_->scenario;
}

namespace {

// ---------------------------------------------------------------------------
// Per-node lane: the flattened controller state machine driving the shared
// flat::NodeStepper, integrated to completion one node at a time
// (everything lives in registers / L1).
// ---------------------------------------------------------------------------

enum class MgrState { kTracking, kSprinting, kRecovering };

struct MepSlot {
  bool computed = false;
  bool feasible = false;
  double vdd = 0.0;
  double freq = 0.0;
};

struct SprintPlanFlat {
  bool computed = false;
  bool feasible = false;
  double cycles = 0.0;
  double deadline = 0.0;
  double phase_time = 0.0;
  double slow_v = 0.0, slow_f = 0.0;
  double fast_v = 0.0, fast_f = 0.0;
};

struct NodeRunner {
  const BatchFleetKernel::Shared& sh;
  const NodeSample& s;
  const PvFlat& pv;
  const ProcFlat& pc;
  const EnergyManagerParams& mp;
  const MppTrackerParams& tp;
  double crossover_power;
  std::vector<BatchComparatorEvent>* events;  ///< traced mode, else null

  flat::NodeStepper st;
  SocCommand cmd{};
  SocStepHint hint{};  ///< refilled every step by fill_hint()
  double g0 = 0.0;     ///< irradiance at the present step's start

  // --- energy manager
  MgrState mgr = MgrState::kTracking;
  bool bypass = false;
  double prev_v_mgr = 0.0;
  double next_reassess = 0.0;
  bool has_pest = false;
  double p_est = 0.0;

  // --- sprint
  SprintPlanFlat plan{};
  double sprint_started = 0.0;
  double sprint_start_cycles = 0.0;
  bool sprint_bypassed = false;

  // --- MPP tracker
  double v_target = 0.0;
  long level = 0;
  double next_control = 0.0;
  double prev_v_trk = 0.0;
  bool th_high_out = false, th_low_out = false;
  bool th_armed = false;
  double th_armed_at = 0.0;
  bool timer_watched = false;  ///< tracker ran this eval -> watch its levels

  // --- periodic jobs
  int queue = 0;
  double next_submit = 0.0;
  int jobs_submitted = 0, jobs_completed = 0, jobs_missed = 0;

  double mppt_num = 0.0, mppt_den = 0.0;

  // --- caches
  std::array<MepSlot, 32> mep_cache{};
  std::optional<PiecewiseLinear> lut_p2v{}, lut_p2p{};
  std::vector<double> ladder_v{}, ladder_f{};

  // --- solar-node comparator bank (traced mode only)
  std::optional<ComparatorBank> bank{};
  std::vector<ComparatorEvent> bank_edges{};

  NodeRunner(const BatchFleetKernel::Shared& shared, std::size_t i,
             std::vector<BatchComparatorEvent>* traced = nullptr)
      : sh(shared),
        s(shared.samples[i]),
        pv(shared.pv[i]),
        pc(shared.proc[i]),
        mp(shared.manager),
        tp(shared.manager.tracker),
        crossover_power(shared.crossover_power[i]),
        events(traced) {
    st.sc = &kScFlat;
    st.pc = &pc;
    st.trace = sh.shared_sky ? &sh.sky : &sh.traces[i];
    st.iv = sh.iv.bind(s.pv_scale);
    st.t_end = sh.scenario.day_length.value();
    st.dt_ref = sh.scenario.time_step.value();
    st.tau = sh.soc.regulation_time_constant.value();
    st.c_solar = s.solar_capacitance.value();
    st.c_vdd = sh.scenario.vdd_cap.value();
    st.r_on = sh.soc.bypass.on_resistance.value();
    st.v_s = sh.soc.solar_start_voltage.value();
    st.v_d = sh.soc.vdd_start_voltage.value();
    cmd.vdd_target = sh.soc.vdd_start_voltage;
  }

  // ---------------------------------------------------------------------
  // Setup
  // ---------------------------------------------------------------------

  void build_ladder() {
    const int steps = tp.dvfs_steps;
    const double lo = pc.vmin;
    const double hi = std::min(tp.vdd_ceiling.value(), pc.vmax);
    ladder_v.resize(static_cast<std::size_t>(steps));
    ladder_f.resize(static_cast<std::size_t>(steps));
    for (int i = 0; i < steps; ++i) {
      const double v = lo + (hi - lo) * i / (steps - 1);
      ladder_v[static_cast<std::size_t>(i)] = v;
      ladder_f[static_cast<std::size_t>(i)] = proc_fmax(pc, v);
    }
  }

  /// MppLut surrogate: sample the cell at the mid-threshold voltage with the
  /// fast Newton solve, map power -> (Vmpp, Pmpp) via the shared surfaces.
  void build_lut() {
    const double v_meas = 0.5 * (tp.v_high.value() + tp.v_low.value());
    std::vector<double> p, vmpp, pmpp;
    double last_p = -1.0;
    double warm = 0.0;
    for (int i = 0; i < kMppLutSamples; ++i) {
      const double g = kMppLutGMin + (kMppLutGMax - kMppLutGMin) * i /
                                         (kMppLutSamples - 1);
      const double p_meas = v_meas * pv_current(pv, v_meas, g, warm);
      if (p_meas <= last_p) continue;
      p.push_back(p_meas);
      vmpp.push_back(sh.vmpp_at(s.pv_scale, g));
      pmpp.push_back(sh.pmpp_at(s.pv_scale, g));
      last_p = p_meas;
    }
    lut_p2v.emplace(p, vmpp);
    lut_p2p.emplace(p, pmpp);
  }

  void reset_timer(double v) {
    th_high_out = v > tp.v_high.value();
    th_low_out = v > tp.v_low.value();
    th_armed = false;
  }

  void on_start() {
    build_ladder();
    build_lut();
    next_submit = s.job_phase.value();
    // MppTrackingController::on_start
    v_target = sh.vmpp_at(s.pv_scale, 1.0);
    reset_timer(st.v_s);
    level = 0;
    cmd.path = PowerPath::kRegulated;
    cmd.run = true;
    ladder_apply();
    // EnergyManager::on_start
    prev_v_mgr = st.v_s;
    enter_tracking();
    if (events != nullptr) {
      bank.emplace(sh.soc.comparator_thresholds);
      bank->reset(Volts(st.v_s));
      bank_edges.reserve(bank->size());
      st.bank = &*bank;
    }
  }

  void update_bank() {
    bank->update_into(Volts(st.v_s), Seconds(st.t), bank_edges);
    const std::vector<Volts>& th = bank->thresholds();
    for (const ComparatorEvent& e : bank_edges) {
      const auto i = std::find(th.begin(), th.end(), e.threshold) - th.begin();
      // hemp-analyzer: allow(hot-path-purity) — traced diagnostic mode
      events->push_back(
          {static_cast<int>(i), e.edge == Edge::kRising, e.time});
    }
  }

  // ---------------------------------------------------------------------
  // Controller (flattened PeriodicJobController + EnergyManager +
  // MppTrackingController; branch order mirrors the reference sources).
  // ---------------------------------------------------------------------

  void ladder_apply() {
    level = std::clamp<long>(level, 0, static_cast<long>(ladder_v.size()) - 1);
    cmd.vdd_target = Volts(ladder_v[static_cast<std::size_t>(level)]);
    cmd.frequency = Hertz(ladder_f[static_cast<std::size_t>(level)]);
  }

  void ladder_step(int delta) {
    level += delta;
    ladder_apply();
  }

  void apply_mep(double g_estimate) {
    const int bucket = static_cast<int>(g_estimate * 20.0 + 0.5);
    MepSlot& slot = mep_cache[static_cast<std::size_t>(
        std::clamp(bucket, 0, 31))];
    if (!slot.computed) {
      slot.computed = true;
      const double g = std::max(bucket, 1) / 20.0;
      const double vmpp = sh.vmpp_at(s.pv_scale, g);
      auto objective = [&](double v) {
        if (!sc_supports(vmpp, v)) {
          return std::numeric_limits<double>::infinity();
        }
        const double eta = sc_efficiency(vmpp, v, proc_max_power(pc, v));
        if (eta <= 0.0) return std::numeric_limits<double>::infinity();
        return proc_epc(pc, v) / eta;
      };
      // Memoized: at most 32 buckets per node-day reach this solve.
      // hemp-analyzer: allow(hot-path-purity) — cold memoized MEP branch
      const auto r = numeric::grid_refine_minimize(
          objective, pc.vmin, pc.vmax, {.x_tol = 1e-6, .grid_points = 160});
      if (std::isfinite(r.value)) {
        slot.feasible = true;
        slot.vdd = r.x;
        slot.freq = proc_fmax(pc, r.x);
      }
    }
    if (slot.feasible) {
      cmd.vdd_target = Volts(slot.vdd);
      cmd.frequency = Hertz(slot.freq);
    }
  }

  void enter_tracking() {
    mgr = MgrState::kTracking;
    cmd.path = bypass ? PowerPath::kBypass : PowerPath::kRegulated;
    cmd.run = true;
    if (s.min_energy && !bypass) apply_mep(0.5);
  }

  void refresh_light_estimate() {
    if (st.t < next_reassess) return;
    next_reassess = st.t + mp.reassess_period.value();
    const double dv = std::fabs(st.v_s - prev_v_mgr);
    prev_v_mgr = st.v_s;
    if (dv > 0.01) return;
    // The previous step's load (the stepper re-gates it after this eval).
    double p_draw = st.p_load;
    if (!bypass && p_draw > 0.0 && sc_supports(st.v_s, cmd.vdd_target.value())) {
      const double eta = sc_efficiency(st.v_s, cmd.vdd_target.value(), p_draw);
      if (eta > 0.0) p_draw /= eta;
    }
    if (p_draw > 0.0) {
      p_est = p_draw;
      has_pest = true;
    }
    if (has_pest && crossover_power > 0.0) {
      if (!bypass && p_est < mp.bypass_enter_ratio * crossover_power) {
        bypass = true;
      } else if (bypass && p_est > mp.bypass_exit_ratio * crossover_power) {
        bypass = false;
      }
    }
  }

  void seed_for_budget(double budget) {
    std::size_t chosen = 0;
    for (std::size_t i = 0; i < ladder_v.size(); ++i) {
      const double v = ladder_v[i];
      if (!sc_supports(st.v_s, v)) continue;
      const double pout = proc_max_power(pc, v);
      const double eta = sc_efficiency(st.v_s, v, pout);
      if (eta <= 0.0) continue;
      if (pout / eta <= budget) chosen = i;
    }
    level = static_cast<long>(chosen);
    ladder_apply();
  }

  /// ThresholdTimer::update flattened; returns the measured fall interval.
  std::optional<double> timer_update() {
    const double v_s = st.v_s;
    const double v_high = tp.v_high.value();
    const double v_low = tp.v_low.value();
    bool high_fall = false, high_rise = false, low_fall = false;
    if (!th_high_out && v_s > v_high + flat::kCompHalfHyst) {
      th_high_out = true;
      high_rise = true;
    } else if (th_high_out && v_s < v_high - flat::kCompHalfHyst) {
      th_high_out = false;
      high_fall = true;
    }
    if (!th_low_out && v_s > v_low + flat::kCompHalfHyst) {
      th_low_out = true;
    } else if (th_low_out && v_s < v_low - flat::kCompHalfHyst) {
      th_low_out = false;
      low_fall = true;
    }
    if (high_fall) {
      th_armed = true;
      th_armed_at = st.t;
    } else if (high_rise) {
      th_armed = false;
    }
    if (low_fall && th_armed) {
      th_armed = false;
      const double interval = st.t - th_armed_at;
      if (interval > 0.0) return interval;
    }
    return std::nullopt;
  }

  void tracker_tick() {
    timer_watched = true;
    if (const auto fall = timer_update(); fall && *fall > 0.0) {
      const double vdd = cmd.vdd_target.value();
      double p_draw = st.p_load;
      if (sc_supports(st.v_s, vdd) && p_draw > 0.0) {
        const double eta = sc_efficiency(st.v_s, vdd, p_draw);
        if (eta > 0.0) p_draw /= eta;
      }
      // Eq. 7: subtract the cap's discharge contribution over the interval.
      const double v_high = tp.v_high.value();
      const double v_low = tp.v_low.value();
      const double discharge = 0.5 * tp.solar_capacitance.value() *
                               (v_high * v_high - v_low * v_low) / *fall;
      const double p_in = std::max(p_draw - discharge, 0.0);
      v_target = (*lut_p2v)(p_in);
      seed_for_budget((*lut_p2p)(p_in));
      next_control = st.t + tp.control_period.value();
      return;
    }
    if (th_armed) return;
    if (st.t < next_control) return;
    next_control = st.t + tp.control_period.value();
    const double err = st.v_s - v_target;
    const double dv = st.v_s - prev_v_trk;
    prev_v_trk = st.v_s;
    const double deadband = tp.deadband.value();
    const double slew = tp.slew_tolerance.value();
    if (err > deadband && dv > -slew) {
      ladder_step(+1);
    } else if (err < -deadband && dv < slew) {
      ladder_step(-1);
    }
  }

  void start_next_job() {
    --queue;
    if (!plan.computed) {
      plan.computed = true;
      // Every fleet job is identical, so the exact scheduler runs once per
      // node; plan() only exercises the processor model (no counted solves).
      const SystemModel model(sh.ref_cell, sh.ref_reg,
                              sh.processors[static_cast<std::size_t>(s.index)]);
      SprintScheduler scheduler(model);
      const SprintPlan p =
          // hemp-analyzer: allow(hot-path-purity) — once-per-node plan
          scheduler.plan(sh.scenario.job_cycles, sh.scenario.job_deadline,
                         mp.sprint_factor);
      plan.feasible = p.feasible;
      if (p.feasible) {
        plan.cycles = p.cycles;
        plan.deadline = p.deadline.value();
        plan.phase_time = p.phase_time.value();
        plan.slow_v = p.slow.vdd.value();
        plan.slow_f = p.slow.frequency.value();
        plan.fast_v = p.fast.vdd.value();
        plan.fast_f = p.fast.frequency.value();
      }
    }
    if (!plan.feasible) {
      ++jobs_missed;
      return;
    }
    sprint_started = st.t;
    sprint_start_cycles = st.cycles;
    sprint_bypassed = false;
    mgr = MgrState::kSprinting;
    cmd.path = PowerPath::kRegulated;
    cmd.vdd_target = Volts(plan.slow_v);
    cmd.frequency = Hertz(plan.slow_f);
    cmd.run = true;
  }

  void tick_tracking() {
    if (queue > 0) {
      start_next_job();
      return;
    }
    refresh_light_estimate();
    if (bypass) {
      cmd.path = PowerPath::kBypass;
      if (st.v_d >= pc.vmin && st.v_d <= pc.vmax) {
        cmd.frequency = Hertz(proc_fmax(pc, st.v_d));
        cmd.run = true;
      } else {
        cmd.run = false;
      }
      return;
    }
    cmd.path = PowerPath::kRegulated;
    if (!s.min_energy) {
      tracker_tick();
    } else {
      const double g =
          has_pest
              ? std::clamp(p_est / std::max(sh.pmpp_at(s.pv_scale, 1.0), 1e-9),
                           0.05, 1.0)
              : 0.5;
      apply_mep(g);
    }
  }

  void end_sprint(bool completed) {
    if (completed) {
      ++jobs_completed;
    } else {
      ++jobs_missed;
    }
    mgr = MgrState::kRecovering;
    cmd.run = false;
    cmd.path = PowerPath::kRegulated;
  }

  void tick_sprinting() {
    const double done = st.cycles - sprint_start_cycles;
    const double elapsed = st.t - sprint_started;
    if (done >= plan.cycles) {
      end_sprint(true);
      return;
    }
    if (elapsed > plan.deadline * kSprintOverrunFactor) {
      end_sprint(false);
      return;
    }
    if (sprint_bypassed) {
      if (st.v_d >= pc.vmin) {
        // The reference would fault above Vmax; the shared node can overshoot
        // it under strong sun, so the kernel clamps (documented divergence).
        cmd.frequency = Hertz(proc_fmax(pc, std::min(st.v_d, pc.vmax)));
      }
      return;
    }
    const bool slow_phase = elapsed < plan.phase_time;
    const double op_v = slow_phase ? plan.slow_v : plan.fast_v;
    cmd.vdd_target = Volts(op_v);
    cmd.frequency = Hertz(slow_phase ? plan.slow_f : plan.fast_f);
    const bool no_headroom = !sc_supports(st.v_s, op_v);
    const bool sagging = st.v_d < op_v - kSprintSagMargin.value() &&
                         elapsed > kSprintSagArmDelay.value();
    if (no_headroom || sagging) {
      sprint_bypassed = true;
      cmd.path = PowerPath::kBypass;
    }
  }

  void tick_recovering() {
    cmd.run = false;
    cmd.path = PowerPath::kRegulated;
    if (st.v_s >= mp.recover_voltage.value() || queue > 0) enter_tracking();
  }

  HEMP_HOT void controller_eval() {
    timer_watched = false;
    if (events != nullptr) update_bank();
    // PeriodicJobController::on_tick
    if (sh.scenario.job_cycles > 0.0 && st.t >= next_submit) {
      ++queue;
      ++jobs_submitted;
      next_submit += sh.scenario.job_period.value();
    }
    switch (mgr) {
      case MgrState::kTracking: tick_tracking(); break;
      case MgrState::kSprinting: tick_sprinting(); break;
      case MgrState::kRecovering: tick_recovering(); break;
    }
  }

  /// The controller's step advice (EnergyManager::step_hint, flattened).
  /// Only deadlines strictly after t bound the step: a stale timer — the
  /// tracker's control deadline while a fall measurement is armed, or the
  /// reassess timer right after a job start — must not pin it to one tick.
  /// The hint is reused across steps: only its counts and deadline reset.
  HEMP_HOT void fill_hint() {
    hint.event_driven = true;
    hint.next_deadline_s = std::numeric_limits<double>::infinity();
    hint.solar_watch_count = 0;
    hint.rail_watch_count = 0;
    const double t = st.t;
    const auto future = [&](double when) {
      if (when > t) hint.deadline(when);
    };
    if (sh.scenario.job_cycles > 0.0) future(next_submit);
    if (mgr == MgrState::kTracking) {
      future(next_reassess);
      if (timer_watched) {
        future(next_control);
        // Threshold-timer levels, direction-resolved by the latched outputs.
        const double v_high = tp.v_high.value();
        const double v_low = tp.v_low.value();
        hint.watch_solar(th_high_out ? v_high - flat::kCompHalfHyst
                                     : v_high + flat::kCompHalfHyst);
        hint.watch_solar(th_low_out ? v_low - flat::kCompHalfHyst
                                    : v_low + flat::kCompHalfHyst);
      }
      if (queue > 0) future(t + st.dt_ref);  // a job starts at the next eval
    } else if (mgr == MgrState::kSprinting) {
      const double arm = kSprintSagArmDelay.value();
      future(sprint_started + kSprintOverrunFactor * plan.deadline);
      if (!sprint_bypassed) {
        future(sprint_started + plan.phase_time);
        future(sprint_started + arm);
        if (t - sprint_started > arm) {
          hint.watch_rail(cmd.vdd_target.value() - kSprintSagMargin.value());
        }
      }
      if (st.f_eff > 0.0) {
        const double remaining = plan.cycles - (st.cycles - sprint_start_cycles);
        future(t + remaining / st.f_eff);
      }
    } else {
      hint.watch_solar(mp.recover_voltage.value());
    }
  }

  // ---------------------------------------------------------------------
  // Main loop: the stepper's prologue/epilogue split, so a lane driver can
  // batch the solar solve across nodes via flat::integrate_solar_lane.
  // ---------------------------------------------------------------------

  /// Controller + load gate + dt selection + integration pre-pass.
  HEMP_HOT void step_prologue(flat::StepPlan& pl) {
    g0 = st.irradiance();
    controller_eval();
    st.gate(cmd);
    fill_hint();
    st.prologue(cmd, hint, g0, pl);
  }

  /// Stepper epilogue + the MPPT tracking error, dt-weighted (the reference
  /// averages uniform waveform samples under the same predicate).
  HEMP_HOT void step_epilogue(const flat::StepPlan& pl, double p_avg) {
    st.epilogue(cmd, pl, p_avg);
    if (cmd.path == PowerPath::kRegulated && st.f_eff > 0.0 && g0 >= 0.05) {
      const double g_q = std::round(g0 * 100.0) / 100.0;
      if (g_q >= 0.05) {
        const double vmpp = sh.vmpp_at(s.pv_scale, g_q);
        if (vmpp > 0.0) {
          mppt_num += pl.dt * std::fabs(st.v_s - vmpp) / vmpp;
          mppt_den += pl.dt;
        }
      }
    }
  }

  /// Day-end flush: comparator-bank edges, step accounting, result build.
  NodeResult finish() {
    if (events != nullptr) update_bank();  // final edge flush at day end
    st.flush_step_counts();

    NodeResult out;
    out.sample = s;
    out.cycles = st.cycles;
    out.brownouts = st.brownouts;
    out.timing_faults = st.timing_faults;
    out.jobs_submitted = jobs_submitted;
    out.jobs_completed = jobs_completed;
    out.jobs_missed = jobs_missed;
    const int adjudicated = jobs_completed + jobs_missed;
    out.deadline_hit_rate =
        adjudicated > 0 ? static_cast<double>(jobs_completed) / adjudicated
                        : 1.0;
    out.mppt_error = mppt_den > 0.0 ? mppt_num / mppt_den : 0.0;
    out.harvested = Joules(st.harvested);
    out.delivered = Joules(st.delivered);
    out.halted = Seconds(st.halted);
    out.energy_per_job = jobs_completed > 0
                             ? Joules(st.delivered / jobs_completed)
                             : Joules(0.0);
    return out;
  }

  /// Scalar driver: the reference arrangement of the split step, used by
  /// run_node() / traced runs and as the bit-identity baseline for the lane
  /// driver below.
  HEMP_HOT NodeResult run() {
    // One-time setup before the stepped loop (builds LUT/ladder buffers).
    // hemp-analyzer: allow(hot-path-purity) — setup edge, not per-step
    on_start();
    flat::StepPlan pl;
    while (!st.done()) {
      step_prologue(pl);
      step_epilogue(pl, st.solve(pl));
    }
    return finish();
  }
};

/// Lane driver: advances up to flat::kSolarLaneWidth node runners
/// concurrently so their solar-node Newton solves share one vectorizable
/// flat::integrate_solar_lane call per round.  Nodes advance at independent
/// times — there is nothing to synchronize; grouping is by concurrent
/// stepping, not trace identity — and a slot whose day completes is refilled
/// with the next pending node, so short-lived lanes never idle the loop.
/// Steps the lane cannot express (the conducting-bypass merged solve)
/// integrate scalar inside the prologue and simply skip the gather.  Lane
/// elements converge and freeze independently inside integrate_solar_lane,
/// so every node executes exactly the scalar step sequence and the results
/// written to `out` are bit-identical to run_node() per node.
void run_nodes_laned(const BatchFleetKernel::Shared& sh, int lo, int hi,
                     NodeResult* out) {
  constexpr int kW = flat::kSolarLaneWidth;
  std::array<std::optional<NodeRunner>, kW> slot;
  std::array<int, kW> node_of{};
  std::array<flat::StepPlan, kW> plan{};
  int next = lo;
  int active = 0;

  const auto fill = [&](int w) {
    auto& r = slot[static_cast<std::size_t>(w)];
    r.emplace(sh, static_cast<std::size_t>(next));
    node_of[static_cast<std::size_t>(w)] = next++;
    r->on_start();
    ++active;
  };
  for (int w = 0; w < kW && next < hi; ++w) fill(w);

  // Gather buffers for the lane call (element order = ascending slot).
  std::array<flat::IvSurface::Bound, kW> iv_g{};
  std::array<double, kW> c_g{}, v_g{}, dt_g{}, gm_g{}, pin_g{}, pavg_g{};

  while (active > 0) {
    int n_lane = 0;
    for (int w = 0; w < kW; ++w) {
      auto& r = slot[static_cast<std::size_t>(w)];
      if (!r) continue;
      auto& pl = plan[static_cast<std::size_t>(w)];
      r->step_prologue(pl);
      if (pl.solar_solve) {
        const auto e = static_cast<std::size_t>(n_lane);
        iv_g[e] = r->st.iv;
        c_g[e] = r->st.c_solar;
        v_g[e] = r->st.v_s;
        dt_g[e] = pl.dt;
        gm_g[e] = pl.g_mid;
        pin_g[e] = pl.p_in;
        ++n_lane;
      }
    }
    if (n_lane > 0) {
      flat::integrate_solar_lane(iv_g.data(), c_g.data(), v_g.data(),
                                 dt_g.data(), gm_g.data(), pin_g.data(),
                                 pavg_g.data(), n_lane);
    }
    int e = 0;
    for (int w = 0; w < kW; ++w) {
      auto& r = slot[static_cast<std::size_t>(w)];
      if (!r) continue;
      const auto& pl = plan[static_cast<std::size_t>(w)];
      double p_avg = 0.0;
      if (pl.solar_solve) {
        const auto ei = static_cast<std::size_t>(e);
        r->st.v_s = v_g[ei];
        p_avg = pavg_g[ei];
        ++e;
      }
      r->step_epilogue(pl, p_avg);
      if (r->st.done()) {
        out[node_of[static_cast<std::size_t>(w)]] = r->finish();
        r.reset();
        --active;
        if (next < hi) fill(w);
      }
    }
  }
}

}  // namespace

NodeResult BatchFleetKernel::run_node(int index) const {
  HEMP_REQUIRE(index >= 0 && index < shared_->scenario.nodes,
               "BatchFleetKernel: node index out of range");
  NodeRunner lane(*shared_, static_cast<std::size_t>(index));
  return lane.run();
}

NodeResult BatchFleetKernel::run_node_traced(
    int index, std::vector<BatchComparatorEvent>& events) const {
  HEMP_REQUIRE(index >= 0 && index < shared_->scenario.nodes,
               "BatchFleetKernel: node index out of range");
  NodeRunner lane(*shared_, static_cast<std::size_t>(index), &events);
  return lane.run();
}

FleetReport BatchFleetKernel::run(const BatchKernelOptions& opts) const {
  const Shared& sh = *shared_;
  const auto before = solver_stats::snapshot();
  const int n = sh.scenario.nodes;
  std::vector<NodeResult> results(static_cast<std::size_t>(n));
  const int block = std::max(1, opts.block_size);
  if (!opts.parallel || n <= block) {
    if (opts.simd_lanes) {
      run_nodes_laned(sh, 0, n, results.data());
    } else {
      for (int i = 0; i < n; ++i) {
        results[static_cast<std::size_t>(i)] = run_node(i);
      }
    }
  } else {
    const std::size_t blocks =
        (static_cast<std::size_t>(n) + static_cast<std::size_t>(block) - 1) /
        static_cast<std::size_t>(block);
    ThreadPool& pool = opts.pool != nullptr ? *opts.pool : ThreadPool::shared();
    parallel_for(pool, blocks, [&](std::size_t b) {
      const int lo = static_cast<int>(b) * block;
      const int hi = std::min(lo + block, n);
      if (opts.simd_lanes) {
        run_nodes_laned(sh, lo, hi, results.data());
      } else {
        for (int i = lo; i < hi; ++i) {
          results[static_cast<std::size_t>(i)] = run_node(i);
        }
      }
    });
  }
  if (opts.check_no_exact_solves) {
    const auto delta = solver_stats::delta_since(before);
    HEMP_REQUIRE(delta.total() == 0,
                 "BatchFleetKernel: exact solver invoked during a batch run");
  }
  return aggregate(sh.scenario, std::move(results));
}

}  // namespace hemp
