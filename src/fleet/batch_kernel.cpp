#include "fleet/batch_kernel.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/controller_inputs.hpp"
#include "core/energy_manager.hpp"
#include "core/regulator_selector.hpp"
#include "core/system_model.hpp"
#include "fleet/population.hpp"
#include "harvester/iv_curve.hpp"
#include "harvester/pv_cell.hpp"
#include "processor/corners.hpp"
#include "processor/processor.hpp"
#include "regulator/switched_cap.hpp"
#include "sim/flat_model.hpp"
#include "sim/flat_stepper.hpp"
#include "sim/soc_system.hpp"
#include "sim/sweep.hpp"

namespace hemp {

namespace {

// The batch kernel integrates every node through the one event-driven loop,
// flat::NodeStepper::run (sim/flat_stepper.hpp), over the hemp::flat closed
// forms, driving the node's real controller built through the policy
// registry.  Every physics constant comes from the structs the reference
// engine uses (SocConfig, BypassParams, SwitchedCapParams, the per-node
// Processor); the constants below are only this kernel's own
// discretisation choices.

using flat::FlatTrace;
using flat::flatten_coarsened;
using flat::flatten_constant;

// Surface resolution (shared across the fleet; exact solves, ctor only).
constexpr int kSurfaceSKnots = 13;
constexpr int kSurfaceGKnots = 61;
constexpr double kSurfaceGMin = 0.005;
constexpr double kSurfaceGMax = 1.25;
constexpr int kCrossTempKnots = 6;
constexpr int kCrossSKnots = 7;
/// The crossover table's temperature knots span the population's
/// mean +- this many sigma (clipped to the sampled -20..85 C range).
constexpr double kCrossTempSigmas = 4.0;

// Terminal-current surface i(v, g): the stepped loop's only cell-model
// evaluation (bilinear in (v, g), scale-blended across two pv-scale slices),
// at flat::kIvVKnots x flat::kIvGKnots.  1.7 V covers the largest
// open-circuit voltage any sampled cell reaches.
constexpr double kIvVMax = 1.7;

// Every fleet node shares the default switched-cap regulator.
const flat::FlatSc kScFlat = flat::make_flat_sc(SwitchedCapParams{});

/// Degenerate sampled ranges (pv_scale_min == pv_scale_max) still need two
/// distinct grid knots.
std::pair<double, double> widen_if_degenerate(double lo, double hi) {
  if (hi - lo < 1e-12) hi = lo + 1e-6;
  return {lo, hi};
}

/// The MPP at (pv_scale, g) read off the shared surface.
MaxPowerPoint surface_mpp(const flat::MppSurface& mpp, double s, double g) {
  const double v = mpp.vmpp_at(s, g);
  const double p = mpp.pmpp_at(s, g);
  return {Volts(v), Amps(v > 0.0 ? p / v : 0.0), Watts(p)};
}

/// (index, fraction) of `x` in the increasing `knots`, clamped to the ends.
std::pair<std::size_t, double> knot_cell(const std::vector<double>& knots,
                                         double x) {
  const auto hi = std::upper_bound(knots.begin() + 1, knots.end() - 1, x);
  const auto i = static_cast<std::size_t>(hi - knots.begin()) - 1;
  const double f = (x - knots[i]) / (knots[i + 1] - knots[i]);
  return {i, std::clamp(f, 0.0, 1.0)};
}

/// The pool `opts` shards onto, or nullptr for its serial loop.
ThreadPool* shard_pool(const BatchKernelOptions& opts) {
  if (!opts.parallel) return nullptr;
  return opts.pool != nullptr ? opts.pool : &ThreadPool::shared();
}

/// Fig. 7a crossover irradiance of one process corner over a (temperature,
/// pv_scale) knot grid, solved exactly in the constructor.  A knot without a
/// crossover holds NaN.  at() takes existence from the nearest knot and
/// interpolates bilinearly among the surrounding knots that have one, so "no
/// crossover" never blends into a value.
struct CrossoverTable {
  std::vector<double> temps, scales;
  std::vector<double> g;  ///< row-major [temp][scale]; NaN = no crossover

  [[nodiscard]] std::optional<double> at(double temp, double s) const {
    const std::pair<std::size_t, double> ct = knot_cell(temps, temp);
    const std::pair<std::size_t, double> cs = knot_cell(scales, s);
    const double ft = ct.second;
    const double fs = cs.second;
    const auto knot = [&](std::size_t a, std::size_t b) {
      return g[(ct.first + a) * scales.size() + (cs.first + b)];
    };
    if (std::isnan(knot(ft < 0.5 ? 0 : 1, fs < 0.5 ? 0 : 1))) {
      return std::nullopt;
    }
    double sum = 0.0, weight = 0.0;
    for (std::size_t a = 0; a < 2; ++a) {
      for (std::size_t b = 0; b < 2; ++b) {
        const double v = knot(a, b);
        if (std::isnan(v)) continue;
        const double w = (a == 0 ? 1.0 - ft : ft) * (b == 0 ? 1.0 - fs : fs);
        sum += w * v;
        weight += w;
      }
    }
    return sum / weight;  // the nearest knot alone weighs >= 1/4
  }
};

/// What the fixed block depends on: the widened pv-scale range and the
/// clipped temperature band, {s_lo, s_hi, t_lo, t_hi}.  Everything else it
/// reads (the grid sizes, PvCellParams{}, the switched-cap defaults,
/// make_test_chip_at) is a constant.
using FixedKey = std::array<double, 4>;

FixedKey fixed_key(const FleetScenario& sc) {
  const auto [s_lo, s_hi] =
      widen_if_degenerate(sc.pv_scale_min, sc.pv_scale_max);
  double t_lo = std::clamp(
      sc.temperature_mean_c - kCrossTempSigmas * sc.temperature_sigma_c,
      -20.0, 85.0);
  double t_hi = std::clamp(
      sc.temperature_mean_c + kCrossTempSigmas * sc.temperature_sigma_c,
      -20.0, 85.0);
  if (t_hi - t_lo < 1.0) {  // (near-)constant temperature: a 1 C band
    t_lo = std::max(-20.0, t_hi - 1.0);
    t_hi = t_lo + 1.0;
  }
  return {s_lo, s_hi, t_lo, t_hi};
}

/// The fixed block of a kernel: the low-light crossover tables and the
/// shared MPP + terminal-current surfaces.  Immutable once built, so kernels
/// of one key share it.
struct FixedWork {
  std::array<CrossoverTable, 3> cross;  ///< indexed by ProcessCorner
  flat::MppSurface mpp;
  flat::IvSurface iv;
};

/// Build the fixed block in one pass: the crossover tables (an exact
/// RegulatorSelector bisection per (corner, temperature, pv_scale) knot, over
/// a grid that covers the sampled temperatures) and the MPP + terminal-current
/// surfaces (exact solves per pv-scale slice, by the hemp::flat builders).
/// Each job shards its own knots or slices on `pool`.
std::shared_ptr<const FixedWork> build_fixed_work(const FixedKey& key,
                                                  ThreadPool* pool) {
  const auto [s_lo, s_hi, t_lo, t_hi] = key;
  auto fixed = std::make_shared<FixedWork>();
  std::array<CrossoverTable, 3>& cross = fixed->cross;
  for (CrossoverTable& table : cross) {
    table.temps = linspace(t_lo, t_hi, kCrossTempKnots);
    table.scales = linspace(s_lo, s_hi, kCrossSKnots);
    table.g.resize(table.temps.size() * table.scales.size());
  }
  const SwitchedCapRegulator reg;
  const std::size_t per_corner = cross[0].g.size();
  const auto crossover_knot = [&](std::size_t k) {
    CrossoverTable& table = cross[k / per_corner];
    const std::size_t knot = k % per_corner;
    const Processor proc = make_test_chip_at(
        {static_cast<ProcessCorner>(k / per_corner),
         table.temps[knot / table.scales.size()]});
    const PvCell cell(node_pv(table.scales[knot % table.scales.size()]));
    const SystemModel model(cell, reg, proc);
    table.g[knot] = RegulatorSelector(model).crossover_irradiance().value_or(
        std::numeric_limits<double>::quiet_NaN());
  };
  // The longest job first: the caller starts on it at once.
  for_each_index(pool, 3, [&](std::size_t job) {
    switch (job) {
      case 0:
        for_each_index(pool, cross.size() * per_corner, crossover_knot);
        break;
      case 1:
        fixed->iv = flat::build_iv_surface(
            linspace(s_lo, s_hi, kSurfaceSKnots), PvCellParams{}, kIvVMax,
            flat::kIvVKnots, kSurfaceGMax, flat::kIvGKnots, pool);
        break;
      default:
        fixed->mpp = flat::build_mpp_surface(PvCellParams{}, s_lo, s_hi,
                                             kSurfaceSKnots, kSurfaceGMin,
                                             kSurfaceGMax, kSurfaceGKnots,
                                             pool);
        break;
    }
  });
  return fixed;
}

/// The fixed block for `key`: the last one built when its key matches bit for
/// bit, else a fresh build that replaces it.  The lock covers only the lookup
/// and the store, never the build, because a kernel may be built inside a task
/// of the pool the build shards onto.  Two threads that miss on one key both
/// build it; the builds are bit-identical, so either may keep the slot.
std::shared_ptr<const FixedWork> fixed_work(const FixedKey& key,
                                            ThreadPool* pool) {
  struct Slot {
    std::mutex mutex;
    FixedKey key{};
    std::shared_ptr<const FixedWork> work;
  };
  static Slot slot;
  {
    const std::lock_guard<std::mutex> lock(slot.mutex);
    if (slot.work != nullptr &&
        std::memcmp(slot.key.data(), key.data(), sizeof key) == 0) {
      return slot.work;
    }
  }
  std::shared_ptr<const FixedWork> built = build_fixed_work(key, pool);
  const std::lock_guard<std::mutex> lock(slot.mutex);
  slot.key = key;
  slot.work = built;
  return built;
}

}  // namespace

// ---------------------------------------------------------------------------
// Shared state: everything precomputed once per scenario.
// ---------------------------------------------------------------------------

struct BatchFleetKernel::Shared {
  FleetScenario scenario;
  FlatTrace sky;  ///< valid when scenario.shared_sky()

  // SoA node-parameter plane (index-parallel arrays).
  std::vector<NodeSample> samples;
  std::vector<const EnergyPolicy*> policies;  ///< forced, or the legacy mix's
  std::vector<flat::FlatProc> proc;
  std::vector<std::optional<Processor>> processors;  ///< all set by the ctor
  std::vector<std::optional<double>> crossover_g;  ///< Fig. 7a irradiance
  std::vector<FlatTrace> traces;  ///< empty when scenario.shared_sky()

  /// The crossover tables and the shared MPP + terminal-current surfaces
  /// over (pv_scale, irradiance), shared with every kernel of the same key.
  std::shared_ptr<const FixedWork> fixed;

  /// The regulator every node's SystemModel views.
  SwitchedCapRegulator reg;

  /// Node i's model-derived controller inputs off the shared surfaces: zero
  /// exact solves, so building a controller is cheap.  Policies without
  /// manager params sample the MPP table at the default tracker window, the
  /// one GreedyMppController builds its tracker with; the duty controllers
  /// ignore the inputs.
  [[nodiscard]] ControllerInputs controller_inputs(std::size_t i) const {
    const double s = samples[i].pv_scale;
    const flat::MppSurface* mpp = &fixed->mpp;
    // MppLut sampling: the cell's output at the tracker's measure voltage
    // off the terminal-current surface, its MPP off the MPP surface.
    const EnergyManagerParams* params = policies[i]->manager_params();
    const Volts v_meas = params != nullptr
                             ? params->tracker.lut_measure_voltage()
                             : MppTrackerParams{}.lut_measure_voltage();
    const flat::IvSurface::Bound cell = fixed->iv.bind(s);
    const auto mpp_at = [mpp, s](double g) { return surface_mpp(*mpp, s, g); };
    return ControllerInputs{
        MppLut(
            v_meas,
            [&](double g) {
              return Watts(v_meas.value() * cell.cell_i(v_meas.value(), g));
            },
            mpp_at),
        surface_mpp(*mpp, s, 1.0),
        crossover_g[i] ? Watts(mpp->pmpp_at(s, *crossover_g[i])) : Watts(0.0),
        mpp_at};
  }
};

BatchFleetKernel::BatchFleetKernel(FleetScenario scenario,
                                   const BatchKernelOptions& opts) {
  auto shared = std::make_shared<Shared>();
  Shared& sh = *shared;
  sh.scenario = std::move(scenario);
  sh.scenario.validate();
  const FleetScenario& sc = sh.scenario;
  ThreadPool* const pool = shard_pool(opts);

  // --- Policies: the kernel drives each node's registry-built controller,
  // so it runs every policy that builds a transient controller and refuses
  // only the offline ones. ---------------------------------------------------
  const EnergyPolicy* forced = forced_policy(sc);
  if (forced != nullptr && forced->manager_params() == nullptr &&
      !forced->fast_path()) {
    throw ModelError("BatchFleetKernel: policy '" + sc.policy +
                     "' builds no transient controller; run it on the "
                     "reference kernel (fleetsim --kernel reference)");
  }

  // --- Fixed work: built once per key and shared (see fixed_work). --------
  sh.fixed = fixed_work(fixed_key(sc), pool);
  const std::array<CrossoverTable, 3>& cross = sh.fixed->cross;

  // Adaptive knot coarsening: every flattened trace gives up knots until the
  // cumulative absorbed-irradiance perturbation hits the scenario's per-day
  // budget (see flat::FlatTrace::coarsen).  Each surviving knot is a step the
  // event-driven loop must take, so this directly buys throughput.
  const double day = sc.day_length.value();
  if (sc.shared_sky()) {
    sh.sky = sc.trace_kind == TraceKind::kConstant
                 ? flatten_constant(sc.constant_g)
                 : flatten_coarsened(make_shared_sky(sc), day,
                                     sc.trace_coarsen_eps);
  }

  // --- Node plane, one pass: node i draws from its own fork(i) stream and
  // writes only slot i, so the plane is the same in any order. -------------
  const std::size_t n = static_cast<std::size_t>(sc.nodes);
  sh.samples.resize(n);
  sh.policies.resize(n);
  sh.proc.resize(n);
  sh.processors.resize(n);
  sh.crossover_g.resize(n);
  if (!sc.shared_sky()) sh.traces.resize(n);

  for_each_index(pool, n, [&](std::size_t i) {
    Rng rng = node_rng(sc, static_cast<int>(i));
    NodeSample& s = sh.samples[i] = sample_node(sc, static_cast<int>(i), rng);
    sh.policies[i] = &node_policy(forced, s);
    if (!sc.shared_sky()) {
      sh.traces[i] =
          flatten_coarsened(make_trace(sc, rng), day, sc.trace_coarsen_eps);
    }

    sh.proc[i] =
        flat::make_flat_proc(sh.processors[i].emplace(
            make_test_chip_at(s.conditions)));
    sh.crossover_g[i] =
        cross[static_cast<std::size_t>(s.conditions.corner)].at(
            s.conditions.temperature_c, s.pv_scale);
  });

  shared_ = std::move(shared);
}

BatchFleetKernel::~BatchFleetKernel() = default;

const FleetScenario& BatchFleetKernel::scenario() const {
  return shared_->scenario;
}

ControllerInputs BatchFleetKernel::controller_inputs(int index) const {
  HEMP_REQUIRE(index >= 0 && index < shared_->scenario.nodes,
               "BatchFleetKernel: node index out of range");
  return shared_->controller_inputs(static_cast<std::size_t>(index));
}

namespace {

// ---------------------------------------------------------------------------
// Per-node runner: the node's registry-built controller driving
// flat::NodeStepper::run, integrated to completion one node at a time.  The
// runner is also the loop's step hook: it adds no deadline and accumulates
// the MPPT tracking error dt-weighted (the reference averages uniform
// waveform samples under the same predicate).
// ---------------------------------------------------------------------------

struct NodeRunner {
  const BatchFleetKernel::Shared& sh;
  const NodeSample& s;
  const flat::MppSurface& mpp;  ///< the MPPT-error reference

  // The node's hardware, its exact model (the controller's view of it), the
  // surface-derived inputs that spare it every exact solve, and the
  // controller itself.
  SocConfig cfg;
  PvCell cell;
  SystemModel model;
  ControllerInputs inputs;
  std::unique_ptr<PolicyController> controller;

  flat::NodeStepper st;
  double mppt_num = 0.0;
  double mppt_den = 0.0;

  NodeRunner(const BatchFleetKernel::Shared& shared, std::size_t i)
      : sh(shared),
        s(shared.samples[i]),
        mpp(shared.fixed->mpp),
        cfg(node_soc_config(shared.scenario, s)),
        cell(cfg.pv),
        model(cell, shared.reg, *shared.processors[i]),
        inputs(shared.controller_inputs(i)) {
    const FleetScenario& sc = sh.scenario;
    PolicyContext ctx = node_policy_context(sc, s, cfg, model);
    ctx.inputs = &inputs;
    controller = sh.policies[i]->make_controller(ctx);

    st.configure(cfg);
    st.sc = &kScFlat;
    st.pc = &sh.proc[i];
    st.trace = sc.shared_sky() ? &sh.sky : &sh.traces[i];
    st.iv = sh.fixed->iv.bind(s.pv_scale);
    st.t_end = sc.day_length.value();
  }

  [[nodiscard]] static double deadline(double /*t*/) {
    return std::numeric_limits<double>::infinity();
  }

  HEMP_HOT void on_step(double /*t0*/, double g0, double dt,
                        const SocState& /*state*/, const SocCommand& cmd) {
    if (cmd.path == PowerPath::kRegulated && st.f_eff > 0.0 && g0 >= 0.05) {
      const double g_q = std::round(g0 * 100.0) / 100.0;
      if (g_q >= 0.05) {
        const double vmpp = mpp.vmpp_at(s.pv_scale, g_q);
        if (vmpp > 0.0) {
          mppt_num += dt * std::fabs(st.v_s - vmpp) / vmpp;
          mppt_den += dt;
        }
      }
    }
  }

  /// Integrate the node's day.
  NodeResult run() {
    st.run(*controller, *this);
    return node_result(s, st.totals(), controller->job_stats(),
                       mppt_den > 0.0 ? mppt_num / mppt_den : 0.0);
  }
};

}  // namespace

NodeResult BatchFleetKernel::run_node(int index) const {
  HEMP_REQUIRE(index >= 0 && index < shared_->scenario.nodes,
               "BatchFleetKernel: node index out of range");
  return NodeRunner(*shared_, static_cast<std::size_t>(index)).run();
}

FleetReport BatchFleetKernel::run(const BatchKernelOptions& opts) const {
  const Shared& sh = *shared_;
  std::vector<NodeResult> results(static_cast<std::size_t>(sh.scenario.nodes));
  for_each_index(shard_pool(opts), results.size(), [&](std::size_t i) {
    results[i] = NodeRunner(sh, i).run();
  });
  return aggregate(sh.scenario, std::move(results));
}

}  // namespace hemp
