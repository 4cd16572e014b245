#include "core/energy_manager.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/error.hpp"
#include "common/solver_stats.hpp"
#include "core/controller_inputs.hpp"
#include "regulator/switched_cap.hpp"
#include "sim/soc_system.hpp"

namespace hemp {
namespace {

using namespace hemp::literals;

struct Fixture {
  PvCell cell = make_ixys_kxob22_cell();
  SwitchedCapRegulator reg;
  Processor proc = Processor::make_test_chip();
  SystemModel model{cell, reg, proc};

  SocSystem make_soc() {
    SocConfig cfg;
    return SocSystem(cfg, std::make_unique<SwitchedCapRegulator>(),
                     Processor::make_test_chip());
  }
};

TEST(EnergyManager, TracksMppInSteadyState) {
  Fixture f;
  EnergyManager mgr(f.model, {});
  SocSystem soc = f.make_soc();
  const SimResult r = soc.run(IrradianceTrace::constant(1.0), mgr, 120.0_ms);
  const MaxPowerPoint mpp = find_mpp(f.cell, 1.0);
  EXPECT_NEAR(r.final_state.v_solar.value(), mpp.voltage.value(), 0.1);
  EXPECT_GT(r.totals.cycles, 0.0);
  EXPECT_FALSE(mgr.in_bypass());
}

TEST(EnergyManager, CompletesSubmittedJob) {
  Fixture f;
  EnergyManager mgr(f.model, {});
  mgr.submit({4e6, 12.0_ms});
  SocSystem soc = f.make_soc();
  soc.run(IrradianceTrace::constant(1.0), mgr, 100.0_ms);
  EXPECT_EQ(mgr.jobs_completed(), 1);
  EXPECT_EQ(mgr.jobs_missed(), 0);
}

TEST(EnergyManager, CompletesBackToBackJobs) {
  Fixture f;
  EnergyManager mgr(f.model, {});
  mgr.submit({2e6, 8.0_ms});
  mgr.submit({2e6, 8.0_ms});
  mgr.submit({2e6, 8.0_ms});
  SocSystem soc = f.make_soc();
  soc.run(IrradianceTrace::constant(1.0), mgr, 400.0_ms);
  EXPECT_EQ(mgr.jobs_completed(), 3);
}

TEST(EnergyManager, ImpossibleJobIsMissedNotHung) {
  Fixture f;
  EnergyManager mgr(f.model, {});
  mgr.submit({1e12, 1.0_ms});  // needs a THz clock: plan infeasible
  SocSystem soc = f.make_soc();
  soc.run(IrradianceTrace::constant(1.0), mgr, 50.0_ms);
  EXPECT_EQ(mgr.jobs_completed(), 0);
  EXPECT_EQ(mgr.jobs_missed(), 1);
}

TEST(EnergyManager, EntersBypassUnderWeakLight) {
  Fixture f;
  EnergyManager mgr(f.model, {});
  SocSystem soc = f.make_soc();
  // Full sun long enough to settle, then drop to 10%: the manager should
  // estimate the new input power and switch to the bypass path (Fig. 7a rule).
  soc.run(IrradianceTrace::step(1.0, 0.10, 100.0_ms), mgr, 400.0_ms);
  EXPECT_TRUE(mgr.in_bypass());
}

TEST(EnergyManager, StaysRegulatedUnderStrongLight) {
  Fixture f;
  EnergyManager mgr(f.model, {});
  SocSystem soc = f.make_soc();
  soc.run(IrradianceTrace::constant(0.8), mgr, 200.0_ms);
  EXPECT_FALSE(mgr.in_bypass());
}

TEST(EnergyManager, MinEnergyModeRunsNearHolisticMep) {
  Fixture f;
  EnergyManagerParams params;
  params.mode = ManagerMode::kMinEnergy;
  EnergyManager mgr(f.model, params);
  SocSystem soc = f.make_soc();
  const SimResult r = soc.run(IrradianceTrace::constant(1.0), mgr, 60.0_ms);
  const MepOptimizer mep(f.model);
  const MepPoint holistic = mep.holistic(0.5);
  EXPECT_NEAR(r.final_state.v_dd.value(), holistic.vdd.value(), 0.06);
}

TEST(EnergyManager, MinEnergyModeUsesLessPowerThanPerfMode) {
  Fixture f;
  EnergyManagerParams perf;
  EnergyManagerParams eco;
  eco.mode = ManagerMode::kMinEnergy;
  EnergyManager mgr_perf(f.model, perf);
  EnergyManager mgr_eco(f.model, eco);
  SocSystem soc1 = f.make_soc();
  SocSystem soc2 = f.make_soc();
  const SimResult r_perf =
      soc1.run(IrradianceTrace::constant(1.0), mgr_perf, 80.0_ms);
  const SimResult r_eco = soc2.run(IrradianceTrace::constant(1.0), mgr_eco, 80.0_ms);
  EXPECT_LT(r_eco.totals.delivered_to_processor.value(),
            r_perf.totals.delivered_to_processor.value());
  // But energy per cycle must be better in eco mode.
  const double epc_perf =
      r_perf.totals.delivered_to_processor.value() / r_perf.totals.cycles;
  const double epc_eco =
      r_eco.totals.delivered_to_processor.value() / r_eco.totals.cycles;
  EXPECT_LT(epc_eco, epc_perf);
}

// --- Light step events: brownout, recovery, re-acquired MPP -----------------

TEST(EnergyManagerLightSteps, DeepStepDownBrownsOut) {
  Fixture f;
  EnergyManager mgr(f.model, {});
  SocSystem soc = f.make_soc();
  // Settle at full sun, then the lamp goes out entirely: the storage caps
  // drain and the core must brown out instead of limping along.
  const SimResult r =
      soc.run(IrradianceTrace::step(1.0, 0.0, 60.0_ms), mgr, 200.0_ms);
  EXPECT_GE(r.totals.brownouts, 1);
  EXPECT_GT(r.totals.halted_time.value(), 0.0);
  EXPECT_FALSE(r.final_state.processor_running);
  // All the progress came from the lit interval plus the cap ride-through.
  EXPECT_GT(r.waveform.value_at("cycles", 60.0_ms), 0.0);
}

TEST(EnergyManagerLightSteps, StepUpLeavesBypassAndReacquiresMpp) {
  Fixture f;
  EnergyManager mgr(f.model, {});
  SocSystem soc = f.make_soc();
  // Dim dawn (manager sits in the low-light bypass), then full sun: it must
  // move back onto the regulator and settle at the new light level's MPP.
  const SimResult r =
      soc.run(IrradianceTrace::step(0.02, 1.0, 80.0_ms), mgr, 300.0_ms);
  EXPECT_FALSE(mgr.in_bypass());
  EXPECT_TRUE(r.final_state.processor_running);
  const MaxPowerPoint mpp = find_mpp(f.cell, 1.0);
  EXPECT_NEAR(r.final_state.v_solar.value(), mpp.voltage.value(), 0.1);
  // Nearly all forward progress comes after the step.
  const double before_step = r.waveform.value_at("cycles", 80.0_ms);
  EXPECT_GT(r.totals.cycles, 2.0 * before_step + 1.0);
}

TEST(EnergyManagerLightSteps, RecoversMppAfterNightInterval) {
  Fixture f;
  EnergyManager mgr(f.model, {});
  SocSystem soc = f.make_soc();
  const IrradianceTrace trace(
      [](Seconds t) {
        if (t.value() < 0.06) return 1.0;  // morning
        if (t.value() < 0.14) return 0.0;  // blackout
        return 1.0;                        // second day
      },
      "day-night-day");
  const SimResult r = soc.run(trace, mgr, 300.0_ms);
  // The blackout browns the node out...
  EXPECT_GE(r.totals.brownouts, 1);
  // ...but the second day re-acquires the MPP and resumes retiring work.
  EXPECT_FALSE(mgr.in_bypass());
  const MaxPowerPoint mpp = find_mpp(f.cell, 1.0);
  EXPECT_NEAR(r.final_state.v_solar.value(), mpp.voltage.value(), 0.1);
  const double after_dawn = r.waveform.value_at("cycles", 160.0_ms);
  EXPECT_GT(r.totals.cycles, after_dawn);
}

TEST(EnergyManager, SubmitValidation) {
  Fixture f;
  EnergyManager mgr(f.model, {});
  EXPECT_THROW(mgr.submit({0.0, 1.0_ms}), ModelError);
  EXPECT_THROW(mgr.submit({1e6, Seconds(0.0)}), ModelError);
}

// --- Step hints and the sprint's bypassed clock -----------------------------

/// Passes an EnergyManager through and checks every hint it gives while
/// sprinting.
class SprintHintProbe : public SocController {
 public:
  explicit SprintHintProbe(EnergyManager& mgr) : mgr_(&mgr) {}
  void on_start(const SocState& state, SocCommand& cmd) override {
    mgr_->on_start(state, cmd);
  }
  void on_tick(const SocState& state, SocCommand& cmd) override {
    mgr_->on_tick(state, cmd);
  }
  void step_hint(const SocState& state, SocStepHint& hint) const override {
    mgr_->step_hint(state, hint);
    if (!mgr_->sprinting()) return;
    ++sprint_hints;
    EXPECT_GT(hint.next_deadline_s, state.time.value())
        << "sprint hint carries a deadline that is already due at t="
        << state.time.value();
  }
  mutable int sprint_hints = 0;

 private:
  EnergyManager* mgr_;
};

TEST(EnergyManager, SprintHintNeverCarriesADueDeadline) {
  // Long jobs: each sprint outlives its slow phase and the sag-arm delay,
  // whose deadlines would be stale from then on.
  Fixture f;
  EnergyManager mgr(f.model, {});
  for (int i = 0; i < 3; ++i) mgr.submit({4e6, 12.0_ms});
  SprintHintProbe probe(mgr);
  SocConfig cfg;
  cfg.fast_path = true;
  SocSystem soc(cfg, std::make_unique<SwitchedCapRegulator>(),
                Processor::make_test_chip());
  soc.run(IrradianceTrace::constant(1.0), probe, 150.0_ms);
  EXPECT_EQ(mgr.jobs_completed(), 3);
  EXPECT_GT(probe.sprint_hints, 0);
}

TEST(EnergyManager, BypassedSprintAboveVmaxClampsTheClock) {
  Fixture f;
  EnergyManager mgr(f.model, {});
  SocState state;
  state.v_solar = 1.2_V;
  state.v_dd = 0.5_V;
  SocCommand cmd;
  mgr.on_start(state, cmd);
  mgr.submit({4e6, 12.0_ms});
  state.time = 10.0_us;
  mgr.on_tick(state, cmd);  // the queued job starts a sprint
  ASSERT_TRUE(mgr.sprinting());
  state.time = 20.0_us;
  state.v_solar = 0.3_V;  // no regulator headroom: hand over to the bypass
  mgr.on_tick(state, cmd);
  ASSERT_EQ(cmd.path, PowerPath::kBypass);
  // The shared node overshoots Vmax, where the speed model is undefined.
  const Volts vmax = f.proc.max_voltage();
  state.time = 30.0_us;
  state.v_solar = vmax + 0.2_V;
  state.v_dd = vmax + 0.1_V;
  EXPECT_NO_THROW(mgr.on_tick(state, cmd));
  EXPECT_TRUE(mgr.sprinting());
  EXPECT_EQ(cmd.frequency.value(), f.proc.max_frequency(vmax).value());
}

// --- Precomputed controller inputs -------------------------------------------

/// The inputs the manager would solve itself, computed exactly.
ControllerInputs exact_inputs(const Fixture& f, const EnergyManagerParams& p) {
  const SystemModel& model = f.model;
  const auto g_cross = RegulatorSelector(model).crossover_irradiance();
  return ControllerInputs{
      MppLut(f.cell, p.tracker.lut_measure_voltage()),
      model.mpp(1.0),
      g_cross ? model.mpp(*g_cross).power : Watts(0.0),
      [&model](double g) { return model.mpp(g); }};
}

TEST(EnergyManager, ExactInputsReproduceTheSolvingManager) {
  for (const ManagerMode mode :
       {ManagerMode::kMaxPerformance, ManagerMode::kMinEnergy}) {
    Fixture f;
    EnergyManagerParams params;
    params.mode = mode;
    const ControllerInputs inputs = exact_inputs(f, params);
    EnergyManager solving(f.model, params);
    EnergyManager supplied(f.model, params, &inputs);
    solving.submit({2e6, 8.0_ms});
    supplied.submit({2e6, 8.0_ms});
    const auto trace = IrradianceTrace::step(1.0, 0.10, 60.0_ms);
    SocSystem soc_a = f.make_soc();
    SocSystem soc_b = f.make_soc();
    const SimResult a = soc_a.run(trace, solving, 150.0_ms);
    const SimResult b = soc_b.run(trace, supplied, 150.0_ms);
    EXPECT_EQ(a.totals.cycles, b.totals.cycles);
    EXPECT_EQ(a.totals.harvested.value(), b.totals.harvested.value());
    EXPECT_EQ(solving.in_bypass(), supplied.in_bypass());
    EXPECT_EQ(solving.jobs_completed(), supplied.jobs_completed());
  }
}

TEST(EnergyManager, SuppliedInputsSkipEveryConstructorSolve) {
  Fixture f;
  const ControllerInputs inputs = exact_inputs(f, {});
  const auto before = solver_stats::snapshot();
  const EnergyManager mgr(f.model, {}, &inputs);
  EXPECT_EQ(solver_stats::delta_since(before).total(), 0u);
  const auto exact = solver_stats::snapshot();
  const EnergyManager solving(f.model, {});
  EXPECT_GT(solver_stats::delta_since(exact).total(), 0u);
}

TEST(EnergyManagerParams, Validation) {
  Fixture f;
  EnergyManagerParams p;
  p.sprint_factor = 0.9;
  EXPECT_THROW(EnergyManager(f.model, p), ModelError);
  p = EnergyManagerParams{};
  p.bypass_enter_ratio = 1.5;  // above exit ratio
  p.bypass_exit_ratio = 1.2;
  EXPECT_THROW(EnergyManager(f.model, p), ModelError);
}

}  // namespace
}  // namespace hemp
