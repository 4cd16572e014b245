// Perf trajectory bench: times the hot kernels and writes BENCH_perf.json.
//
// Four kernel families are tracked PR-over-PR:
//   * the MPP solve (exact Brent solve vs quantized cache hit vs surface);
//   * the regulated performance point (grid scan + Brent, exact vs surface);
//   * the holistic MEP solve;
//   * one second of SocSystem::run simulated time.
// Plus the two headline ratios of the performance layer: the fig07a-style
// light-sweep kernel cached (ModelSurfaces) vs uncached (exact SystemModel)
// measured in this same binary, and the parallel-vs-serial sweep scaling on
// the shared thread pool.
//
// Usage: bench_perf [--quick] [--out PATH]
//   --quick   reduced iteration counts / shorter sim (CI smoke job)
//   --out     JSON output path (default: BENCH_perf.json in the cwd)
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "bench_common.hpp"
#include "core/mep_optimizer.hpp"
#include "core/model_surfaces.hpp"
#include "core/perf_optimizer.hpp"
#include "microbench.hpp"
#include "sim/soc_system.hpp"

namespace {

using namespace hemp;

// Cycle deterministically through sweep-typical light levels so cache-hit
// kernels cannot degenerate into a single-key lookup.
struct LightCycler {
  const std::vector<double> levels = linspace(0.1, 1.0, 16);
  std::size_t i = 0;
  double next() {
    const double g = levels[i];
    i = (i + 1) % levels.size();
    return g;
  }
};

void bench_mpp(microbench::Suite& suite, bench::ScRig& rig,
               const ModelSurfaces& surfaces, double min_seconds) {
  LightCycler lights;
  suite.run("mpp_solve_exact",
            [&] { microbench::keep(find_mpp(rig.cell, lights.next())); },
            min_seconds);
  suite.run("mpp_cache_hit", [&] { microbench::keep(rig.model.mpp(0.5)); },
            min_seconds);
  LightCycler surface_lights;
  suite.run("mpp_surface",
            [&] { microbench::keep(surfaces.mpp(surface_lights.next())); },
            min_seconds);
}

void bench_light_sweep(microbench::Suite& suite, bench::ScRig& rig,
                       const ModelSurfaces& surfaces, double min_seconds) {
  // The fig07a kernel: delivered power over a Vdd x light grid.
  const std::vector<double> vs = linspace(0.3, 0.75, 10);
  const std::vector<double> gs = {1.0, 0.5, 0.25};
  const auto uncached = suite.run(
      "light_sweep_uncached",
      [&] {
        double acc = 0.0;
        for (const double v : vs) {
          for (const double g : gs) {
            acc += rig.model.delivered_power(Volts(v), g).value();
          }
        }
        microbench::keep(acc);
      },
      min_seconds);
  const auto cached = suite.run(
      "light_sweep_cached",
      [&] {
        double acc = 0.0;
        for (const double v : vs) {
          for (const double g : gs) {
            acc += surfaces.delivered_power(Volts(v), g).value();
          }
        }
        microbench::keep(acc);
      },
      min_seconds);
  suite.note("light_sweep_speedup", uncached.ns_per_iter / cached.ns_per_iter);
}

void bench_optimizers(microbench::Suite& suite, bench::ScRig& rig,
                      const ModelSurfaces& surfaces, double min_seconds) {
  const PerformanceOptimizer exact(rig.model);
  const PerformanceOptimizer fast(surfaces);
  LightCycler lights;
  const auto r_exact = suite.run(
      "regulated_perf_point_exact",
      [&] { microbench::keep(exact.regulated(lights.next())); }, min_seconds);
  LightCycler fast_lights;
  const auto r_fast = suite.run(
      "regulated_perf_point_surface",
      [&] { microbench::keep(fast.regulated(fast_lights.next())); }, min_seconds);
  suite.note("regulated_point_speedup", r_exact.ns_per_iter / r_fast.ns_per_iter);

  const MepOptimizer mep(rig.model);
  suite.run("holistic_mep", [&] { microbench::keep(mep.holistic(1.0)); },
            min_seconds);
}

void bench_soc_run(microbench::Suite& suite, double simulated_seconds,
                   double min_seconds, bool quick) {
  const std::string tag =
      std::to_string(static_cast<int>(simulated_seconds * 1e3)) + "ms";
  // One dense-reference transient run is seconds of wall time, so the batch is
  // pinned at a single iteration; the repeat loop still reruns it and reports
  // the median.
  const auto ref = suite.run(
      "soc_run_" + tag,
      [&] {
        SocSystem soc(SocConfig{}, std::make_unique<SwitchedCapRegulator>(),
                      Processor::make_test_chip());
        FixedPointController ctrl(PowerPath::kRegulated, Volts(0.5),
                                  Hertz(100e6));
        microbench::keep(soc.run(IrradianceTrace::constant(1.0), ctrl,
                                 Seconds(simulated_seconds)));
      },
      /*min_seconds=*/0.0, /*max_iters=*/1, /*min_repeats=*/quick ? 3 : 5);

  // Same transient on the surface-only event-driven engine.  The SocSystem is
  // hoisted so repeats reuse the cached surfaces, matching the steady-state
  // sweep use case; the first (cold, surface-building) run is timed separately.
  SocConfig fast_cfg;
  fast_cfg.fast_path = true;
  // In HEMP_AUDIT builds the config default is audit=true, which would force
  // the dispatcher back onto the dense loop and time the reference twice.
  fast_cfg.audit = false;
  SocSystem fast_soc(fast_cfg, std::make_unique<SwitchedCapRegulator>(),
                     Processor::make_test_chip());
  FixedPointController fast_ctrl(PowerPath::kRegulated, Volts(0.5),
                                 Hertz(100e6));
  const auto cold_start = std::chrono::steady_clock::now();
  microbench::keep(fast_soc.run(IrradianceTrace::constant(1.0), fast_ctrl,
                                Seconds(simulated_seconds)));
  suite.note("soc_fast_cold_ms",
             std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - cold_start)
                 .count());
  // A fast-path run is well under a millisecond under --quick, so it batches
  // iterations up to the bench's min_seconds like the other kernels: one
  // iteration per repeat would let a single slow call swing the speedup.
  const auto fast = suite.run(
      "soc_run_fast_" + tag,
      [&] {
        microbench::keep(fast_soc.run(IrradianceTrace::constant(1.0), fast_ctrl,
                                      Seconds(simulated_seconds)));
      },
      min_seconds, /*max_iters=*/1 << 22, /*min_repeats=*/quick ? 5 : 9);
  suite.note("soc_fast_speedup", ref.ns_per_iter / fast.ns_per_iter);
}

void bench_parallel_sweep(microbench::Suite& suite, bench::ScRig& rig,
                          const ModelSurfaces& surfaces, double min_seconds) {
  const PerformanceOptimizer opt(surfaces);
  const std::vector<double> gs = linspace(0.1, 1.0, 64);
  auto solve = [&](double g) { return opt.regulated(g).frequency.value(); };
  // Keep the model's MPP cache warm so both paths time pure compute.
  (void)sweep_map(gs, solve, {.parallel = false});
  const auto serial = suite.run(
      "sweep_64pt_serial",
      [&] { microbench::keep(sweep_map(gs, solve, {.parallel = false})); },
      min_seconds);
  const auto parallel = suite.run(
      "sweep_64pt_parallel",
      [&] { microbench::keep(sweep_map(gs, solve)); }, min_seconds);
  suite.note("parallel_sweep_speedup",
             serial.ns_per_iter / parallel.ns_per_iter);
  suite.note("thread_pool_size", ThreadPool::shared().size());
  (void)rig;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_perf.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_perf [--quick] [--out PATH]\n");
      return 2;
    }
  }
  const double min_seconds = quick ? 0.02 : 0.2;
  const double sim_seconds = quick ? 0.05 : 1.0;

  bench::header("bench_perf", "hot-kernel perf trajectory (BENCH_perf.json)");
  bench::ScRig rig;

  microbench::Suite suite("bench_perf");
  const auto build_start = std::chrono::steady_clock::now();
  const ModelSurfaces surfaces(rig.model, {.validate = true});
  suite.note("surface_build_ms",
             std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - build_start)
                 .count());
  suite.note("surface_validation_error", surfaces.validation_error());
  suite.note("surface_outlier_fraction", surfaces.validation_outlier_fraction());

  bench_mpp(suite, rig, surfaces, min_seconds);
  bench_light_sweep(suite, rig, surfaces, min_seconds);
  bench_optimizers(suite, rig, surfaces, min_seconds);
  bench_soc_run(suite, sim_seconds, min_seconds, quick);
  bench_parallel_sweep(suite, rig, surfaces, min_seconds);

  suite.print();
  if (!suite.write_json_merged(out_path)) {
    std::fprintf(stderr, "bench_perf: failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\n  timings written to %s\n", out_path.c_str());
  return 0;
}
