// fleetsim: run a fleet scenario and write its aggregate report.
//
//   fleetsim <scenario.scn> [--kernel batch|reference] [--policy NAME]
//            [--nodes N] [--seed S] [--coarsen-eps E] [--serial]
//            [--out DIR] [--no-files]
//
// Loads the scenario description, builds and simulates the fleet (parallel
// by default, `--serial` for the single-threaded loop in both phases; both
// orders are bit-identical), prints the population aggregates, the wall time
// split into construction and run, and the determinism witness
// (`summary_hash`), and writes
// <out>/<name>_summary.json and <out>/<name>_nodes.csv.  Two runs with the
// same scenario and seed print the same hash and write byte-identical JSON.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "cli_args.hpp"
#include "common/thread_pool.hpp"
#include "fleet/batch_kernel.hpp"
#include "fleet/fleet_sim.hpp"
#include "policy/registry.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <scenario.scn> [--kernel batch|reference]\n"
               "          [--policy NAME] [--nodes N] [--seed S]\n"
               "          [--coarsen-eps E] [--serial] [--out DIR] "
               "[--no-files]\n"
               "\n"
               "--coarsen-eps overrides the scenario's trace_coarsen_eps\n"
               "(irradiance-trace knot-dropping budget as a day-integral\n"
               "fraction; 0 disables coarsening).\n"
               "--policy forces every node onto one registered energy policy\n"
               "(overrides the scenario's min_energy mix / policy key):\n",
               argv0);
  for (const std::string& name : hemp::PolicyRegistry::global().names()) {
    std::fprintf(stderr, "  %-15s %s\n", name.c_str(),
                 hemp::PolicyRegistry::global().at(name).description().c_str());
  }
}

void print_metric(const char* name, const hemp::MetricSummary& m) {
  std::printf("  %-18s mean %-12.6g p05 %-12.6g p50 %-12.6g p95 %-12.6g\n",
              name, m.mean, m.p05, m.p50, m.p95);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hemp;

  if (argc < 2) {
    usage(argv[0]);
    return 2;
  }

  std::string scenario_path;
  std::string forced_policy;
  std::string out_dir = "out";
  bool serial = false;
  bool write_files = true;
  bool use_batch = false;
  int override_nodes = -1;
  long long override_seed = -1;
  double override_coarsen_eps = -1.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fleetsim: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--serial") {
      serial = true;
    } else if (arg == "--kernel") {
      const std::string kernel = next("--kernel");
      if (kernel == "batch") {
        use_batch = true;
      } else if (kernel == "reference") {
        use_batch = false;
      } else {
        std::fprintf(stderr, "fleetsim: --kernel must be batch or reference\n");
        return 2;
      }
    } else if (arg == "--policy") {
      forced_policy = next("--policy");
    } else if (arg == "--no-files") {
      write_files = false;
    } else if (arg == "--nodes") {
      override_nodes =
          cli::parse_flag("fleetsim", "--nodes", next("--nodes"), 1, "an integer >= 1");
    } else if (arg == "--seed") {
      override_seed = cli::parse_flag("fleetsim", "--seed", next("--seed"), 0LL,
                                      "an integer >= 0");
    } else if (arg == "--coarsen-eps") {
      override_coarsen_eps = cli::parse_flag("fleetsim", "--coarsen-eps",
                                             next("--coarsen-eps"), 0.0,
                                             "a finite number >= 0");
    } else if (arg == "--out") {
      out_dir = next("--out");
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "fleetsim: unknown flag %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    } else if (scenario_path.empty()) {
      scenario_path = arg;
    } else {
      std::fprintf(stderr, "fleetsim: extra argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (scenario_path.empty()) {
    usage(argv[0]);
    return 2;
  }

  try {
    FleetScenario scenario = FleetScenario::from_file(scenario_path);
    if (override_nodes > 0) scenario.nodes = override_nodes;
    if (override_seed >= 0) {
      scenario.seed = static_cast<std::uint64_t>(override_seed);
    }
    if (override_coarsen_eps >= 0.0) {
      scenario.trace_coarsen_eps = override_coarsen_eps;
    }
    if (!forced_policy.empty()) {
      // Resolve eagerly so a typo reports the registry's names, not a
      // kernel-specific error later.
      (void)PolicyRegistry::global().at(forced_policy);
      scenario.policy = forced_policy;
    }
    scenario.validate();

    using Clock = std::chrono::steady_clock;
    const Clock::time_point t0 = Clock::now();
    Clock::time_point built;
    FleetReport report;
    if (use_batch) {
      const BatchFleetKernel kernel(scenario, {.parallel = !serial});
      built = Clock::now();
      report = kernel.run({.parallel = !serial});
    } else {
      const FleetSimulator sim(scenario);
      built = Clock::now();
      FleetOptions opts;
      opts.parallel = !serial;
      report = sim.run(opts);
    }
    const Clock::time_point t1 = Clock::now();
    const double wall_s = std::chrono::duration<double>(t1 - t0).count();
    const double construct_s =
        std::chrono::duration<double>(built - t0).count();

    std::printf("scenario:      %s (%s)\n", report.scenario_name.c_str(),
                scenario_path.c_str());
    std::printf("nodes:         %d\n", report.nodes);
    std::printf("seed:          %llu\n",
                static_cast<unsigned long long>(report.seed));
    std::printf("day length:    %.6g s (compressed day)\n",
                report.day_length.value());
    std::printf("kernel:        %s\n", use_batch ? "batch" : "reference");
    if (!scenario.policy.empty()) {
      std::printf("policy:        %s (forced on every node)\n",
                  scenario.policy.c_str());
    }
    // A parallel run uses the shared pool's workers plus the calling thread.
    // A serial run never touches the pool, so it must not create the shared
    // one just to report its size.
    const unsigned threads = serial ? 1u : ThreadPool::shared().size() + 1u;
    std::printf("execution:     %s, %u thread(s), %.3f s wall = "
                "%.3f s construct + %.3f s run (%.1f nodes/s)\n",
                serial ? "serial" : "parallel", threads, wall_s, construct_s,
                wall_s - construct_s, report.nodes / wall_s);
    std::printf("\ntotals:\n");
    std::printf("  cycles         %.6e\n", report.total_cycles);
    std::printf("  harvested      %.6g J\n", report.total_harvested.value());
    std::printf("  delivered      %.6g J\n", report.total_delivered.value());
    std::printf("  brownouts      %ld\n", report.total_brownouts);
    std::printf("  jobs           %ld submitted, %ld completed, %ld missed\n",
                report.total_jobs_submitted, report.total_jobs_completed,
                report.total_jobs_missed);
    std::printf("\ndistributions (per node):\n");
    print_metric("cycles", report.cycles);
    print_metric("brownouts", report.brownouts);
    print_metric("deadline_hit_rate", report.deadline_hit_rate);
    print_metric("mppt_error", report.mppt_error);
    print_metric("energy_per_job", report.energy_per_job);
    std::printf("\nsummary_hash: %s\n", hash_hex(report.summary_hash).c_str());

    if (write_files) {
      std::filesystem::create_directories(out_dir);
      const std::string stem = out_dir + "/" + report.scenario_name;
      write_summary_json(report, stem + "_summary.json");
      write_node_csv(report, stem + "_nodes.csv");
      std::printf("wrote %s_summary.json and %s_nodes.csv\n", stem.c_str(),
                  stem.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetsim: %s\n", e.what());
    return 1;
  }
  return 0;
}
