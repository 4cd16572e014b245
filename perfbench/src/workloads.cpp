// Workloads.  All three are closed-loop batch runs: the fleet is the input,
// and the result is work completed per host second at the stated size.
//
//   day1000         scenarios/day1000.scn (copied verbatim into this
//                   benchmark) on the batch engine, pool-parallel.  Per-node
//                   cloudy skies make construction a large share of the wall
//                   time, so construction, trace coarsening and thread scaling
//                   show here.
//   indoor_longday  day1000 under one shared dim indoor sky, a 4x longer day
//                   and 3e5-cycle jobs, on the batch engine, serially.  Set-up
//                   is small and steps come from deadlines, settles and watch
//                   bounds rather than trace knots, so per-step work shows.
//                   Each repetition draws a fresh fleet: the work of a fleet
//                   under one shared sky swings with that sky (1800 to 5200
//                   steps per node-day over ten seeds), so a run averages
//                   over many skies.
//   policy_zoo      every registered policy on the first 256 nodes of
//                   day1000, pool-parallel.  A cell runs on the batch engine
//                   when its constructor accepts the policy and on
//                   FleetSimulator when it throws ModelError.  It is the only
//                   workload on the single-node fast path and the DP oracle.
//
// The workload seed replaces the scenario's `seed`.  The fidelity sample (the
// batch engine against FleetSimulator on a fixed node prefix) is taken at the
// scenario's committed seed instead, outside the timed region, so the
// fidelity metrics are a property of the code, not of the seed.
#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/solver_stats.hpp"
#include "common/thread_pool.hpp"
#include "core/model_surfaces.hpp"
#include "core/system_model.hpp"
#include "fleet/batch_kernel.hpp"
#include "fleet/fleet_sim.hpp"
#include "fleet/report.hpp"
#include "fleet/scenario.hpp"
#include "harvester/iv_curve.hpp"
#include "policy/registry.hpp"
#include "processor/processor.hpp"
#include "regulator/switched_cap.hpp"
#include "sim/flat_model.hpp"
#include "trace/generators.hpp"

namespace perfbench {

void Ledger::op(const std::string& what,
                const std::vector<std::string>& problems) {
  ++attempted;
  if (problems.empty()) return;
  ++failed;
  for (const std::string& p : problems) {
    std::fprintf(stderr, "perfbench: check failed in %s: %s\n", what.c_str(),
                 p.c_str());
  }
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"day1000", "indoor_longday",
                                                 "policy_zoo"};
  return names;
}

const std::vector<std::string>& fault_names() {
  static const std::vector<std::string> names = {"none", "hash", "oracle",
                                                 "exact_solve", "summary"};
  return names;
}

namespace {

using namespace hemp;

// Layers of the library, bottom to top, as the per-layer table lists them.
const std::vector<std::string> kLayers = {
    "trace",  "flat",        "core",   "batch_kernel", "fast_soc",
    "policy", "thread_pool", "report", "fleet_sim",    "scenario"};

constexpr double kMiB = 1024.0 * 1024.0;

struct Scale {
  int day_nodes;
  int indoor_nodes;
  int zoo_nodes;
  int fidelity_day;     ///< node prefix compared against FleetSimulator
  int fidelity_indoor;
  int fidelity_zoo;     ///< per batch cell
};

constexpr Scale kFull{1000, 1000, 256, 256, 64, 32};
constexpr Scale kSmoke{24, 6, 8, 8, 4, 4};

/// An untraced run repeats at least twice, so every hash has a twin.
constexpr int kMinUntracedReps = 2;

std::string fnv1a_hex(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return hash_hex(h);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ModelError("perfbench: cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Set `key = value` in scenario text: replace the key's line, or append it.
std::string with_keys(const std::string& text,
                      const std::vector<std::pair<std::string, std::string>>& kv) {
  std::vector<bool> seen(kv.size(), false);
  std::istringstream in(text);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t b = line.find_first_not_of(" \t");
    const std::size_t eq = line.find('=');
    if (b != std::string::npos && line[b] != '#' && eq != std::string::npos) {
      std::string key = line.substr(b, eq - b);
      key.erase(key.find_last_not_of(" \t") + 1);
      for (std::size_t k = 0; k < kv.size(); ++k) {
        if (key == kv[k].first) {
          line = kv[k].first + " = " + kv[k].second;
          seen[k] = true;
        }
      }
    }
    out += line + "\n";
  }
  for (std::size_t k = 0; k < kv.size(); ++k) {
    if (!seen[k]) out += kv[k].first + " = " + kv[k].second + "\n";
  }
  return out;
}

struct Cell {
  std::string name;    ///< report stem and scenario-hash key
  std::string policy;  ///< empty: the scenario's own policy mix
  std::string text;    ///< seeded scenario text (timed)
  std::string fidelity_text;  ///< committed seed, node prefix (untimed)
};

struct Workload {
  std::vector<Cell> cells;
  bool parallel = true;
  /// Draw a fresh fleet for every repetition (scenario seed = seed * 1000 +
  /// repetition).  A shared sky makes one fleet's work swing with its one
  /// sky, so a run averages over many skies instead.
  bool fleet_per_rep = false;
  /// Route each cell by whether the batch constructor accepts its policy.
  bool route_by_constructor = false;
};

Workload make_workload(const Options& opts, const Scale& scale) {
  const std::string day = read_file(opts.data_dir + "/day1000.scn");
  const std::string seed = std::to_string(opts.seed);
  Workload w;
  if (opts.workload == "day1000") {
    Cell c{"day1000", "", "", ""};
    c.text = with_keys(day, {{"seed", seed},
                             {"nodes", std::to_string(scale.day_nodes)}});
    c.fidelity_text =
        with_keys(day, {{"nodes", std::to_string(scale.fidelity_day)}});
    w.cells.push_back(c);
  } else if (opts.workload == "indoor_longday") {
    const std::vector<std::pair<std::string, std::string>> indoor = {
        {"name", "indoor_longday"}, {"trace", "indoor"},
        {"shared_trace", "true"},   {"day_length_s", "1.0"},
        {"job_cycles", "3e5"}};
    const std::string base = with_keys(day, indoor);
    // The cell text is fleet 0's; run_rep substitutes each fleet's seed.
    Cell c{"indoor_longday", "", "", ""};
    c.text = with_keys(base, {{"seed", std::to_string(opts.seed * 1000)},
                              {"nodes", std::to_string(scale.indoor_nodes)}});
    c.fidelity_text =
        with_keys(base, {{"nodes", std::to_string(scale.fidelity_indoor)}});
    w.cells.push_back(c);
    w.parallel = false;
    w.fleet_per_rep = true;
  } else if (opts.workload == "policy_zoo") {
    for (const std::string& policy : PolicyRegistry::global().names()) {
      const std::string base =
          with_keys(day, {{"name", "policy_zoo_" + policy}, {"policy", policy}});
      Cell c{"policy_zoo_" + policy, policy, "", ""};
      c.text = with_keys(base, {{"seed", seed},
                                {"nodes", std::to_string(scale.zoo_nodes)}});
      c.fidelity_text =
          with_keys(base, {{"nodes", std::to_string(scale.fidelity_zoo)}});
      w.cells.push_back(c);
    }
    w.route_by_constructor = true;
  } else {
    throw ModelError("perfbench: unknown workload '" + opts.workload + "'");
  }
  return w;
}

/// One cell executed once: phase times, the report, and what the run counted.
struct CellRun {
  std::string name;
  std::string policy;
  std::string engine;  ///< batch_kernel, fast_soc or fleet_sim
  FleetReport report;
  double parse_s = 0.0, setup_s = 0.0, run_s = 0.0, aggregate_s = 0.0,
         write_s = 0.0, wall_s = 0.0;
  std::uint64_t setup_mpp_solves = 0;
  solver_stats::Snapshot run_solves{};
  solver_stats::StepSnapshot run_steps{};
  unsigned threads = 1;
  // Traced batch cells only: per-node run_node time and the thread it ran on.
  std::vector<double> node_us;
  std::vector<int> node_thread;
};

/// The fields write_summary_json writes under "totals", plus the hash.
std::vector<std::string> check_summary_file(const FleetReport& r,
                                            const std::string& path) {
  const std::string text = read_file(path);
  std::vector<std::string> problems;
  const std::size_t totals = text.find("\"totals\"");
  if (totals == std::string::npos) return {"no totals in " + path};
  const auto number = [&](const char* key) {
    const std::string k = std::string("\"") + key + "\": ";
    const std::size_t at = text.find(k, totals);
    if (at == std::string::npos) return std::nan("");
    return std::strtod(text.c_str() + at + k.size(), nullptr);
  };
  const auto expect = [&](const char* key, double mem) {
    const double file = number(key);
    if (!(file == mem)) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s: summary JSON %.17g != in-memory %.17g",
                    key, file, mem);
      problems.emplace_back(buf);
    }
  };
  expect("cycles", r.total_cycles);
  expect("brownouts", static_cast<double>(r.total_brownouts));
  expect("jobs_submitted", static_cast<double>(r.total_jobs_submitted));
  expect("jobs_completed", static_cast<double>(r.total_jobs_completed));
  expect("jobs_missed", static_cast<double>(r.total_jobs_missed));
  expect("harvested_j", r.total_harvested.value());
  expect("delivered_j", r.total_delivered.value());
  if (text.find("\"summary_hash\": \"" + hash_hex(r.summary_hash) + "\"") ==
      std::string::npos) {
    problems.push_back("summary_hash in summary JSON differs from " +
                       hash_hex(r.summary_hash));
  }
  return problems;
}

/// Mirror of the per-node sky mapping inside the engines (private there):
/// the same generator parameters, so the trace/flat probes cost what the
/// constructor's sky loop costs.
IrradianceTrace make_sky(const FleetScenario& sc, Rng& rng) {
  const double stretch = sc.day_length.value() / 0.25;
  switch (sc.trace_kind) {
    case TraceKind::kDiurnal: {
      DiurnalArcParams p;
      p.day_length = sc.day_length;
      return diurnal_arc(rng, p);
    }
    case TraceKind::kClouds: {
      CloudFieldParams p;
      p.day.day_length = sc.day_length;
      p.mean_gap = Seconds(0.03 * stretch);
      p.mean_duration = Seconds(0.01 * stretch);
      return cloud_field(rng, p);
    }
    case TraceKind::kIndoor: {
      IndoorDutyParams p;
      p.duration = sc.day_length;
      p.mean_on = Seconds(0.04 * stretch);
      p.mean_off = Seconds(0.02 * stretch);
      return indoor_duty(rng, p);
    }
    default:
      throw ModelError("perfbench: workload uses an unsupported trace kind");
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / kMiB;  // KiB on Linux
}

class Bench {
 public:
  Bench(const Options& opts, SpanRecorder& spans)
      : opts_(opts),
        scale_(opts.smoke ? kSmoke : kFull),
        spans_(spans),
        compute_threads_(std::clamp(std::thread::hardware_concurrency(), 1u, 4u)),
        // parallel_for runs bodies on the pool's workers and the caller, so
        // compute_threads - 1 workers keep the process at compute_threads.
        pool_(std::max(1u, compute_threads_ - 1)),
        workload_(make_workload(opts, scale_)) {}

  WorkloadResult run();

 private:
  CellRun run_cell(const Cell& cell, const std::string& text, bool traced,
                   bool inject_exact_solve, std::int64_t parent);
  void run_rep(bool traced, int rep, int fleet,
               std::vector<std::vector<CellRun>>& out);
  void check_oracle(const std::vector<CellRun>& rep, const std::string& what);
  void fidelity(std::vector<Metric>& metrics);
  void layer_metrics(std::vector<Metric>& metrics);
  void probe_traces(std::vector<Metric>& metrics);
  void probe_core(std::vector<Metric>& metrics, double& surface_read_ns);
  double probe_setup_fixed_ms();
  double probe_lane_gain();

  [[nodiscard]] const Cell* first_batch_cell() const {
    for (const Cell& cell : workload_.cells) {
      if (engine_of_.at(cell.name) == "batch_kernel") return &cell;
    }
    return nullptr;
  }
  [[nodiscard]] bool parallel() const {
    return workload_.parallel && compute_threads_ > 1;
  }
  [[nodiscard]] std::string out_path(const std::string& file) const {
    return opts_.out_dir + "/" + file;
  }

  const Options& opts_;
  const Scale scale_;
  SpanRecorder& spans_;
  const unsigned compute_threads_;
  ThreadPool pool_;
  const Workload workload_;
  Ledger ledger_;
  std::map<std::string, std::uint64_t> expected_hash_;  ///< per cell, fleet
  bool hash_fault_injected_ = false;
  std::map<std::string, std::string> engine_of_;        ///< per cell
  std::vector<std::vector<CellRun>> untraced_reps_, traced_reps_;
  std::string overhead_line_;  ///< last line of the per-layer table
};

CellRun Bench::run_cell(const Cell& cell, const std::string& text, bool traced,
                        bool inject_exact_solve, std::int64_t parent) {
  CellRun c;
  c.name = cell.name;
  c.policy = cell.policy;
  const Clock::time_point t0 = Clock::now();

  FleetScenario sc;
  {
    Span s(spans_, "scenario.parse", parent);
    sc = FleetScenario::from_string(text);
    c.parse_s = s.close();
  }

  std::unique_ptr<BatchFleetKernel> kernel;
  {
    const solver_stats::Snapshot before = solver_stats::snapshot();
    const Clock::time_point a = Clock::now();
    try {
      kernel = std::make_unique<BatchFleetKernel>(sc);
    } catch (const ModelError&) {
      // The batch engine refuses this policy: FleetSimulator runs the cell.
      if (!workload_.route_by_constructor) throw;
    }
    const Clock::time_point b = Clock::now();
    spans_.record(kernel ? "batch_kernel.ctor" : "batch_kernel.ctor_refused",
                  parent, a, b);
    c.setup_s = seconds_between(a, b);
    c.setup_mpp_solves = solver_stats::delta_since(before).mpp_solves;
  }

  const solver_stats::StepSnapshot steps_before = solver_stats::step_snapshot();
  if (kernel) {
    c.engine = "batch_kernel";
    c.threads = parallel() ? compute_threads_ : 1;
    const solver_stats::Snapshot before = solver_stats::snapshot();
    if (inject_exact_solve) {
      // Fault injection: an exact solve inside the run bracket, as a batch
      // run that fell back to the exact model would make.
      (void)find_mpp(PvCell(PvCellParams{}), 0.5);
    }
    if (!traced) {
      Span s(spans_, "batch_kernel.run", parent);
      BatchKernelOptions o;
      o.pool = &pool_;
      o.parallel = parallel();
      o.simd_lanes = true;
      c.report = kernel->run(o);
      c.run_s = s.close();
    } else {
      // Traced: one run_node call per node, each in its own span, reduced
      // with aggregate() -- the same results run() produces with lanes.
      const std::size_t n = static_cast<std::size_t>(sc.nodes);
      std::vector<NodeResult> results(n);
      c.node_us.assign(n, 0.0);
      c.node_thread.assign(n, 0);
      Span s(spans_, parallel() ? "thread_pool.parallel_for"
                                : "batch_kernel.serial_loop",
             parent);
      const std::int64_t run_id = s.id();
      const auto body = [&](std::size_t i) {
        const Clock::time_point a = Clock::now();
        results[i] = kernel->run_node(static_cast<int>(i));
        const Clock::time_point b = Clock::now();
        spans_.record("batch_kernel.run_node", run_id, a, b);
        c.node_us[i] = seconds_between(a, b) * 1e6;
        c.node_thread[i] = thread_slot();
      };
      if (parallel()) {
        parallel_for(pool_, n, body);
      } else {
        for (std::size_t i = 0; i < n; ++i) body(i);
      }
      c.run_s = s.close();
      Span a(spans_, "report.aggregate", parent);
      c.report = aggregate(sc, std::move(results));
      c.aggregate_s = a.close();
    }
    c.run_solves = solver_stats::delta_since(before);
  } else {
    const EnergyPolicy& policy = PolicyRegistry::global().at(sc.policy);
    c.engine = policy.fast_path() ? "fast_soc" : "fleet_sim";
    c.threads = parallel() ? compute_threads_ : 1;
    std::unique_ptr<FleetSimulator> sim;
    {
      Span s(spans_, "fleet_sim.ctor", parent);
      sim = std::make_unique<FleetSimulator>(sc);
      c.setup_s += s.close();
    }
    Span s(spans_, c.engine + ".run", parent);
    FleetOptions o;
    o.pool = &pool_;
    o.parallel = parallel();
    c.report = sim->run(o);
    c.run_s = s.close();
  }
  c.run_steps = solver_stats::step_delta_since(steps_before);

  {
    Span s(spans_, "report.write", parent);
    write_summary_json(c.report, out_path(c.name + "_summary.json"));
    write_node_csv(c.report, out_path(c.name + "_nodes.csv"));
    c.write_s = s.close();
  }
  c.wall_s = seconds_between(t0, Clock::now());
  return c;
}

void Bench::run_rep(bool traced, int rep, int fleet,
                    std::vector<std::vector<CellRun>>& out) {
  const std::string fleet_seed =
      std::to_string(opts_.seed * 1000 + static_cast<std::uint64_t>(fleet));
  Span rep_span(spans_, traced ? "workload.traced_rep" : "workload.rep");
  std::vector<CellRun> runs;
  for (std::size_t k = 0; k < workload_.cells.size(); ++k) {
    const Cell& cell = workload_.cells[k];
    const std::string text = workload_.fleet_per_rep
                                 ? with_keys(cell.text, {{"seed", fleet_seed}})
                                 : cell.text;
    // Inject into the first cell the batch engine runs.
    const bool inject_exact = opts_.inject == "exact_solve" && rep == 0 &&
                              (workload_.route_by_constructor
                                   ? cell.policy == "mpp_track"
                                   : k == 0);
    std::int64_t parent = rep_span.id();
    std::unique_ptr<Span> cell_span;
    if (workload_.route_by_constructor) {
      cell_span = std::make_unique<Span>(spans_, "policy." + cell.policy,
                                         rep_span.id());
      parent = cell_span->id();
    }
    CellRun c = run_cell(cell, text, traced, inject_exact, parent);
    cell_span.reset();

    std::vector<std::string> problems;
    if (c.engine == "batch_kernel" && c.run_solves.total() != 0) {
      problems.push_back(std::to_string(c.run_solves.total()) +
                         " exact solves inside the batch run");
    }
    std::uint64_t observed = c.report.summary_hash;
    const std::string hash_key = cell.name + "#" + std::to_string(fleet);
    if (opts_.inject == "hash" && !hash_fault_injected_ &&
        expected_hash_.count(hash_key) != 0) {
      observed ^= 1;
      hash_fault_injected_ = true;
    }
    const auto [it, first] = expected_hash_.emplace(hash_key, observed);
    if (!first && it->second != observed) {
      problems.push_back(std::string("summary_hash ") + hash_hex(observed) +
                         (traced ? " (traced per-node run)" : "") +
                         " differs from " + hash_hex(it->second) +
                         " (first untraced run)");
    }
    if (engine_of_.emplace(cell.name, c.engine).first->second != c.engine) {
      problems.push_back("engine changed between repetitions");
    }
    const std::string summary_path = out_path(c.name + "_summary.json");
    if (opts_.inject == "summary" && rep == 0 && k == 0) {
      FleetReport corrupted = c.report;
      corrupted.total_cycles *= 2.0;
      write_summary_json(corrupted, summary_path);
    }
    for (std::string& p : check_summary_file(c.report, summary_path)) {
      problems.push_back(std::move(p));
    }
    ledger_.op(cell.name + (traced ? " traced" : "") + " repetition " +
                   std::to_string(rep),
               problems);
    runs.push_back(std::move(c));
  }
  rep_span.close();
  if (workload_.route_by_constructor) {
    check_oracle(runs, "oracle bound, repetition " + std::to_string(rep));
  }
  out.push_back(std::move(runs));
}

void Bench::check_oracle(const std::vector<CellRun>& rep,
                         const std::string& what) {
  const auto oracle_it =
      std::find_if(rep.begin(), rep.end(),
                   [](const CellRun& c) { return c.policy == "oracle_dp"; });
  if (oracle_it == rep.end()) {
    ledger_.op(what, {"no oracle_dp policy is registered"});
    return;
  }
  std::vector<double> bound;
  for (const NodeResult& r : oracle_it->report.node_results) {
    bound.push_back(r.cycles);
  }
  if (opts_.inject == "oracle" && !bound.empty()) bound[0] = 0.0;
  int violations = 0;
  std::string first;
  for (const CellRun& c : rep) {
    if (&c == &*oracle_it) continue;
    for (std::size_t i = 0; i < c.report.node_results.size(); ++i) {
      if (c.report.node_results[i].cycles > bound[i]) {
        if (violations++ == 0) {
          first = c.policy + " node " + std::to_string(i);
        }
      }
    }
  }
  std::vector<std::string> problems;
  if (violations > 0) {
    problems.push_back(std::to_string(violations) +
                       " node(s) where an online policy beat oracle_dp, "
                       "first: " + first);
  }
  ledger_.op(what, problems);
}

/// The batch engine against FleetSimulator on each batch cell's fidelity
/// prefix.  Modal disagreement follows tests/fleet/batch_kernel_test.cpp:
/// a cycles gap above 0.5 or jobs_completed off by more than one.
void Bench::fidelity(std::vector<Metric>& metrics) {
  double ref_cycles = 0.0, batch_cycles = 0.0;
  int sampled = 0, bifurcated = 0;
  for (const Cell& cell : workload_.cells) {
    if (engine_of_.at(cell.name) != "batch_kernel") continue;
    const FleetScenario sc = FleetScenario::from_string(cell.fidelity_text);
    BatchKernelOptions bo;
    bo.pool = &pool_;
    bo.parallel = compute_threads_ > 1;
    const FleetReport batch = BatchFleetKernel(sc).run(bo);
    FleetOptions fo;
    fo.pool = &pool_;
    fo.parallel = compute_threads_ > 1;
    const FleetReport ref = FleetSimulator(sc).run(fo);

    std::vector<std::string> problems;
    int submit_mismatch = 0;
    for (std::size_t i = 0; i < ref.node_results.size(); ++i) {
      const NodeResult& r = ref.node_results[i];
      const NodeResult& b = batch.node_results[i];
      if (r.jobs_submitted != b.jobs_submitted) ++submit_mismatch;
      ++sampled;
      const double gap = std::abs(r.cycles - b.cycles) /
                         std::max({std::abs(r.cycles), std::abs(b.cycles), 1e-12});
      if (gap > 0.5 || std::abs(r.jobs_completed - b.jobs_completed) > 1) {
        ++bifurcated;
        continue;
      }
      ref_cycles += r.cycles;
      batch_cycles += b.cycles;
    }
    if (submit_mismatch > 0) {
      problems.push_back(std::to_string(submit_mismatch) +
                         " node(s) where jobs_submitted differs from "
                         "FleetSimulator");
    }
    ledger_.op(cell.name + " fidelity sample", problems);
  }
  metrics.push_back({"cycles_err_vs_reference",
                     ref_cycles > 0.0
                         ? std::abs(batch_cycles - ref_cycles) / ref_cycles
                         : 0.0,
                     "ratio"});
  metrics.push_back({"bifurcated_frac",
                     sampled > 0 ? static_cast<double>(bifurcated) / sampled
                                 : 0.0,
                     "ratio"});
  std::printf("fidelity: %d/%d bifurcated, converged cycles batch %.6g vs "
              "reference %.6g\n",
              bifurcated, sampled, batch_cycles, ref_cycles);
}

WorkloadResult Bench::run() {
  std::filesystem::create_directories(opts_.out_dir);
  WorkloadResult result;
  result.pool_workers = pool_.size();
  result.compute_threads = parallel() ? compute_threads_ : 1;
  for (const Cell& c : workload_.cells) {
    result.scenario_hashes.emplace_back(c.name, fnv1a_hex(c.text));
    result.scenario_hashes.emplace_back(c.name + ".fidelity",
                                        fnv1a_hex(c.fidelity_text));
  }

  const Clock::time_point start = Clock::now();
  const auto elapsed = [&] { return seconds_between(start, Clock::now()); };
  // Start another repetition only while a typical one still fits the budget.
  std::vector<double> rep_s;
  const auto timed_rep = [&](bool traced, int rep, int fleet) {
    const Clock::time_point t = Clock::now();
    run_rep(traced, rep, fleet, traced ? traced_reps_ : untraced_reps_);
    rep_s.push_back(seconds_between(t, Clock::now()));
  };
  const auto fits = [&](double budget, int reserve) {
    return elapsed() + median(rep_s) * (1 + reserve) <= budget;
  };
  // A traced run first repeats the untraced pipeline for a share of its
  // time: it is the reference for the hash check and the tracing overhead.
  // With a fleet per repetition, the untraced run ends by repeating its
  // first fleet, and traced repetitions cycle over the untraced fleets, so
  // every summary_hash has a twin to agree with.
  const double untraced_budget = opts_.trace ? 0.25 * opts_.seconds : opts_.seconds;
  const int untraced_min = opts_.trace ? 1 : kMinUntracedReps;
  const int reserve = workload_.fleet_per_rep && !opts_.trace ? 1 : 0;
  int rep = 0;
  double rss_mb = 0.0;
  while (rep < untraced_min || fits(untraced_budget, reserve)) {
    timed_rep(false, rep, workload_.fleet_per_rep ? rep : 0);
    // Later repetitions redo the same work; what they add to the peak is
    // allocator retention that varies from run to run.
    if (rep++ == 0) rss_mb = peak_rss_mb();
  }
  const int fleets = workload_.fleet_per_rep ? rep : 1;
  if (reserve > 0) timed_rep(false, rep++, 0);
  if (opts_.trace) {
    rep_s.clear();
    for (int t = 0; traced_reps_.empty() || fits(opts_.seconds, 0); ++t) {
      timed_rep(true, rep++, t % fleets);
    }
    layer_metrics(result.metrics);
    result.layer_table = layer_table(spans_.spans(), kLayers) + overhead_line_;
  } else {
    std::vector<double> wall, setup, rate;
    for (const std::vector<CellRun>& r : untraced_reps_) {
      double w = 0.0, s = 0.0, run = 0.0, nodes = 0.0;
      for (const CellRun& c : r) {
        w += c.wall_s;
        s += c.setup_s;
        run += c.run_s;
        nodes += c.report.nodes;
      }
      wall.push_back(w);
      setup.push_back(s);
      rate.push_back(nodes / run);  // one scenario day per node
    }
    result.metrics.push_back({"wall_s", median(wall), "s"});
    result.metrics.push_back({"setup_s", median(setup), "s"});
    result.metrics.push_back({"node_days_per_s", median(rate), "1/s"});
    result.metrics.push_back({"peak_rss_mb", rss_mb, "MiB"});
    std::printf("timed: %zu repetitions in %.2f s\n", untraced_reps_.size(),
                elapsed());
    fidelity(result.metrics);
  }
  result.ledger = ledger_;
  return result;
}

// ---------------------------------------------------------------------------
// Per-layer metrics of the traced run.
// ---------------------------------------------------------------------------

void Bench::probe_traces(std::vector<Metric>& metrics) {
  const FleetScenario sc = FleetScenario::from_string(workload_.cells[0].text);
  const bool shared = sc.shared_trace;
  const int skies = shared ? 1 : sc.nodes;
  // A shared sky is generated once per constructor; repeat it for a sample.
  const int samples = shared ? 32 : skies;
  const double budget = sc.trace_coarsen_eps * sc.day_length.value();
  double gen_s = 0.0, flat_s = 0.0, coarsen_s = 0.0, knots = 0.0;
  for (int i = 0; i < samples; ++i) {
    Rng rng = shared ? Rng(sc.seed).fork(~0ULL)
                     : Rng(sc.seed).fork(static_cast<std::uint64_t>(i));
    Span g(spans_, "trace.generate");
    const IrradianceTrace trace = make_sky(sc, rng);
    gen_s += g.close();
    Span f(spans_, "flat.flatten");
    flat::FlatTrace ft = flat::flatten_trace(trace, sc.day_length.value());
    flat_s += f.close();
    Span c(spans_, "flat.coarsen");
    if (budget > 0.0) ft.coarsen(budget);
    coarsen_s += c.close();
    knots += static_cast<double>(ft.ts.size());
  }
  // Per constructor: the skies one constructor builds, at the mean cost.
  const double per_ctor = static_cast<double>(skies) / samples * 1e6;
  metrics.push_back({"trace.generate_us", gen_s * per_ctor, "us"});
  metrics.push_back({"flat.flatten_us", flat_s * per_ctor, "us"});
  metrics.push_back({"flat.coarsen_us", coarsen_s * per_ctor, "us"});
  metrics.push_back({"flat.knots_per_trace", knots / samples, "count"});
}

void Bench::probe_core(std::vector<Metric>& metrics, double& surface_read_ns) {
  const PvCell cell{PvCellParams{}};
  std::vector<double> levels;
  for (int i = 0; i < 16; ++i) levels.push_back(0.1 + 0.06 * i);
  double sink = 0.0;
  std::vector<double> solve_us;
  for (int rep = 0; rep < 16; ++rep) {
    for (const double g : levels) {
      Span s(spans_, "core.exact_mpp_solve");
      sink += find_mpp(cell, g).power.value();
      solve_us.push_back(s.close() * 1e6);
    }
  }
  const SwitchedCapRegulator reg;
  const Processor proc = Processor::make_test_chip();
  const SystemModel model(cell, reg, proc);
  const ModelSurfaces surfaces(model);
  constexpr int kReads = 4096;
  std::vector<double> read_ns;
  for (int rep = 0; rep < 256; ++rep) {
    Span s(spans_, "core.mpp_surface_read_x4096");
    for (int i = 0; i < kReads; ++i) {
      sink += surfaces.mpp(levels[static_cast<std::size_t>(i) % levels.size()] +
                           1e-6 * rep)
                  .power.value();
    }
    read_ns.push_back(s.close() * 1e9 / kReads);
  }
  if (!std::isfinite(sink)) ledger_.op("core probes", {"non-finite MPP power"});
  surface_read_ns = median(read_ns);
  metrics.push_back({"core.exact_mpp_solve_us", median(solve_us), "us"});
  metrics.push_back({"core.mpp_surface_read_ns", surface_read_ns, "ns"});
}

/// Constructor time at one node: the fixed part of set-up (surfaces and
/// crossover tables), for the first batch cell's scenario.
double Bench::probe_setup_fixed_ms() {
  const Cell* cell = first_batch_cell();
  if (cell == nullptr) return 0.0;
  const FleetScenario sc =
      FleetScenario::from_string(with_keys(cell->text, {{"nodes", "1"}}));
  std::vector<double> ms;
  for (int i = 0; i < 3; ++i) {
    Span s(spans_, "batch_kernel.ctor_1node");
    const BatchFleetKernel kernel(sc);
    ms.push_back(s.close() * 1e3);
  }
  return median(ms);
}

/// Sum of scalar run_node times over a serial run() with SIMD lanes, both
/// serial, on the first batch cell.  Also checks the two agree bit for bit.
double Bench::probe_lane_gain() {
  const Cell* cell = first_batch_cell();
  if (cell == nullptr) return 0.0;
  const FleetScenario sc = FleetScenario::from_string(cell->text);
  const BatchFleetKernel kernel(sc);
  BatchKernelOptions o;
  o.parallel = false;
  o.simd_lanes = true;
  Span lanes(spans_, "batch_kernel.serial_run_lanes");
  const FleetReport laned = kernel.run(o);
  const double lanes_s = lanes.close();
  std::vector<NodeResult> results;
  double scalar_s = 0.0;
  for (int i = 0; i < sc.nodes; ++i) {
    Span s(spans_, "batch_kernel.serial_run_node");
    results.push_back(kernel.run_node(i));
    scalar_s += s.close();
  }
  const FleetReport scalar = aggregate(sc, std::move(results));
  std::vector<std::string> problems;
  if (scalar.summary_hash != laned.summary_hash) {
    problems.push_back("summary_hash of scalar run_node " +
                       hash_hex(scalar.summary_hash) + " != laned run() " +
                       hash_hex(laned.summary_hash));
  }
  ledger_.op(cell->name + " lane probe", problems);
  return scalar_s / lanes_s;
}

void Bench::layer_metrics(std::vector<Metric>& m) {
  double surface_read_ns = 0.0;
  probe_traces(m);
  probe_core(m, surface_read_ns);

  // Batch cells of the traced repetitions.
  std::vector<double> node_us, ctor_s, setup_solves;
  double node_days = 0.0, run_busy_us = 0.0, run_capacity_us = 0.0;
  std::uint64_t exact_in_run = 0;
  solver_stats::StepSnapshot steps{};
  std::map<int, double> busy_by_thread;
  int nodes_per_cell = 0;
  // All cells of the traced repetitions (serial fraction, report layer).
  double wall = 0.0, serial = 0.0;
  std::vector<double> aggregate_ms, write_ms;
  for (const std::vector<CellRun>& rep : traced_reps_) {
    for (const CellRun& c : rep) {
      wall += c.wall_s;
      serial += c.setup_s + c.aggregate_s + c.write_s;
      write_ms.push_back(c.write_s * 1e3);
      if (c.engine != "batch_kernel") continue;
      aggregate_ms.push_back(c.aggregate_s * 1e3);
      ctor_s.push_back(c.setup_s);
      setup_solves.push_back(static_cast<double>(c.setup_mpp_solves));
      nodes_per_cell = c.report.nodes;
      node_days += c.report.nodes;
      exact_in_run += c.run_solves.total();
      for (int k = 0; k < solver_stats::kStepCauseCount; ++k) {
        steps.by_cause[k] += c.run_steps.by_cause[k];
      }
      for (std::size_t i = 0; i < c.node_us.size(); ++i) {
        node_us.push_back(c.node_us[i]);
        run_busy_us += c.node_us[i];
        busy_by_thread[c.node_thread[i]] += c.node_us[i];
      }
      run_capacity_us += c.run_s * 1e6 * c.threads;
    }
  }
  const auto per_node_day = [&](std::uint64_t n) {
    return node_days > 0.0 ? static_cast<double>(n) / node_days : 0.0;
  };
  const double fixed_ms = probe_setup_fixed_ms();
  m.push_back({"core.exact_mpp_solves_setup", median(setup_solves), "count"});
  m.push_back({"batch_kernel.setup_fixed_ms", fixed_ms, "ms"});
  m.push_back({"batch_kernel.setup_per_node_us",
               nodes_per_cell > 1 ? (median(ctor_s) * 1e3 - fixed_ms) * 1e3 /
                                        (nodes_per_cell - 1)
                                  : 0.0,
               "us"});
  m.push_back({"batch_kernel.node_us_p50", quantile(node_us, 0.5), "us"});
  m.push_back({"batch_kernel.node_us_p99", quantile(node_us, 0.99), "us"});
  m.push_back({"batch_kernel.node_samples", static_cast<double>(node_us.size()),
               "count"});
  m.push_back({"batch_kernel.steps_per_node_day", per_node_day(steps.total()),
               "count"});
  m.push_back({"batch_kernel.steps_deadline", per_node_day(steps.deadline()),
               "count"});
  m.push_back({"batch_kernel.steps_trace_knot",
               per_node_day(steps.trace_knot()), "count"});
  m.push_back({"batch_kernel.steps_watch_bound",
               per_node_day(steps.watch_bound()), "count"});
  m.push_back({"batch_kernel.steps_settle", per_node_day(steps.settle()),
               "count"});
  const double ns_per_step =
      steps.total() > 0 ? run_busy_us * 1e3 / static_cast<double>(steps.total())
                        : 0.0;
  m.push_back({"batch_kernel.ns_per_step", ns_per_step, "ns"});
  m.push_back({"batch_kernel.ns_per_step_over_surface_read",
               surface_read_ns > 0.0 ? ns_per_step / surface_read_ns : 0.0,
               "ratio"});
  m.push_back({"batch_kernel.lane_gain", probe_lane_gain(), "ratio"});
  m.push_back({"batch_kernel.exact_solves_in_run",
               static_cast<double>(exact_in_run), "count"});

  // FleetSimulator cells on the single-node fast path.  Their runs are
  // opaque, so ns/step is thread time over steps at full pool occupancy.
  double fast_steps = 0.0, fast_nodes = 0.0, fast_thread_s = 0.0;
  for (const std::vector<CellRun>& rep : traced_reps_) {
    for (const CellRun& c : rep) {
      if (c.engine != "fast_soc") continue;
      fast_steps += static_cast<double>(c.run_steps.total());
      fast_nodes += c.report.nodes;
      fast_thread_s += c.run_s * c.threads;
    }
  }
  m.push_back({"fast_soc.steps_per_node_day",
               fast_nodes > 0.0 ? fast_steps / fast_nodes : 0.0, "count"});
  m.push_back({"fast_soc.ns_per_step",
               fast_steps > 0.0 ? fast_thread_s * 1e9 / fast_steps : 0.0, "ns"});

  // Per-policy rates from the untraced repetitions: traced batch cells run
  // per node without lanes, so they would understate the batch engine.
  std::map<std::string, std::vector<double>> policy_rate;
  std::vector<double> oracle_node_ms;
  double batch_cells = 0.0;
  for (const std::vector<CellRun>& rep : untraced_reps_) {
    for (const CellRun& c : rep) {
      if (c.policy.empty()) continue;
      policy_rate[c.policy].push_back(c.report.nodes / c.run_s);
      if (c.policy == "oracle_dp") {
        oracle_node_ms.push_back(c.run_s * c.threads * 1e3 / c.report.nodes);
      }
    }
  }
  for (const auto& [name, engine] : engine_of_) {
    (void)name;
    if (workload_.route_by_constructor && engine == "batch_kernel") ++batch_cells;
  }
  for (const std::string& policy : PolicyRegistry::global().names()) {
    const auto it = policy_rate.find(policy);
    m.push_back({"policy." + policy + ".node_days_per_s",
                 it == policy_rate.end() ? 0.0 : median(it->second), "1/s"});
  }
  m.push_back({"policy.oracle_dp.node_ms", median(oracle_node_ms), "ms"});
  m.push_back({"policy.batch_cells", batch_cells, "count"});

  double busy_max = 0.0, busy_sum = 0.0;
  for (const auto& [slot, busy] : busy_by_thread) {
    (void)slot;
    busy_max = std::max(busy_max, busy);
    busy_sum += busy;
  }
  const double threads = parallel() ? compute_threads_ : 1.0;
  m.push_back({"thread_pool.utilization",
               run_capacity_us > 0.0 ? run_busy_us / run_capacity_us : 0.0,
               "ratio"});
  m.push_back({"thread_pool.imbalance",
               busy_sum > 0.0 ? busy_max / (busy_sum / threads) : 0.0, "ratio"});
  m.push_back({"thread_pool.serial_fraction", wall > 0.0 ? serial / wall : 0.0,
               "ratio"});
  m.push_back({"report.aggregate_ms", median(aggregate_ms), "ms"});
  m.push_back({"report.write_ms", median(write_ms), "ms"});

  std::vector<double> traced_wall, untraced_wall;
  for (const auto& rep : traced_reps_) {
    double w = 0.0;
    for (const CellRun& c : rep) w += c.wall_s;
    traced_wall.push_back(w);
  }
  for (const auto& rep : untraced_reps_) {
    double w = 0.0;
    for (const CellRun& c : rep) w += c.wall_s;
    untraced_wall.push_back(w);
  }
  const double overhead = median(traced_wall) / median(untraced_wall) - 1.0;
  m.push_back({"tracing.overhead_frac", overhead, "ratio"});
  char line[200];
  std::snprintf(line, sizeof line,
                "tracing overhead: traced repetition %.4f s vs untraced %.4f s "
                "(median), %+.1f%%\n",
                median(traced_wall), median(untraced_wall), 100.0 * overhead);
  overhead_line_ = line;

  std::printf("engines:");
  for (const auto& [name, engine] : engine_of_) {
    std::printf(" %s=%s", name.c_str(), engine.c_str());
  }
  std::printf("\n");
}

}  // namespace

WorkloadResult run_workload(const Options& opts, SpanRecorder& spans) {
  Bench bench(opts, spans);
  return bench.run();
}

}  // namespace perfbench
