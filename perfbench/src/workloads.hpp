// The benchmark's workloads, their output checks and their metrics.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny populations and fidelity samples, for the self-test.
  bool smoke = false;
  /// Fault to inject so the self-test can show a check firing: none, hash,
  /// oracle, exact_solve or summary.
  std::string inject = "none";
  /// Directory holding the workload scenario files.
  std::string data_dir;
  /// Directory the run writes its reports, trace and table into.
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Operations attempted and failed.  An operation fails when any of its
/// output checks fails; each failure is reported on stderr.
struct Ledger {
  int attempted = 0;
  int failed = 0;
  void op(const std::string& what, const std::vector<std::string>& problems);
};

struct WorkloadResult {
  Ledger ledger;
  std::vector<Metric> metrics;
  /// (cell name, FNV-1a of the scenario text the library received).
  std::vector<std::pair<std::string, std::string>> scenario_hashes;
  unsigned pool_workers = 0;
  unsigned compute_threads = 1;
  /// Per-layer table of the traced run (empty when untraced).
  std::string layer_table;
};

const std::vector<std::string>& workload_names();
const std::vector<std::string>& fault_names();

/// Run one workload for opts.seconds.  Untraced runs report the end-to-end
/// metrics, traced runs (spans recorded into `spans`) the per-layer ones.
WorkloadResult run_workload(const Options& opts, SpanRecorder& spans);

}  // namespace perfbench
