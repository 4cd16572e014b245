// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload day1000|indoor_longday|policy_zoo --seed N
//             --seconds S --trace 0|1 --data DIR [--out DIR]
//             [--git-describe TEXT] [--scale full|smoke]
//             [--inject none|hash|oracle|exact_solve|summary]
//
// Prints a manifest line, then as its last line one JSON object with the keys
// correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
// metrics; --trace 1 the per-layer ones, and also writes trace.json (Chrome
// trace events) and layers.txt into the output directory.  Exits 1 when an
// output check failed and 2 on a usage or run error (no result printed).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using namespace perfbench;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

bool contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --data DIR [--out DIR] [--git-describe TEXT] "
               "[--scale full|smoke] [--inject FAULT]\n",
               why);
  return 2;
}

std::string manifest_json(const Options& opts, const WorkloadResult& r,
                          const std::string& git_describe) {
  std::string out = "{";
  out += "\"git_describe\": " + json_string(git_describe);
  out += ", \"compiler\": " + json_string(PERFBENCH_COMPILER);
  out += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  out += ", \"cxx_flags\": " + json_string(PERFBENCH_CXX_FLAGS);
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"pool_workers\": " + std::to_string(r.pool_workers);
  out += ", \"compute_threads\": " + std::to_string(r.compute_threads);
  out += ", \"workload\": " + json_string(opts.workload);
  out += ", \"seed\": " + std::to_string(opts.seed);
  out += ", \"seconds\": " + std::to_string(opts.seconds);
  out += ", \"trace\": " + std::string(opts.trace ? "1" : "0");
  out += ", \"scale\": " + json_string(opts.smoke ? "smoke" : "full");
  out += ", \"inject\": " + json_string(opts.inject);
  out += ", \"scenario_text_fnv1a\": {";
  for (std::size_t i = 0; i < r.scenario_hashes.size(); ++i) {
    out += (i ? ", " : "") + json_string(r.scenario_hashes[i].first) + ": " +
           json_string(r.scenario_hashes[i].second);
  }
  return out + "}}";
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string git_describe = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     std::isfinite(opts.seconds) && opts.seconds > 0.0;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      opts.trace = value == "1";
    } else if (arg == "--data") {
      opts.data_dir = value;
    } else if (arg == "--out") {
      opts.out_dir = value;
    } else if (arg == "--git-describe") {
      git_describe = value;
    } else if (arg == "--scale") {
      if (value != "full" && value != "smoke") return usage("bad --scale");
      opts.smoke = value == "smoke";
    } else if (arg == "--inject") {
      opts.inject = value;
    } else {
      return usage(("unknown flag " + arg).c_str());
    }
  }
  if (!contains(workload_names(), opts.workload)) return usage("bad --workload");
  if (!have_seed) return usage("bad or missing --seed");
  if (!have_seconds) return usage("bad or missing --seconds");
  if (!have_trace) return usage("bad or missing --trace");
  if (opts.data_dir.empty()) return usage("missing --data");
  if (!contains(fault_names(), opts.inject)) return usage("bad --inject");
  if (opts.out_dir.empty()) opts.out_dir = ".bench_out/" + opts.workload;

  try {
    SpanRecorder spans(opts.trace);
    WorkloadResult r = run_workload(opts, spans);
    const std::string manifest = manifest_json(opts, r, git_describe);
    write_text(opts.out_dir + "/manifest.json", manifest + "\n");
    if (opts.trace) {
      write_text(opts.out_dir + "/trace.json",
                 chrome_trace_json(spans.spans(), manifest));
      write_text(opts.out_dir + "/layers.txt", r.layer_table);
      std::printf("%s", r.layer_table.c_str());
    }
    for (const Metric& m : r.metrics) {
      if (!std::isfinite(m.value)) {
        r.ledger.op("metric " + m.name, {"value is not finite"});
      }
    }
    std::printf("manifest: %s\n", manifest.c_str());
    std::string json = "{\"correct\": ";
    json += r.ledger.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.ledger.attempted);
    json += ", \"failed\": " + std::to_string(r.ledger.failed);
    json += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
      const Metric& m = r.metrics[i];
      std::snprintf(buf, sizeof buf, "%.17g",
                    std::isfinite(m.value) ? m.value : 0.0);
      json += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " + buf +
              ", \"unit\": " + json_string(m.unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return r.ledger.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: run aborted: %s\n", e.what());
    return 2;
  }
}
