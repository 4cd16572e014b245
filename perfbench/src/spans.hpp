// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only by the benchmark's own code, around each call it
// makes into a library layer; nothing inside the library is instrumented.
// A span's name is "<layer>.<operation>", so the per-layer table groups by the
// text before the first dot.  Spans are kept in memory and written once, when
// the run ends, as Chrome trace-event JSON (chrome://tracing, Perfetto).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two clock readings.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Small dense index for the calling thread (0 for the first thread that asks).
int thread_slot();

struct SpanRecord {
  std::string name;
  std::int64_t id = 0;
  std::int64_t parent = 0;  ///< 0 for a root span
  int thread = 0;
  double start_us = 0.0;    ///< since the recorder was created
  double end_us = 0.0;

  [[nodiscard]] double duration_us() const { return end_us - start_us; }
  [[nodiscard]] std::string layer() const;
};

/// Thread-safe span store.  A disabled recorder hands out id 0 and stores
/// nothing, so untraced code paths can share the traced ones' shape.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Store one finished span and return its id.  `id` may be reserved up
  /// front with next_id() so children can name a parent still in flight.
  std::int64_t record(const std::string& name, std::int64_t parent,
                      Clock::time_point start, Clock::time_point end,
                      std::int64_t id = 0);
  std::int64_t next_id();

  /// Copy of every span recorded so far.
  [[nodiscard]] std::vector<SpanRecord> spans() const;

 private:
  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // guarded by mutex_
  std::int64_t last_id_ = 0;       // guarded by mutex_
};

/// RAII span: opens on construction, records on destruction (or close()).
class Span {
 public:
  Span(SpanRecorder& recorder, std::string name, std::int64_t parent = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Id children use as their parent (0 when the recorder is disabled).
  [[nodiscard]] std::int64_t id() const { return id_; }
  /// Record now and return the elapsed seconds; later calls are no-ops.
  double close();

 private:
  SpanRecorder& recorder_;
  std::string name_;
  std::int64_t parent_;
  std::int64_t id_;
  Clock::time_point start_;
  bool open_ = true;
  double elapsed_s_ = 0.0;
};

/// Nearest-rank quantile of an unsorted sample (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Per-span-name and per-layer table, listing every layer in `layers` even
/// when no span of it was recorded.  Per span name: count, mean, min, max,
/// p50 and the highest of p90/p99/p99.9 with at least ten samples beyond it
/// (the CostStatistic idiom), total and self time.  A span's self time is
/// its duration minus the union of its children's intervals (children may
/// overlap when they ran on several threads).
std::string layer_table(const std::vector<SpanRecord>& spans,
                        const std::vector<std::string>& layers);

/// Chrome trace-event JSON ("X" complete events, one tid per thread slot)
/// with `other_data_json` (a JSON object) stored under "otherData".
std::string chrome_trace_json(const std::vector<SpanRecord>& spans,
                              const std::string& other_data_json);

}  // namespace perfbench
