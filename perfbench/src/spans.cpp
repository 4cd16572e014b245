#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <utility>

namespace perfbench {

int thread_slot() {
  static std::atomic<int> next{0};
  thread_local const int slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

std::string SpanRecord::layer() const { return name.substr(0, name.find('.')); }

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(Clock::now()) {}

std::int64_t SpanRecorder::next_id() {
  if (!enabled_) return 0;
  const std::lock_guard<std::mutex> lock(mutex_);
  return ++last_id_;
}

std::int64_t SpanRecorder::record(const std::string& name, std::int64_t parent,
                                  Clock::time_point start,
                                  Clock::time_point end, std::int64_t id) {
  if (!enabled_) return 0;
  SpanRecord r;
  r.name = name;
  r.parent = parent;
  r.thread = thread_slot();
  r.start_us = seconds_between(origin_, start) * 1e6;
  r.end_us = seconds_between(origin_, end) * 1e6;
  const std::lock_guard<std::mutex> lock(mutex_);
  r.id = id != 0 ? id : ++last_id_;
  spans_.push_back(std::move(r));
  return spans_.back().id;
}

std::vector<SpanRecord> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

Span::Span(SpanRecorder& recorder, std::string name, std::int64_t parent)
    : recorder_(recorder),
      name_(std::move(name)),
      parent_(parent),
      id_(recorder.next_id()),
      start_(Clock::now()) {}

Span::~Span() { close(); }

double Span::close() {
  if (!open_) return elapsed_s_;
  open_ = false;
  const Clock::time_point end = Clock::now();
  elapsed_s_ = seconds_between(start_, end);
  recorder_.record(name_, parent_, start_, end, id_);
  return elapsed_s_;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(i, values.size() - 1)];
}

namespace {

struct CostSummary {
  std::size_t count = 0;
  double mean = 0.0, min = 0.0, max = 0.0, p50 = 0.0, total = 0.0;
  double tail = 0.0;
  std::string tail_label;  ///< empty when no tail percentile qualifies
};

CostSummary summarize_costs(std::vector<double> values) {
  CostSummary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  for (const double v : values) s.total += v;
  s.mean = s.total / static_cast<double>(values.size());
  s.min = values.front();
  s.max = values.back();
  s.p50 = quantile(values, 0.5);
  static const std::pair<double, const char*> kTails[] = {
      {0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}};
  for (const auto& [q, label] : kTails) {
    if (static_cast<double>(values.size()) * (1.0 - q) >= 10.0) {
      s.tail = quantile(values, q);
      s.tail_label = label;
      break;
    }
  }
  return s;
}

std::vector<double> self_times_us(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::int64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    const auto it = index.find(s.parent);
    if (s.parent != 0 && it != index.end()) {
      children[it->second].emplace_back(s.start_us, s.end_us);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cur_lo = 0.0, cur_hi = -1.0;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, spans[i].start_us);
      hi = std::min(hi, spans[i].end_us);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, spans[i].duration_us() - covered);
  }
  return self;
}

}  // namespace

std::string layer_table(const std::vector<SpanRecord>& spans,
                        const std::vector<std::string>& layers) {
  const std::vector<double> self = self_times_us(spans);
  std::map<std::string, std::vector<double>> durations;
  std::map<std::string, double> self_by_name;
  std::map<std::string, double> self_by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    durations[spans[i].name].push_back(spans[i].duration_us());
    self_by_name[spans[i].name] += self[i];
    self_by_layer[spans[i].layer()] += self[i];
  }

  std::string out;
  char line[320];
  std::snprintf(line, sizeof line,
                "%-34s %8s %11s %11s %11s %11s %17s %12s %12s\n", "span (us)",
                "count", "mean", "min", "max", "p50", "tail", "total",
                "self");
  out += line;
  std::vector<std::string> all_layers = layers;
  for (const auto& [layer, unused] : self_by_layer) {
    (void)unused;
    if (std::find(all_layers.begin(), all_layers.end(), layer) ==
        all_layers.end()) {
      all_layers.push_back(layer);
    }
  }
  for (const std::string& layer : all_layers) {
    const double layer_self = self_by_layer.count(layer) ? self_by_layer[layer] : 0.0;
    std::snprintf(line, sizeof line, "[%s] self %.1f us%s\n", layer.c_str(),
                  layer_self,
                  self_by_layer.count(layer) ? ""
                                             : " (no span: layer not exercised "
                                               "by this workload)");
    out += line;
    for (const auto& [name, values] : durations) {
      if (name.substr(0, name.find('.')) != layer) continue;
      const CostSummary c = summarize_costs(values);
      char tail[32];
      if (c.tail_label.empty()) {
        std::snprintf(tail, sizeof tail, "-");
      } else {
        std::snprintf(tail, sizeof tail, "%s=%.1f", c.tail_label.c_str(),
                      c.tail);
      }
      std::snprintf(line, sizeof line,
                    "  %-32s %8zu %11.1f %11.1f %11.1f %11.1f %17s %12.0f "
                    "%12.0f\n",
                    name.c_str(), c.count, c.mean, c.min, c.max, c.p50, tail,
                    c.total, self_by_name[name]);
      out += line;
    }
  }
  return out;
}

std::string chrome_trace_json(const std::vector<SpanRecord>& spans,
                              const std::string& other_data_json) {
  std::string out = "{\"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                  "\"args\": {\"id\": %lld, \"parent\": %lld}}%s\n",
                  s.name.c_str(), s.layer().c_str(), s.start_us,
                  s.duration_us(), s.thread, static_cast<long long>(s.id),
                  static_cast<long long>(s.parent),
                  i + 1 < spans.size() ? "," : "");
    out += buf;
  }
  out += "],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": ";
  out += other_data_json;
  out += "\n}\n";
  return out;
}

}  // namespace perfbench
