#include "storage/comparator.hpp"

#include "common/error.hpp"

namespace hemp {

Comparator::Comparator(Volts threshold, Volts hysteresis)
    : threshold_(threshold), hysteresis_(hysteresis) {
  HEMP_REQUIRE(threshold.value() > 0.0, "Comparator: threshold must be positive");
  HEMP_REQUIRE(hysteresis.value() >= 0.0, "Comparator: hysteresis must be non-negative");
}

void Comparator::reset(Volts v) {
  output_ = v > threshold_;
  initialized_ = true;
  last_time_ = Seconds(0.0);
}

std::optional<ComparatorEvent> Comparator::update(Volts v, Seconds t) {
  if (!initialized_) {
    reset(v);
    last_time_ = t;
    return std::nullopt;
  }
  HEMP_CHECK_RANGE(t >= last_time_, "Comparator: samples must be time-ordered");
  last_time_ = t;
  const double h = hysteresis_.value() * 0.5;
  if (!output_ && v.value() > threshold_.value() + h) {
    output_ = true;
    return ComparatorEvent{Edge::kRising, t, threshold_};
  }
  if (output_ && v.value() < threshold_.value() - h) {
    output_ = false;
    return ComparatorEvent{Edge::kFalling, t, threshold_};
  }
  return std::nullopt;
}

ThresholdTimer::ThresholdTimer(Volts v_high, Volts v_low, Volts hysteresis)
    : high_(v_high, hysteresis), low_(v_low, hysteresis) {
  HEMP_REQUIRE(v_high > v_low, "ThresholdTimer: v_high must exceed v_low");
}

void ThresholdTimer::reset(Volts v) {
  high_.reset(v);
  low_.reset(v);
  armed_ = false;
}

std::optional<Seconds> ThresholdTimer::update(Volts v, Seconds t) {
  const auto eh = high_.update(v, t);
  const auto el = low_.update(v, t);
  if (eh && eh->edge == Edge::kFalling) {
    armed_ = true;
    armed_at_ = t;
  } else if (eh && eh->edge == Edge::kRising) {
    // Voltage recovered above v_high: abandon any pending measurement.
    armed_ = false;
  }
  if (el && el->edge == Edge::kFalling && armed_) {
    armed_ = false;
    const Seconds interval = t - armed_at_;
    // Both thresholds crossed within one sample: the fall is too fast to
    // time at this resolution; discard rather than report a zero interval.
    if (interval.value() <= 0.0) return std::nullopt;
    return interval;
  }
  return std::nullopt;
}

}  // namespace hemp
