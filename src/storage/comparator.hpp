// Voltage comparators and the threshold-crossing timer.
//
// The paper's test PCB adds "multiple comparators with less than 0.1 uW power
// ... to serve as a simplified energy monitor to the solar cells" (Sec. VII).
// The MPP tracker (Sec. VI-A, Eq. 7) derives the incoming solar power from
// the time the solar-node voltage takes to fall between two thresholds.
#pragma once

#include <optional>

#include "common/units.hpp"

namespace hemp {

enum class Edge { kRising, kFalling };

/// Default hysteresis band of every comparator (symmetric around the
/// threshold: the output flips half a band past it).
inline constexpr Volts kComparatorHysteresis{0.005};

struct ComparatorEvent {
  Edge edge;
  Seconds time;
  Volts threshold;
};

/// Single comparator with symmetric hysteresis around its threshold.
class Comparator {
 public:
  Comparator(Volts threshold, Volts hysteresis = kComparatorHysteresis);

  /// Feed one voltage sample at time `t`; returns an event when the output
  /// toggles.  Samples must arrive in non-decreasing time order.
  std::optional<ComparatorEvent> update(Volts v, Seconds t);

  [[nodiscard]] Volts threshold() const { return threshold_; }
  [[nodiscard]] bool output() const { return output_; }
  /// Reset the latch to track a fresh waveform.
  void reset(Volts v);

 private:
  Volts threshold_;
  Volts hysteresis_;
  bool output_ = false;  // true = input above threshold
  bool initialized_ = false;
  Seconds last_time_{0.0};
};

/// Measures the time the waveform takes to fall from `v_high` to `v_low`
/// (the `t` of paper Eq. 7).  Arms on the falling edge through v_high and
/// fires on the falling edge through v_low.
class ThresholdTimer {
 public:
  ThresholdTimer(Volts v_high, Volts v_low,
                 Volts hysteresis = kComparatorHysteresis);

  /// Returns the measured interval when the low edge completes a measurement.
  std::optional<Seconds> update(Volts v, Seconds t);

  [[nodiscard]] Volts v_high() const { return high_.threshold(); }
  [[nodiscard]] Volts v_low() const { return low_.threshold(); }
  [[nodiscard]] bool armed() const { return armed_; }
  void reset(Volts v);

 private:
  Comparator high_;
  Comparator low_;
  bool armed_ = false;
  Seconds armed_at_{0.0};
};

}  // namespace hemp
