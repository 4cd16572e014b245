// hemp_analyzer fixture: unit-boundary probes in a header, where data members
// and namespace-scope variables are API boundary too.  The selftest asserts
// exactly the findings marked "reported" below.
#pragma once

namespace fixture {

double foo_v;                          // reported: namespace-scope variable
extern double rail_w;                  // reported: extern declaration
inline constexpr double kRail_v{1.0};  // reported: brace-initialized variable

struct Probe {
  double foo_v;                        // reported: raw member
  double bus_voltage = 0.0;            // reported: member with initializer
  double rail_power = 0.0;  // hemp-analyzer: allow(unit-boundary) — same-line marker
  // hemp-analyzer: allow(unit-boundary) — next-line marker
  double stored_energy = 0.0;
  double gain = 1.0;                   // not a quantity name
};

// A `/*` inside a line comment, e.g. scenarios/*.scn, must not open a block
// comment: that bug once blanked every line below it, hiding the findings.
inline double input_power(double load_current) {  // reported: return + param
  double drop_v = load_current * 0.5;  // body local: outside the API boundary
  return drop_v;
}

}  // namespace fixture
