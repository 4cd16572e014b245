#!/usr/bin/env python3
"""hemp_analyzer self-test over the injected-violation fixtures.

Asserts:
  * every violation class in fixtures/ is detected with its expected
    stable key — exact-solver/alloc/mutex/io/throw hot-path sinks (direct,
    transitive, and through virtual dispatch), every determinism source
    class (namespace-scope variables included), raw-double unit-boundary signatures in a .cpp file, and raw-double
    members and namespace-scope variables in a header;
  * cold code and the clean fixture produce ZERO findings;
  * inline `hemp-analyzer: allow(...)` markers fully silence real
    violations (per-check and `all`, same-line and next-line).

Exit 0 on success, 1 on any failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import (ProgramIndex, check_determinism,  # noqa: E402
                    check_hot_path_purity, check_unit_boundary)
from frontend_text import TextFrontend  # noqa: E402

FIXTURES = Path(__file__).resolve().parent / "fixtures"

HOT_EXPECT = {
    "hot-path-purity|fixture::helper_solver|exact-solver|find_mpp",
    "hot-path-purity|fixture::hot_direct_alloc|alloc|new",
    "hot-path-purity|fixture::Locker::hot_mutex|mutex|lock",
    "hot-path-purity|fixture::hot_io|io|printf",
    "hot-path-purity|fixture::hot_throw|throw|throw",
    "hot-path-purity|fixture::VectorController::on_tick|alloc|push_back",
}

DET_EXPECT = {
    "determinism|fixture::noisy|call|rand",
    "determinism|fixture::stamp|call|time",
    "determinism|fixture::wall_nanos|token|system_clock",
    "determinism|fixture::unseeded|token|mt19937",
    "determinism|fixture::entropy|token|random_device",
    "determinism|fixture::Cache|member-type|unordered_map",
    "determinism|fixture::lookup_count|token|unordered_map",
    "determinism|fixture::g_cache|variable-type|unordered_map",
    "determinism|fixture::g_gen|variable-type|mt19937",
}

UNIT_EXPECT = {
    "unit-boundary|fixture::input_power|return|input_power",
    "unit-boundary|fixture::input_power|parameter|bus_v",
    "unit-boundary|fixture::input_power|parameter|load_current",
    "unit-boundary|fixture::harvest_energy|return|harvest_energy",
    "unit-boundary|fixture::harvest_energy|parameter|panel_voltage",
    "unit-boundary|fixture::harvest_energy|parameter|panel_current",
}

# Header probes: a `/*` inside a `//` comment must not hide the findings
# after it, and both marker placements must silence theirs.
UNIT_PROBE_EXPECT = {
    "unit-boundary|fixture|variable|foo_v",
    "unit-boundary|fixture|variable|rail_w",
    "unit-boundary|fixture|variable|kRail_v",
    "unit-boundary|fixture::Probe|member|foo_v",
    "unit-boundary|fixture::Probe|member|bus_voltage",
    "unit-boundary|fixture::input_power|return|input_power",
    "unit-boundary|fixture::input_power|parameter|load_current",
}

failures = []


def expect(cond, label):
    print(("  ok:   " if cond else "  FAIL: ") + label)
    if not cond:
        failures.append(label)


def parse(name):
    ir = TextFrontend().parse(str(FIXTURES / name))
    ir.path = name
    for fn in ir.functions:
        fn.file = name
    for cls in ir.classes:
        cls.file = name
    return ir


def keys(findings):
    return {f.key for f in findings}


def main() -> int:
    hot_ir = parse("hot_violations.cpp")
    hot = check_hot_path_purity(ProgramIndex([hot_ir]))
    got = keys(hot)
    for k in sorted(HOT_EXPECT):
        expect(k in got, f"detects {k}")
    expect(got == HOT_EXPECT,
           f"no extra hot-path findings (got {sorted(got - HOT_EXPECT)})")
    expect(not any("cold_alloc" in k for k in got),
           "cold (non-hot) allocation is not reported")
    chain = next((f for f in hot if "helper_solver" in f.key), None)
    expect(chain is not None and
           any("hot_exact_chain" in hop for hop in chain.witness),
           "witness chain names the HEMP_HOT root of a transitive finding")

    unit_ir = parse("unit_violations.cpp")
    got = keys(check_unit_boundary([unit_ir]))
    for k in sorted(UNIT_EXPECT):
        expect(k in got, f"detects {k}")
    expect(not any("plain_counter" in k for k in got),
           "non-quantity signature is not reported")

    probe_ir = parse("unit_probes.hpp")
    got = keys(check_unit_boundary([probe_ir]))
    for k in sorted(UNIT_PROBE_EXPECT):
        expect(k in got, f"detects {k}")
    expect(got == UNIT_PROBE_EXPECT,
           f"markers and scope hold in a header (got "
           f"{sorted(got ^ UNIT_PROBE_EXPECT)})")

    sup_ir = parse("suppressed.cpp")
    sup = (check_hot_path_purity(ProgramIndex([sup_ir]))
           + check_determinism([sup_ir]) + check_unit_boundary([sup_ir]))
    expect(keys(sup) == set(),
           f"inline allow markers silence every violation "
           f"(got {sorted(keys(sup))})")

    clean_ir = parse("clean.cpp")
    clean = (check_hot_path_purity(ProgramIndex([clean_ir]))
             + check_determinism([clean_ir]) + check_unit_boundary([clean_ir]))
    expect(keys(clean) == set(),
           f"clean fixture has zero findings (got {sorted(keys(clean))})")

    det_ir = parse("determinism_violations.cpp")
    got = keys(check_determinism([det_ir]))
    for k in sorted(DET_EXPECT):
        expect(k in got, f"detects {k}")
    expect(got == DET_EXPECT,
           f"no extra determinism findings "
           f"(got {sorted(got - DET_EXPECT)})")

    if failures:
        print(f"\nhemp_analyzer selftest: {len(failures)} FAILURE(S)")
        return 1
    print("\nhemp_analyzer selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
