#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It takes about half a minute:

  1. every workload, untraced and traced, at smoke size (tiny fleets, one
     second each): each run must pass its checks and print exactly the
     metrics BENCHMARK.json names for its mode;
  2. fault injection: a mismatched summary_hash, a fabricated oracle
     violation, an exact solve inside a batch run and a corrupted summary
     JSON must each make a run report correct=false with the matching check;
  3. the benchmark copied alone (BENCHMARK.json and its own directories, no
     library sources) must exit non-zero without printing a result.

Exits 0 when every case behaves as expected, 1 otherwise.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT, env=None):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args
    p = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return p.returncode, result, p.stderr


def smoke(workload, trace, extra=()):
    return run(["--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", trace, "--scale", "smoke", *extra])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = {"0": {m["name"] for m in bench["end_to_end"]},
             "1": {m["name"] for m in bench["per_layer"]}}
    failures = []

    def expect(case, ok, detail=""):
        print(f"  {'ok  ' if ok else 'FAIL'} {case}" + (f": {detail}" if detail and not ok else ""))
        if not ok:
            failures.append(case)

    print("smoke runs")
    for w in (w["name"] for w in bench["workloads"]):
        for trace in ("0", "1"):
            rc, r, err = smoke(w, trace)
            case = f"{w} --trace {trace}"
            if r is None:
                expect(case, False, "no result line\n" + err[-2000:])
                continue
            got = set(r["metrics"])
            expect(case, rc == 0 and r["correct"] and r["failed"] == 0
                   and r["attempted"] >= 1 and got == names[trace],
                   f"rc={rc} correct={r['correct']} failed={r['failed']} "
                   f"missing={sorted(names[trace] - got)} "
                   f"extra={sorted(got - names[trace])}\n" + err[-2000:])

    print("fault injection")
    faults = [("hash", "day1000", "summary_hash"),
              ("hash", "indoor_longday", "summary_hash"),
              ("oracle", "policy_zoo", "beat oracle_dp"),
              ("exact_solve", "day1000", "exact solves inside the batch run"),
              ("exact_solve", "policy_zoo", "exact solves inside the batch run"),
              ("summary", "indoor_longday", "summary JSON")]
    for fault, w, needle in faults:
        rc, r, err = smoke(w, "0", ("--inject", fault))
        fired = (r is not None and not r["correct"] and r["failed"] >= 1
                 and needle in err and rc != 0)
        expect(f"{fault} on {w}", fired, f"rc={rc} result={r}\n" + err[-2000:])

    print("benchmark alone, without the library sources")
    alone = os.path.join(ROOT, ".bench_out", "selftest_alone")
    shutil.rmtree(alone, ignore_errors=True)
    os.makedirs(alone)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(alone, path))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    rc, r, err = run(["--workload", "day1000", "--seed", "1", "--seconds", "1",
                      "--trace", "0"], cwd=alone, env=env)
    expect("refuses to run", rc != 0 and r is None, f"rc={rc} result={r}")
    shutil.rmtree(alone, ignore_errors=True)

    print("selftest: " + ("PASS" if not failures else
                          f"FAIL ({len(failures)}: {', '.join(failures)})"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
