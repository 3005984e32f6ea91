"""The modcoh benchmark: one workload, timed, checked, and optionally traced.

    python3 bench/run.py --workload ext-n2 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; modcoh is imported from its src/.  Prints
every metric by name with its unit, then one JSON object as the last line:
the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1` (from a separate traced process, see traced.py).  Exits 1 when
any output check fails and 2 when the program cannot be imported.

End-to-end metrics (all lower is better):
  pass_s        median normalised pass time: `construct_s` on ext-n2 and
                prime, `verify_s` on verify
  pass_tail_s   highest pass-time percentile with >= 10 passes beyond it
                (`construct_tail_s` / `verify_tail_s`)
  report_bytes  canonical report bytes constructed (or verified) per pass
  peak_rss_mb   peak resident memory of this process; verify builds its
                reports in a child process, so this covers verification
  setup_s       median normalised set-up time: imports, warm-up and, for
                verify, building the reports
fail_frac (failed over attempted operations) is printed and carried by the
result's `attempted`/`failed`; it is 0 on a correct program, so it is no
metric a bound could be a share of.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import harness
from traced import metric_units

SETUP_REPEATS = {"construct": 21, "verify": 3}
TRACE_TIMEOUT_S = 150
NAMES = {"construct": ("construct_s", "construct_tail_s"), "verify": ("verify_s", "verify_tail_s")}
E2E_UNITS = {"pass_s": "s", "pass_tail_s": "s", "report_bytes": "bytes", "peak_rss_mb": "MB",
             "setup_s": "s"}


def run_traced(workload: str, seed: int) -> dict:
    """Run traced.py in its own process; returns its result object."""
    spans = os.path.join(harness.ROOT, ".bench_out", f"spans-{workload}.jsonl")
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced.py")
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed), "--spans", spans],
        stdout=subprocess.PIPE, text=True, timeout=TRACE_TIMEOUT_S, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "problems": [f"traced run exited {proc.returncode}"],
                "metrics": {}}
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    op = harness.WORKLOADS[args.workload][0]
    try:
        prep, setup_times = harness.timed_set_up(args.workload, args.seed, SETUP_REPEATS[op])
    except harness.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    checker = harness.Checker(prep)
    m = harness.measure(prep, args.seconds, checker)
    problems = prep.problems + checker.problems

    tail_s, tail_pct = harness.tail(m.norm_s)
    median_name, tail_name = NAMES[op]
    passes = len(m.norm_s)
    print(f"workload {args.workload}, seed {args.seed}: {passes} passes of "
          f"{len(prep.instances)} {op} operations")
    print(f"{median_name} {statistics.median(m.norm_s):.6f} s "
          f"(pass_s: median of {passes} normalised passes)")
    print(f"{tail_name} {tail_s:.6f} s (pass_tail_s: p{tail_pct:.0f} of {passes} passes, "
          f"{harness.TAIL_BEYOND} beyond it)")
    print(f"report_bytes {m.bytes_per_pass} bytes per pass")
    print(f"peak_rss_mb {harness.peak_rss_mb():.1f} MB")
    print(f"setup_s {statistics.median(setup_times):.6f} s (median of {len(setup_times)} set-ups)")
    print(f"raw wall median {statistics.median(m.wall_s):.6f} s, calibration loop median "
          f"{statistics.median(m.calib_s):.6f} s (nominal {harness.CALIB_NOMINAL_S} s)")
    print(f"fail_frac {checker.failed / checker.attempted:.6f} "
          f"({checker.failed} of {checker.attempted} operations)")
    for label, digest in checker.digests().items():
        print(f"digest {label} sha256:{digest}")

    if args.trace:
        traced = run_traced(args.workload, args.seed)
        problems += traced["problems"]
        metrics = dict(traced["metrics"])
        metrics["harness.wall_s"] = statistics.median(m.wall_s)
        metrics["harness.calib_s"] = statistics.median(m.calib_s)
        if "attribution" in traced:
            print("attribution " + json.dumps(traced["attribution"], sort_keys=True))
        units = metric_units()
        for name, unit in units.items():
            if name in metrics:
                print(f"{name} {metrics[name]} {unit}")
        result_metrics = {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        }
    else:
        values = {
            "pass_s": statistics.median(m.norm_s),
            "pass_tail_s": tail_s,
            "report_bytes": m.bytes_per_pass,
            "peak_rss_mb": harness.peak_rss_mb(),
            "setup_s": statistics.median(setup_times),
        }
        result_metrics = {n: {"value": values[n], "unit": u} for n, u in E2E_UNITS.items()}
    for problem in problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": result_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
