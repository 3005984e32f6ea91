"""Record a baseline: repeated runs, their spreads, the traced run, reach checks.

    python3 bench/record.py --out bench/baseline.json

Runs bench/run.py once per seed on every workload of BENCHMARK.json, then
once traced per workload, then the documented recipes that do not complete
(untimed reach checks, kept out of every workload so that the change which
makes them complete does not read as a slowdown).  For each end-to-end
metric it reports the median, the quartiles and their distance as a share
of the median, against a third of the metric's bound.  Takes about
SEEDS x workloads x (run_seconds + set-up) seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

import harness

SEEDS = 10
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

# documented recipes that stop today; each entry: (label, argv after `modcoh`)
REACH_CHECKS = [
    ("zpxzp-p3", ["construct", "--group", "zpxzp", "--p", "3", "--out", "-"]),
    ("zpxzp-p5", ["construct", "--group", "zpxzp", "--p", "5", "--out", "-"]),
]

# drift that made the timings normalised: raw wall medians of three
# 30-pass runs of the same code on a shared 2-core machine, and the range of
# the same runs' normalised medians (in units of an earlier calibration loop)
CALIBRATION_DRIFT = {
    "ext-n2": {"raw_wall_median_s": [1.17, 1.49, 1.71], "normalised_median_range": [61.5, 66.1],
               "normalised_spread": "<= 8%"},
    "prime": {"raw_wall_median_s": [1.04, 1.05, 1.43], "normalised_median_range": [49.6, 52.3],
              "normalised_spread": "<= 6%"},
}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=harness.ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    result["exit_code"] = proc.returncode
    result["elapsed_s"] = time.perf_counter() - t0
    result["lines"] = lines[:-1]
    return result


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0,
            "values": values}


def reach_check(argv: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=harness.SRC)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "modcoh.cli", *argv], cwd=harness.ROOT, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=600, check=False)
    stderr = proc.stderr.strip().splitlines()
    return {"command": "modcoh " + " ".join(argv), "exit_code": proc.returncode,
            "elapsed_s": round(time.perf_counter() - t0, 3),
            "message": stderr[-1] if stderr else ""}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "machine": platform.machine()},
        "run_seconds": seconds,
        "calibration": {"nominal_s": harness.CALIB_NOMINAL_S,
                        "loop": "harness.calibration_loop",
                        "drift_before_normalising": CALIBRATION_DRIFT},
        "workloads": {},
        "reach_checks": {},
    }
    steady = True
    for w in spec["workloads"]:
        name = w["name"]
        runs = [run_once(name, seed, seconds, 0) for seed in range(1, SEEDS + 1)]
        entry = {"why": w["why"],
                 "instances": [i.label for i in harness.WORKLOADS[name][1]],
                 "all_correct": all(r.get("correct") and r["exit_code"] == 0 for r in runs),
                 "max_elapsed_s": round(max(r["elapsed_s"] for r in runs), 1),
                 "end_to_end": {}}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs if "metrics" in r]
            stats = spread(values)
            stats["bound"] = bound
            stats["steady"] = stats["spread"] < bound / 3
            steady &= stats["steady"]
            entry["end_to_end"][metric] = stats
            print(f"{name:8s} {metric:14s} median {stats['median']:.6g} "
                  f"spread {stats['spread']:.4f} bound {bound} steady {stats['steady']}")
        raw = [float(m.group(1)) for r in runs for line in r["lines"]
               if (m := re.match(r"raw wall median ([0-9.]+) s", line))]
        entry["raw_wall_median_s"] = spread(raw) if len(raw) > 1 else raw
        entry["digests_seed_1"] = dict(
            line.split()[1:3] for line in runs[0]["lines"] if line.startswith("digest ")
        )
        traced = run_once(name, 1, seconds, 1)
        entry["trace_seed_1"] = {
            "correct": traced.get("correct"),
            "metrics": {k: v["value"] for k, v in traced.get("metrics", {}).items()},
        }
        for line in traced["lines"]:
            if line.startswith("attribution "):
                entry["trace_seed_1"]["attribution"] = json.loads(line[len("attribution "):])
        out["workloads"][name] = entry
    for label, cmd in REACH_CHECKS:
        out["reach_checks"][label] = reach_check(cmd)
    out["steady"] = steady
    with open(args.out, "w") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"steady: {steady}; written {args.out}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
