"""The traced run: per-layer self times, counts and microbenchmarks.

Runs in its own process, so no patch can leak into the timed run:

    python3 bench/traced.py --workload ext-n2 --seed 1 --spans .bench_out/spans.jsonl

It sets the workload up once, then alternates an untraced and a traced pass
ROUNDS times (their ratio is the tracer's overhead, measured on the same
code), times the gf/linalg microbenchmarks on every workload field, writes
the traced spans as JSON lines, and prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time

import harness
from tracer import TARGETS, Tracer, inclusive_time

ROUNDS = 3
GF_OPS = 2000
GF_REPEATS = 5
RREF_SHAPE = 128
MATMUL_SHAPE = 64
MATMUL_REPEATS = 3

SELF_TIME_SPANS = sorted({name for name, *_ in TARGETS} - {"rep.module"})
CALL_SPANS = ["linalg.elim", "linalg.matmul", "coh.z1_space", "coh.is_split"]
CELL_METRICS = {
    "linalg.elim_cells": "linalg.elim",
    "linalg.elementwise_cells": "linalg.elementwise",
    "linalg.kron_cells": "linalg.kron",
    "rep.entries_stored": "rep.module",
}
GF_METRICS = ["add", "sub", "neg", "mul"]


def field_tag(p: int, k: int) -> str:
    return f"q{p ** k}"


def metric_units() -> dict[str, str]:
    """Every per-layer metric this run prints, with its unit."""
    units = {}
    for op in GF_METRICS:
        for p, k in harness.FIELDS:
            units[f"gf.{op}_ns.{field_tag(p, k)}"] = "ns"
    for p, k in harness.FIELDS:
        units[f"linalg.rref_ms.{field_tag(p, k)}"] = "ms"
        units[f"linalg.matmul_ms.{field_tag(p, k)}"] = "ms"
    for name in SELF_TIME_SPANS:
        units[f"{name}_s"] = "s"
    for name in CALL_SPANS:
        units[f"{name}_calls"] = "count"
    for metric in CELL_METRICS:
        units[metric] = "count"
    units["verify.checks"] = "count"
    units["trace.overhead_frac"] = "fraction"
    units["harness.wall_s"] = "s"
    units["harness.calib_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# microbenchmarks
# ---------------------------------------------------------------------------


def _ns_per_op(fn, args: list[tuple]) -> float:
    times = []
    for _ in range(GF_REPEATS):
        t0 = time.perf_counter()
        for a in args:
            fn(*a)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / len(args) * 1e9


def microbenchmarks(pkg, seed: int) -> dict[str, float]:
    rng = random.Random(seed)
    out = {}
    for p, k in harness.FIELDS:
        ctx = pkg.gf.field_new(p, k)
        tag = field_tag(p, k)
        pairs = [(rng.randrange(ctx.q), rng.randrange(ctx.q)) for _ in range(GF_OPS)]
        out[f"gf.add_ns.{tag}"] = _ns_per_op(ctx.add_i, pairs)
        out[f"gf.sub_ns.{tag}"] = _ns_per_op(ctx.sub_i, pairs)
        out[f"gf.neg_ns.{tag}"] = _ns_per_op(ctx.neg_i, [(a,) for a, _ in pairs])
        out[f"gf.mul_ns.{tag}"] = _ns_per_op(ctx.mul_i, pairs)

        def dense(n):
            return pkg.linalg.Matrix(ctx, n, n, [rng.randrange(ctx.q) for _ in range(n * n)])

        a = dense(RREF_SHAPE)
        t0 = time.perf_counter()
        pkg.linalg.rref(a)
        out[f"linalg.rref_ms.{tag}"] = (time.perf_counter() - t0) * 1e3
        b, c = dense(MATMUL_SHAPE), dense(MATMUL_SHAPE)
        times = []
        for _ in range(MATMUL_REPEATS):
            t0 = time.perf_counter()
            b @ c
            times.append(time.perf_counter() - t0)
        out[f"linalg.matmul_ms.{tag}"] = statistics.median(times) * 1e3
    return out


# ---------------------------------------------------------------------------
# the traced passes
# ---------------------------------------------------------------------------


def traced_pass(tracer: Tracer):
    """A pass with one root span per operation, under the installed patches."""

    def run(prep, order):
        outputs = {}
        t0 = time.perf_counter()
        for inst in order:
            idx = tracer.open(f"op:{inst.label}")
            try:
                outputs[inst] = prep.run(inst)
            finally:
                tracer.close(idx)
        return time.perf_counter() - t0, outputs

    return run


def _roots(spans: list[list]) -> list[int]:
    root = []
    for i, (_, _, _, parent) in enumerate(spans):
        root.append(i if parent < 0 else root[parent])
    return root


def attribution(name: str, spans: list[list], passes: int) -> dict:
    """Shares of traced operation time, and Z1 calls per instance and pass."""
    op_time = sum(e - s for n, s, e, parent in spans if parent < 0)
    roots = _roots(spans)
    z1_by_root: dict[str, int] = {}
    for i, (n, *_rest) in enumerate(spans):
        if n == "coh.z1_space":
            label = spans[roots[i]][0][len("op:"):]
            z1_by_root[label] = z1_by_root.get(label, 0) + 1
    shares = {
        key: inclusive_time(spans, names) / op_time
        for key, names in [
            ("z1_space", {"coh.z1_space"}),
            ("tensor_witness", {"build.tensor_witness"}),
            ("elim", {"linalg.elim"}),
        ]
    }
    z1_calls = {label: count // passes for label, count in sorted(z1_by_root.items())}
    if name == "ext-n2":
        p2 = [i.label for i in harness.WORKLOADS[name][1] if i.p == 2]
        holds = shares["z1_space"] > 0.5 and all(z1_calls.get(lb) == 4 for lb in p2)
        claim = "coh.z1_space is most of ext-n2, 4 calls per p=2 instance"
    elif name == "prime":
        holds = shares["tensor_witness"] > 0.5
        claim = "build.tensor_witness is most of prime"
    else:
        holds = shares["elim"] < 0.01
        claim = "verify does (almost) no elimination"
    return {"share": shares, "z1_calls_per_instance": z1_calls,
            "claim": claim, "holds": holds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", required=True, help="JSON-lines file for the spans")
    args = parser.parse_args(argv)

    prep = harness.set_up(args.workload, args.seed)
    problems = list(prep.problems)
    tracer = Tracer()
    plain, traced = [], []
    rng = random.Random(args.seed)
    cal = harness.time_calibration()

    def timed(pass_fn, order):
        nonlocal cal
        wall, outputs = pass_fn(prep, order)
        cal_after = harness.time_calibration()
        norm, cal = harness.normalise(wall, cal, cal_after), cal_after
        return norm, outputs

    for _ in range(ROUNDS):
        order = list(prep.instances)
        rng.shuffle(order)
        plain.append(timed(harness.run_pass, order))
        tracer.install()
        try:
            traced.append(timed(traced_pass(tracer), order))
        finally:
            tracer.restore()
    for (_, want), (_, got) in zip(plain, traced):
        for inst in prep.instances:
            if want[inst] != got[inst]:
                problems.append(f"{inst.label}: traced output differs from untraced")

    spans = tracer.spans
    selfs = tracer.self_times()
    calls = tracer.calls()
    metrics = {f"{n}_s": selfs.get(n, 0.0) / ROUNDS for n in SELF_TIME_SPANS}
    metrics.update({f"{n}_calls": calls.get(n, 0) // ROUNDS for n in CALL_SPANS})
    metrics.update({m: tracer.cells.get(n, 0) // ROUNDS for m, n in CELL_METRICS.items()})
    metrics["verify.checks"] = (
        sum(traced[0][1].values()) if prep.op == "verify" else 0
    )
    metrics["trace.overhead_frac"] = (
        statistics.median(t for t, _ in traced) / statistics.median(t for t, _ in plain) - 1
    )
    metrics.update(microbenchmarks(prep.pkg, args.seed))

    os.makedirs(os.path.dirname(os.path.abspath(args.spans)), exist_ok=True)
    with open(args.spans, "w") as handle:
        for i, (name, start, end, parent) in enumerate(spans):
            handle.write(json.dumps([i, parent, name, start, end]) + "\n")
    print(json.dumps({
        "correct": not problems,
        "problems": problems,
        "metrics": metrics,
        "attribution": attribution(args.workload, spans, ROUNDS),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
