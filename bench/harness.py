"""Workloads, set-up, timed passes and output checks of the modcoh benchmark.

A workload is a fixed list of instances; one *pass* runs every instance
once, in an order the workload seed shuffles.  Construct workloads make the
calls `modcoh construct` makes (build_group -> run_pipeline ->
canonical_json); the verify workload makes the calls `modcoh verify` makes
(json.loads -> verify_report) on reports built during set-up.  Reports stay
in memory.

Pass times are normalised: each pass is divided by a fixed pure-Python
calibration loop timed just before and after it, and scaled back to seconds
by the loop's nominal time.  On a shared two-core machine raw wall medians of
the same code drifted by up to 46% between runs; the normalised medians
stayed within 8% (numbers in baseline.json).
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import random
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from math import comb

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# nominal time of one calibration loop: about its fastest time on an
# uncontended 2-core x86-64 container under CPython 3.11; it only sets the scale
CALIB_NOMINAL_S = 0.05
CALIB_ROUNDS = 8000
# the tail rule needs at least ten passes beyond the reported one
MIN_PASSES = 11
TAIL_BEYOND = 10

parse_report = json.loads


@dataclass(frozen=True)
class Instance:
    """One `family-a` construct job: GF(p^k), n x n matrices."""

    p: int
    k: int
    n: int

    @property
    def label(self) -> str:
        return f"q{self.p ** self.k}n{self.n}"

    @property
    def dim_x(self) -> int:
        n, p = self.n, self.p
        return 4 * n * (comb(n + p - 1, p) - n) + 3


EXT_N2 = [Instance(2, 2, 2), Instance(2, 3, 2), Instance(2, 4, 2), Instance(3, 2, 2)]
PRIME = [Instance(3, 1, 2), Instance(5, 1, 2), Instance(7, 1, 2), Instance(3, 1, 3)]

# name -> (operation, instances).  Why each was chosen:
# - ext-n2: k > 1 field arithmetic; Z1 (run four times per p=2 instance) is
#   nearly all of it, the tensor stage is at most 20-dim.  GF(9) keeps the
#   odd-p, k > 1 path apart from characteristic 2.
# - prime: k = 1, so no digit loops; the dense 156-462 dim tensor stage is
#   nearly all of it and Z1 is at most ~11%.  A gf(k>1) or Z1 change should
#   not move it.
# - verify: the eight reports above plus GF(4) n=3 and GF(8) n=3, built in
#   set-up; verification uses gf/linalg as products (JSON parsing, kron - I,
#   matmul), not elimination.  A witness-form or schema change shows here.
WORKLOADS: dict[str, tuple[str, list[Instance]]] = {
    "ext-n2": ("construct", EXT_N2),
    "prime": ("construct", PRIME),
    "verify": ("verify", EXT_N2 + PRIME + [Instance(2, 2, 3), Instance(2, 3, 3)]),
}

# every field of every workload; the microbenchmarks run on all of them
FIELDS = [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)]


class SetupError(RuntimeError):
    """The program under test cannot be imported from this checkout."""


# ---------------------------------------------------------------------------
# the program under test
# ---------------------------------------------------------------------------


def import_modcoh(fresh: bool = False):
    """Import modcoh from this checkout's src/; `fresh` re-executes its modules."""
    if not os.path.isdir(os.path.join(SRC, "modcoh")):
        raise SetupError(f"no modcoh package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if fresh:
        for name in [m for m in sys.modules if m == "modcoh" or m.startswith("modcoh.")]:
            del sys.modules[name]
    try:
        pkg = importlib.import_module("modcoh")
        importlib.import_module("modcoh.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import modcoh: {exc}") from exc
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise SetupError(f"modcoh resolved to {pkg.__file__}, not under {SRC}")
    return pkg


def construct(pkg, inst: Instance, seed: int) -> str:
    """The calls of `modcoh construct --group family-a`, output kept in memory."""
    cli = pkg.cli
    spec = cli.JobSpec(p=inst.p, k=inst.k, n=inst.n, group="family-a", seed=seed)
    group = cli.build_group(spec)
    params = spec.to_dict()
    params.pop("out")
    if params["n"] is None:
        params["n"] = group.n
    result = cli.run_pipeline(group, params, seed=spec.seed)
    return cli.canonical_json(result.report)


def verify(pkg, text: str) -> int:
    """The calls of `modcoh verify`, on an in-memory report."""
    return pkg.verify.verify_report(parse_report(text))


def report_problem(inst: Instance, text: str) -> str | None:
    """Checks a constructed report needs besides verify_report; None when it passes."""
    try:
        payload = json.loads(text)["payload"]
        dim_x = payload["dims"]["X"]
        verdict = payload["nonsplit_certificate"]["verdict"]
    except (KeyError, TypeError, ValueError) as exc:
        return f"{inst.label}: report lacks dims.X or the verdict: {exc!r}"
    if dim_x != inst.dim_x:
        return f"{inst.label}: dims.X = {dim_x}, formula gives {inst.dim_x}"
    if verdict != "NonSplit":
        return f"{inst.label}: non-split verdict is {verdict!r}"
    return None


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# calibration and summary statistics
# ---------------------------------------------------------------------------


def calibration_loop() -> int:
    """Fixed pure-Python work: modular axpy rows and base-p digit loops."""
    p = 3
    row = list(range(64))
    piv = [(7 * i) % 251 for i in range(64)]
    acc = 0
    for r in range(CALIB_ROUNDS):
        row = [(x - 5 * y) % 251 for x, y in zip(row, piv)]
        a, b, v, mult = r, r + 7, 0, 1
        for _ in range(4):
            v += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        acc += v + row[r & 63]
    return acc


def time_calibration() -> float:
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


def normalise(wall_s: float, calib_before_s: float, calib_after_s: float) -> float:
    """Wall time in units of the calibration loop, scaled to nominal seconds."""
    return wall_s * CALIB_NOMINAL_S / ((calib_before_s + calib_after_s) / 2)


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile).  Needs more than TAIL_BEYOND samples.
    """
    if len(samples) <= TAIL_BEYOND:
        raise ValueError(f"the tail needs more than {TAIL_BEYOND} samples, got {len(samples)}")
    xs = sorted(samples)
    i = len(xs) - TAIL_BEYOND - 1
    return xs[i], 100.0 * (i + 1) / len(xs)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# set-up and the timed loop
# ---------------------------------------------------------------------------


@dataclass
class Prepared:
    """A set-up workload: the program, and for `verify` the reports to check."""

    op: str
    instances: list[Instance]
    seed: int
    pkg: object
    reports: dict[Instance, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    build_wall_s: float = 0.0
    build_norm_s: float = 0.0

    def run(self, inst: Instance):
        if self.op == "construct":
            return construct(self.pkg, inst, self.seed)
        return verify(self.pkg, self.reports[inst])

    def bytes_per_pass(self, outputs: dict[Instance, object]) -> int:
        texts = outputs if self.op == "construct" else self.reports
        return sum(len(texts[i]) for i in self.instances)


def build_reports(name: str, seed: int) -> tuple[dict[str, str], float, float]:
    """Construct a workload's reports in a child process.

    Returns (label -> text, wall seconds, normalised seconds) of the child's
    import and constructs, each step normalised on its own.  The child keeps
    construction's memory peak out of this process's peak_rss_mb.  A failed
    construct is left out of the texts, so verifying it fails and is counted.
    """
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), name, str(seed)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False,
    )
    if proc.returncode != 0:
        last = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        raise SetupError(f"building the reports failed: {last[0]}")
    sys.stderr.write(proc.stderr)
    out = json.loads(proc.stdout)
    return out["reports"], out["wall_s"], out["norm_s"]


def set_up(name: str, seed: int) -> Prepared:
    """Import modcoh afresh, warm field tables and groups, build reports for verify."""
    op, instances = WORKLOADS[name]
    pkg = import_modcoh(fresh=True)
    prep = Prepared(op, list(instances), seed, pkg)
    for inst in instances:
        spec = pkg.cli.JobSpec(p=inst.p, k=inst.k, n=inst.n, seed=seed)
        pkg.cli.build_group(spec)
    if op == "verify":
        texts, prep.build_wall_s, prep.build_norm_s = build_reports(name, seed)
        for inst in instances:
            if inst.label not in texts:
                prep.problems.append(f"{inst.label}: construct failed in set-up")
                continue
            problem = report_problem(inst, texts[inst.label])
            if problem:
                prep.problems.append(problem)
            prep.reports[inst] = texts[inst.label]
    return prep


def timed_set_up(name: str, seed: int, repeats: int) -> tuple[Prepared, list[float]]:
    """Set up `repeats` times; returns the last set-up and each normalised time."""
    times = []
    prep = None
    cal_before = time_calibration()
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        prep = set_up(name, seed)
        wall = time.perf_counter() - t0
        cal_after = time_calibration()
        # the reports were built, and their time normalised, in a child process
        own = normalise(wall - prep.build_wall_s, cal_before, cal_after)
        times.append(own + prep.build_norm_s)
        cal_before = cal_after
    return prep, times


@dataclass
class Checker:
    """Output checks over every pass; counts attempted and failed operations."""

    prep: Prepared
    attempted: int = 0
    failed: int = 0
    first: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, inst: Instance, out) -> None:
        self.attempted += 1
        if isinstance(out, BaseException):
            self.fail(f"{inst.label}: {type(out).__name__}: {out}")
            return
        if inst in self.first:
            if out != self.first[inst]:
                self.fail(f"{inst.label}: output differs from the first pass")
            return
        if self.prep.op == "construct":
            problem = report_problem(inst, out)
            if problem is None:
                try:
                    verify(self.prep.pkg, out)
                except self.prep.pkg.ModcohError as exc:
                    problem = f"{inst.label}: verify_report rejected the report: {exc}"
        else:
            problem = None if isinstance(out, int) and out > 0 else f"{inst.label}: {out!r} checks"
        if problem:
            self.fail(problem)
        self.first[inst] = out

    def digests(self) -> dict[str, str]:
        texts = self.first if self.prep.op == "construct" else self.prep.reports
        return {i.label: sha256(texts[i]) for i in self.prep.instances if i in texts}


def run_pass(prep: Prepared, order: list[Instance]) -> tuple[float, dict]:
    """One pass in the given order; returns (wall seconds, outputs by instance)."""
    outputs = {}
    t0 = time.perf_counter()
    for inst in order:
        try:
            outputs[inst] = prep.run(inst)
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            outputs[inst] = exc
    return time.perf_counter() - t0, outputs


@dataclass
class Measurement:
    norm_s: list[float]
    wall_s: list[float]
    calib_s: list[float]
    bytes_per_pass: int


def measure(prep: Prepared, seconds: float, checker: Checker) -> Measurement:
    """Timed passes for `seconds` (and at least MIN_PASSES), each normalised."""
    rng = random.Random(prep.seed)
    m = Measurement([], [], [], 0)
    cal_before = time_calibration()
    t_end = time.perf_counter() + seconds
    while len(m.norm_s) < MIN_PASSES or time.perf_counter() < t_end:
        order = list(prep.instances)
        rng.shuffle(order)
        gc.collect()
        wall, outputs = run_pass(prep, order)
        cal_after = time_calibration()
        m.norm_s.append(normalise(wall, cal_before, cal_after))
        m.wall_s.append(wall)
        m.calib_s.append((cal_before + cal_after) / 2)
        cal_before = cal_after
        for inst in prep.instances:
            checker.check(inst, outputs[inst])
        if not any(isinstance(o, BaseException) for o in outputs.values()):
            m.bytes_per_pass = prep.bytes_per_pass(outputs)
    return m


class StepTimer:
    """Times steps one at a time, each normalised by the calibration loops around it."""

    def __init__(self):
        self.wall_s = 0.0
        self.norm_s = 0.0
        self._cal = time_calibration()

    def time(self, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            wall = time.perf_counter() - t0
            cal = time_calibration()
            self.wall_s += wall
            self.norm_s += normalise(wall, self._cal, cal)
            self._cal = cal


def _construct_all(name: str, seed: int) -> dict:
    """The child of build_reports: every construct of a workload, each timed."""
    timer = StepTimer()
    pkg = timer.time(import_modcoh)
    texts = {}
    for inst in WORKLOADS[name][1]:
        try:
            texts[inst.label] = timer.time(construct, pkg, inst, seed)
        except Exception:  # the missing report fails verification in the parent
            traceback.print_exc(file=sys.stderr)
    return {"reports": texts, "wall_s": timer.wall_s, "norm_s": timer.norm_s}


if __name__ == "__main__":
    print(json.dumps(_construct_all(sys.argv[1], int(sys.argv[2]))))
