"""Tests of the benchmark's own logic: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import harness
import run
import tracer
import traced


class FakeClock:
    """Returns the scripted times in order."""

    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_subtracts_direct_children():
    t = tracer.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    root = t.open("root")
    a = t.open("a")
    b = t.open("b")
    t.close(b)  # b: 2..3
    t.close(a)  # a: 1..4
    c = t.open("c")
    t.close(c)  # c: 5..9
    t.close(root)  # root: 0..10
    assert t.self_times() == {"root": 3, "a": 2, "b": 1, "c": 4}
    assert sum(t.self_times().values()) == 10


def test_self_time_sums_repeated_names_and_wrapped_calls():
    t = tracer.Tracer(clock=FakeClock([0, 1, 3, 4, 7, 8]))

    def leaf(x):
        return x + 1

    wrapped = t.wrap("leaf", leaf)
    outer = t.open("outer")
    assert wrapped(1) == 2  # 1..3
    assert wrapped(2) == 3  # 4..7
    t.close(outer)  # 0..8
    assert t.self_times() == {"outer": 3, "leaf": 5}
    assert t.calls() == {"outer": 1, "leaf": 2}


def test_inclusive_time_counts_nested_spans_once():
    spans = [["x", 0, 10, -1], ["x", 2, 5, 0], ["y", 11, 12, -1], ["x", 11.5, 11.75, 2]]
    assert tracer.inclusive_time(spans, {"x"}) == 10.25
    assert tracer.inclusive_time(spans, {"y"}) == 1


def test_tail_leaves_ten_samples_beyond():
    samples = [float(x) for x in range(30, 0, -1)]
    value, pct = harness.tail(samples)
    assert sum(1 for x in samples if x > value) == harness.TAIL_BEYOND
    assert value == 20.0 and pct == pytest.approx(200 / 3)
    assert harness.tail([float(x) for x in range(11)]) == (0.0, pytest.approx(100 / 11))
    with pytest.raises(ValueError):
        harness.tail([1.0] * 10)


def test_normalise_cancels_a_uniform_slowdown():
    c = harness.CALIB_NOMINAL_S
    assert harness.normalise(2.0, c, c) == pytest.approx(2.0)
    assert harness.normalise(3.0, 1.5 * c, 1.5 * c) == pytest.approx(2.0)
    assert harness.normalise(2.0, 0.5 * c, 1.5 * c) == pytest.approx(2.0)


def test_step_timer_normalises_each_step_by_its_own_calibration(monkeypatch):
    c = harness.CALIB_NOMINAL_S
    monkeypatch.setattr(harness, "time_calibration", FakeClock([c, 2 * c, 2 * c, c]))
    monkeypatch.setattr(harness.time, "perf_counter", FakeClock([0.0, 3.0, 10.0, 12.0, 20.0, 21.0]))
    timer = harness.StepTimer()
    assert timer.time(lambda: "a") == "a"  # 3 s at 1.5x slow -> 2 s
    assert timer.time(lambda: "b") == "b"  # 2 s at 2x slow -> 1 s
    with pytest.raises(KeyError):
        timer.time({}.__getitem__, "c")  # 1 s at 1.5x slow -> 2/3 s
    assert timer.wall_s == pytest.approx(6.0)
    assert timer.norm_s == pytest.approx(2.0 + 1.0 + 2 / 3)


def _namespaces(pkg):
    mods = {k: m for k, m in sys.modules.items() if k == "modcoh" or k.startswith("modcoh.")}
    classes = [pkg.linalg.Matrix, pkg.rep.GModule, pkg.coh.Cocycle]
    snap = {k: dict(vars(m)) for k, m in mods.items()}
    snap.update({c.__qualname__: dict(vars(c)) for c in classes})
    snap["harness"] = dict(vars(harness))
    return snap


def _changed(before, after):
    return sorted(
        f"{ns}.{key}" for ns in before for key in before[ns] if before[ns][key] is not after[ns][key]
    )


def test_wrappers_patch_every_import_site_and_restore_the_originals():
    pkg = harness.import_modcoh()
    original_z1 = pkg.coh.z1_space
    before = _namespaces(pkg)
    t = tracer.Tracer()
    t.install()
    try:
        during = _namespaces(pkg)
        changed = _changed(before, during)
        for site in ("modcoh.coh.z1_space", "modcoh.build.z1_space", "modcoh.cli.z1_space",
                     "modcoh.z1_space", "Matrix.__add__", "Cocycle.validate",
                     "modcoh.verify.kron", "harness.parse_report"):
            assert site in changed
        assert pkg.build.z1_space.__wrapped__ is original_z1
        group = pkg.grp.additive_family(pkg.gf.field_new(2, 2), n=2)
        module = pkg.build.resolve_module(group, "natural")
        pkg.cli.z1_space(module)
        pkg.build.z1_space(module)
    finally:
        t.restore()
    assert _changed(before, _namespaces(pkg)) == []
    assert t.calls()["coh.z1_space"] == 2
    assert t.calls()["linalg.elim"] >= 2
    assert t.cells["linalg.elim"] > 0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == traced.metric_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(harness.WORKLOADS)


def _prep():
    pkg = harness.import_modcoh()
    inst = harness.Instance(2, 2, 2)
    prep = harness.Prepared("construct", [inst], 0, pkg)
    return prep, inst, harness.construct(pkg, inst, 0)


def test_checker_counts_changed_and_wrong_reports():
    prep, inst, text = _prep()
    checker = harness.Checker(prep)
    checker.check(inst, text)
    checker.check(inst, text)
    assert (checker.attempted, checker.failed) == (2, 0)
    checker.check(inst, text + " ")
    checker.check(inst, RuntimeError("boom"))
    assert (checker.attempted, checker.failed) == (4, 2)

    report = json.loads(text)
    report["payload"]["dims"]["X"] += 1
    fresh = harness.Checker(prep)
    fresh.check(inst, json.dumps(report))
    assert fresh.failed == 1 and "dims.X" in fresh.problems[0]


def test_checker_runs_verify_report_on_new_reports():
    prep, inst, text = _prep()
    report = json.loads(text)
    report["payload"]["params"]["seed"] = 99  # digest no longer matches
    checker = harness.Checker(prep)
    checker.check(inst, json.dumps(report))
    assert checker.failed == 1 and "verify_report" in checker.problems[0]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "prime", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
