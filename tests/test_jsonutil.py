"""Canonical JSON: one encoder, built once, writes what json.dumps writes."""

import json

import pytest
from test_golden_reports import GOLDEN, sl2_f3  # noqa: F401 (sl2_f3 is a fixture)

from modcoh.cli import main
from modcoh.jsonutil import canonical_json


@pytest.mark.parametrize("label", list(GOLDEN))
def test_canonical_json_is_json_dumps_on_every_golden_report(label, tmp_path, sl2_f3):
    args, _ = GOLDEN[label]
    out = tmp_path / "report.json"
    assert main(["construct", *[a.format(sl2_f3=sl2_f3) for a in args], "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    want = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert canonical_json(report) == want and out.read_text() == want + "\n"
    payload = report["payload"]
    assert canonical_json(payload) == json.dumps(payload, sort_keys=True, separators=(",", ":"))


def test_a_cyclic_object_still_raises():
    # the encoder skips json's cycle bookkeeping, so a cycle ends in
    # RecursionError where json.dumps raises ValueError
    cycle = []
    cycle.append(cycle)
    for obj in (cycle, {"a": [1, {"b": cycle}]}):
        with pytest.raises((ValueError, RecursionError)):
            canonical_json(obj)
