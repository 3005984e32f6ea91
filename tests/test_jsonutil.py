"""Canonical JSON, one encoder built once, writes what json.dumps writes;
report files are replaced by rename unless they are no regular file."""

import json
import os
import stat
import threading

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


def test_out_onto_a_fifo_writes_through_it_and_keeps_it(tmp_path):
    # a path that is no regular file is written in place: the report reaches
    # the FIFO's reader, and the FIFO is not replaced by a renamed file
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    assert main(["construct", "--p", "3", "--out", str(fifo)]) == 0
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    report = json.loads(received[0])
    assert received[0] == canonical_json(report) + "\n"
    assert report["payload"]["group"]["order"] == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.fifo"]


def test_out_onto_a_regular_file_replaces_it_by_rename(tmp_path):
    out = tmp_path / "report.json"
    out.write_text("old")
    before = os.stat(out).st_ino
    assert main(["construct", "--p", "3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["payload"]["group"]["order"] == 3
    assert os.stat(out).st_ino != before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
