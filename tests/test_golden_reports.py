"""Golden report digests: `construct` output pinned byte for byte.

Reports are the regression oracle: a change that claims byte-identical
reports must keep every SHA-256 below.  The instances are the ten family-a
ladder reports of `tests/test_verify_generating_set.py` and `zpxzp` p=3,
each built by the CLI with its default seed and written with `--out`.
"""

import hashlib

import pytest

from modcoh.cli import main

GOLDEN = {
    "GF(2^2) n=2": (["--p", "2", "--k", "2", "--n", "2"],
                    "ff088981349e6a8c2272c58493039c9b03d21c6fd909ff787c65aacb1b8b735a"),
    "GF(2^3) n=2": (["--p", "2", "--k", "3", "--n", "2"],
                    "93b39932e64cafe207e36c8a5c3ee2bf24159c4860007c24d69aae5249638ef2"),
    "GF(2^4) n=2": (["--p", "2", "--k", "4", "--n", "2"],
                    "6b44c065a2c7fe5183d5d9bc0e744c7f583fbf8b5a05354e5ae331f7851332bc"),
    "GF(3^2) n=2": (["--p", "3", "--k", "2", "--n", "2"],
                    "0cf6465d6eb5611dc8ba12417ad49522c035c2b729603dc0b2d866afa2a2de4e"),
    "GF(3^1) n=2": (["--p", "3", "--n", "2"],
                    "7d8aee8859fb4a0d9ab52aa93eaed4e8d3d14f651ef8c3a584507ac859bda12d"),
    "GF(5^1) n=2": (["--p", "5", "--n", "2"],
                    "5ed6793d1b2e9305aa7403c0d31a3d7ab1f1b547ec3a3c08a3d179c024cdfb22"),
    "GF(7^1) n=2": (["--p", "7", "--n", "2"],
                    "d809a2c2a5fadda4bd47d965d3698b1c1e2c1065e9d66de950c1eb4e4cc258e4"),
    "GF(3^1) n=3": (["--p", "3", "--n", "3"],
                    "a174a83a7dc82ac30243cae6f175bf6deb435729aacb5fadb4783f6961ce64f2"),
    "GF(2^2) n=3": (["--p", "2", "--k", "2", "--n", "3"],
                    "e8d24a2aa803249d19689baaba854707cce5f0b571fc26625e87ec9c664b2d39"),
    "GF(2^3) n=3": (["--p", "2", "--k", "3", "--n", "3"],
                    "e41f133b295052dbee1e3391a65bb41f2459790451e1b3b2729d9777e3ee065a"),
    "zpxzp p=3": (["--group", "zpxzp", "--p", "3"],
                  "9472746c0e778769faf6de94d46198ca462e6e7713904f9093c8ac00fda521ea"),
}


@pytest.mark.parametrize("label", list(GOLDEN))
def test_report_bytes_match_the_golden_digest(label, tmp_path):
    args, want = GOLDEN[label]
    out = tmp_path / "report.json"
    assert main(["construct", *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want
