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
                    "7c2b16040f2184f6edef419ea75034c0d3d75cd4528513d301548c644fc23ffa"),
    "GF(2^3) n=2": (["--p", "2", "--k", "3", "--n", "2"],
                    "6b9688434b5e0f4dcefbe1447622695ace63d352df9cf31b57e7470b2b272eb3"),
    "GF(2^4) n=2": (["--p", "2", "--k", "4", "--n", "2"],
                    "cbc2fba71b18ed60b9ca3d42fac37ad62171fdb39c8337c12971ed112c14a1b0"),
    "GF(3^2) n=2": (["--p", "3", "--k", "2", "--n", "2"],
                    "fa52f98c97980fcb2b8e14d0b1bf11abedc241d3cb42b9fe9bedd7ad1e4c5c67"),
    "GF(3^1) n=2": (["--p", "3", "--n", "2"],
                    "f2679e06cbc9c3186252d4c4b56edbb52e074f6bead37d4e89f292aa2228d5ae"),
    "GF(5^1) n=2": (["--p", "5", "--n", "2"],
                    "7f019aa62134f0a67a30a22652c9d975d135bf89a5f7c284ce718e52ae640eff"),
    "GF(7^1) n=2": (["--p", "7", "--n", "2"],
                    "5ab0f56f5377ae068c8fd93a67f634bf7ba28249bc1937d4f022a6832acee698"),
    "GF(3^1) n=3": (["--p", "3", "--n", "3"],
                    "49a5f6f696875b684d475d5be3c53e9ed4de1f94d418a5f947c07e5a32ea38f1"),
    "GF(2^2) n=3": (["--p", "2", "--k", "2", "--n", "3"],
                    "705de0c67cdf65c0340f3ec3fc647723ba799b3fb5a6358078bc19c096814715"),
    "GF(2^3) n=3": (["--p", "2", "--k", "3", "--n", "3"],
                    "29c59d32fbb51b530385a9a9a91a1ab32c2f5520bab82a80eb043679d739e5f1"),
    "zpxzp p=3": (["--group", "zpxzp", "--p", "3"],
                  "2f75e6a78b76a2e4cfa797520c0719913af5609d134cd1d78e2e218dd70939de"),
}


@pytest.mark.parametrize("label", list(GOLDEN))
def test_report_bytes_match_the_golden_digest(label, tmp_path):
    args, want = GOLDEN[label]
    out = tmp_path / "report.json"
    assert main(["construct", *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want
