"""Golden digests: `construct` reports and `h1 --dump-basis` output pinned
byte for byte.

Reports are the regression oracle: a change that claims byte-identical
reports must keep every SHA-256 below.  The report digests are those of
schema v4, which ships the group by its generators and order and no H1
numbers; each inconsistency row is the one v3 shipped.  The instances are the ten family-a
ladder reports of `tests/test_verify_generating_set.py`, `zpxzp` p=3,
GF(17^2) n=2, the one field beyond the tables, and SL_2(F_3) given by a
`file:` spec, the first non-abelian group, each built
by the CLI with its default seed and written with `--out`.  The
Z1 and B1 bases that `h1 --dump-basis` prints in stacked non-identity
coordinates are pinned on three modules.
"""

import hashlib
import json

import pytest

from modcoh.cli import main
from modcoh.gf import field_new, field_to_json
from modcoh.jsonutil import canonical_json
from modcoh.linalg import Matrix, matrix_to_json

GOLDEN = {
    "GF(2^2) n=2": (["--p", "2", "--k", "2", "--n", "2"],
                    "c570ef0cb094c8ccf9293abc793be0de663a95c02e9ee6c64d105915a40f8ec0"),
    "GF(2^3) n=2": (["--p", "2", "--k", "3", "--n", "2"],
                    "99288b57bf98cc7346f0c4fa11569397085363781e023ff4283821c5535ea914"),
    "GF(2^4) n=2": (["--p", "2", "--k", "4", "--n", "2"],
                    "b111e8345d8617139152603e43362a15d3b8c53dc065741eb1f30394777ff696"),
    "GF(3^2) n=2": (["--p", "3", "--k", "2", "--n", "2"],
                    "38449132fae6b03a72297729114d4f94c2262dc56876ef50f95f625b85aa2592"),
    "GF(3^1) n=2": (["--p", "3", "--n", "2"],
                    "c5f9240acf05fc3cbc70194d71503635812df567c599859311afcdd98e46a9e0"),
    "GF(5^1) n=2": (["--p", "5", "--n", "2"],
                    "062b9ee8f778c05c6c8147d8035da65f096ba8a75d4eed150b716a21a8856968"),
    "GF(7^1) n=2": (["--p", "7", "--n", "2"],
                    "9c16017d6289187cf424e5c0157c9133ce79b64327517d7794634eb3699f17b3"),
    "GF(3^1) n=3": (["--p", "3", "--n", "3"],
                    "faff0d6e2298c24eb879c881046289bad48e496bd456528ce97b235366a6e2bd"),
    "GF(2^2) n=3": (["--p", "2", "--k", "2", "--n", "3"],
                    "ae5eabb2cce75dc74aa57aa6ff423681fd0de31ef6fa97dcdd19a52869c7ce18"),
    "GF(2^3) n=3": (["--p", "2", "--k", "3", "--n", "3"],
                    "62a01b5c43725b8524a61492fb3ce812c7c78e7f2d378470b65a5e2682087349"),
    "zpxzp p=3": (["--group", "zpxzp", "--p", "3"],
                  "f007bae72f25317bb4beedfb6ee8dd1609f29ac1b06e5eb1aa513d0ca91a613c"),
    # GF(17^2) = F_17[x]/(x^2 - 3), q > 256: the digit-loop kind of field
    "GF(17^2) n=2": (["--p", "17", "--k", "2", "--modulus", "14,0,1", "--n", "2"],
                     "4d47fb1b377a05549626895e790a8d2781f6e86b37892dcb1df8b929a3302d2b"),
    # [[1,1],[0,1]], -I and [[1,0],[1,1]]: |G| = 24, |S'| = 3
    "SL_2(F_3) file": (["--p", "3", "--group", "file:{sl2_f3}"],
                       "c021065ed8518b56d29c0a3b1855c102b59b6fc55fcb778e60892dcf3a9eb50e"),
}


# the SHA-256 of each canonical inconsistency row, unchanged since schema v3
INCONSISTENCY_ROWS = {
    "GF(2^2) n=2":
        "1e1e1991f8a145e4676b7e43d07e1884ffa4a3f9e9cb8281bc9e972453db0d3e",
    "GF(2^3) n=2":
        "de97e7f6e84999acc013835196788c83046205a78ab92650999c2b8663a4ab85",
    "GF(2^4) n=2":
        "7087f781e935715ce510f3d9a8191912e2ac733d4ea3251f6652fd75d162f0c0",
    "GF(3^2) n=2":
        "f819f6dbf4f54b644dc887e6f80c774eb11fd9bffca4870789ce850ae18138e2",
    "GF(3^1) n=2":
        "4be04076b767f5f1257876fd50e18e9e9788b6d7a57b1a132cfc0a9503aac66e",
    "GF(5^1) n=2":
        "5ec78391104ae81fb2a615dacf99a386c0cc9c7f9b19dcd5803d93506aa8a623",
    "GF(7^1) n=2":
        "043d9cc8d8e13ae8f45e6915f60974328c11481934791040d730e3cc2313f3c6",
    "GF(3^1) n=3":
        "229ad14ccc6f4c4a31f94232d3aa4df268108414fb833d405df551c0b49b7fcf",
    "GF(2^2) n=3":
        "ef1d4c3fa739726e9faffd1c680b5a1eb1887b43638982dcf0a48764fecb5871",
    "GF(2^3) n=3":
        "d0033f83bc4515191c023342eef0a34e22373c252257a6cc94646ac6c76efdf2",
    "zpxzp p=3":
        "e4a89f521c89d870f5a65f6e52632c5a1213bd406381fa71da7623f4f6b5004b",
    "GF(17^2) n=2":
        "c5714ed2939570641a56337ed3e2ed4c8f6df5c2d4ea7fd7197fa31adaab5c93",
    "SL_2(F_3) file":
        "b6c6299ed5b786228c5b878b564d5c50e9fd6a0d1d572d066535b27723066216",
}


DUMP_BASIS = {
    "GF(2^2) u": (["--p", "2", "--k", "2", "--module", "u"],
                  "bfb48b01bcfb7b4485dd0d2b29f92fca8495eab80b1500c7fcb2410f8fb33017"),
    "GF(3^2) sym(3)": (["--p", "3", "--k", "2", "--module", "sym(3)"],
                       "df1c848c80574666f3fb24760c46f068994c5482044b4cef6bd59259fc987566"),
    "zpxzp p=3 u": (["--group", "zpxzp", "--p", "3", "--module", "u"],
                    "9ce851a900dab7d33f58dcfac9ad2a0c20532716dbc26db613ff2c5e574131bb"),
}


@pytest.mark.parametrize("label", list(DUMP_BASIS))
def test_dump_basis_matches_the_golden_digest(label, capsys):
    args, want = DUMP_BASIS[label]
    capsys.readouterr()
    assert main(["h1", *args, "--dump-basis"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want


@pytest.fixture
def sl2_f3(tmp_path):
    """The group spec file of SL_2(F_3) in GOLDEN."""
    F3 = field_new(3)
    spec = tmp_path / "sl2_f3.json"
    spec.write_text(json.dumps({
        "field": field_to_json(F3),
        "n": 2,
        "generators": [matrix_to_json(Matrix.from_rows(F3, g))
                       for g in ([[1, 1], [0, 1]], [[2, 0], [0, 2]], [[1, 0], [1, 1]])],
    }))
    return spec


@pytest.mark.parametrize("label", list(GOLDEN))
def test_report_bytes_match_the_golden_digest(label, tmp_path, sl2_f3):
    args, want = GOLDEN[label]
    args = [a.format(sl2_f3=sl2_f3) for a in args]
    out = tmp_path / "report.json"
    assert main(["construct", *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want
    row = json.loads(out.read_text())["payload"]["nonsplit_certificate"]["inconsistency_row"]
    assert hashlib.sha256(canonical_json(row).encode()).hexdigest() == INCONSISTENCY_ROWS[label]
