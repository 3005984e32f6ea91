"""Golden digests: `construct` reports and `h1 --dump-basis` output pinned
byte for byte.

Reports are the regression oracle: a change that claims byte-identical
reports must keep every SHA-256 below.  The instances are the ten family-a
ladder reports of `tests/test_verify_generating_set.py`, `zpxzp` p=3 and
SL_2(F_3) given by a `file:` spec, the first non-abelian group, each built
by the CLI with its default seed and written with `--out`.  The
Z1 and B1 bases that `h1 --dump-basis` prints in stacked non-identity
coordinates are pinned on three modules.
"""

import hashlib
import json

import pytest

from modcoh.cli import main
from modcoh.gf import field_new, field_to_json
from modcoh.linalg import Matrix, matrix_to_json

GOLDEN = {
    "GF(2^2) n=2": (["--p", "2", "--k", "2", "--n", "2"],
                    "6a4958f0087d581598cbe04b2038eaecf89de74bdde135664a5a74ff7e4d8ade"),
    "GF(2^3) n=2": (["--p", "2", "--k", "3", "--n", "2"],
                    "fb6368ee21b2490bedf223f4437b5f4630ebd4f56f45965c872df2af66670a92"),
    "GF(2^4) n=2": (["--p", "2", "--k", "4", "--n", "2"],
                    "a4d099ec4c78c7c223162dd273917bfebb499401da18cd5fa485301f7b916b6e"),
    "GF(3^2) n=2": (["--p", "3", "--k", "2", "--n", "2"],
                    "01617d1fbef4352f7281b706eb5fc9b292a2542444a7cc17a20f9632a47034ca"),
    "GF(3^1) n=2": (["--p", "3", "--n", "2"],
                    "87c3bf4ff1cefc8f58ece0399d4aa258f8969bf4bf8badf1e1e8924ca58fc810"),
    "GF(5^1) n=2": (["--p", "5", "--n", "2"],
                    "9c3e633a4c12e3c55730c5c79783f65c2a0d31c3c68f14c6a18046496e11f9fe"),
    "GF(7^1) n=2": (["--p", "7", "--n", "2"],
                    "3fa7cfaa9de3faff80faf1454b0f92449192e53e014c9dd693d76d0a5a989d8e"),
    "GF(3^1) n=3": (["--p", "3", "--n", "3"],
                    "48f6c63816b57f283ca4bcfb215fa95eaad7ba91c2cbfc4442cab987dc58a931"),
    "GF(2^2) n=3": (["--p", "2", "--k", "2", "--n", "3"],
                    "ffad71f1418d0e56e8bcee46a89ccd9da7184f459cf811d79b71d7a94531ae3b"),
    "GF(2^3) n=3": (["--p", "2", "--k", "3", "--n", "3"],
                    "137af934c9ee4f2b461f4edc6324bd4ddecd3cabb4532dae163b3ad5d0c3bef1"),
    "zpxzp p=3": (["--group", "zpxzp", "--p", "3"],
                  "7260db81bb7f0857a4e08767a8eeafcc04929dfca13dfd373b2f46091702955f"),
    # [[1,1],[0,1]], -I and [[1,0],[1,1]]: |G| = 24, |S'| = 3
    "SL_2(F_3) file": (["--p", "3", "--group", "file:{sl2_f3}"],
                       "f7f93edd3df557a5dff52ebab7dc728ac6f130c5131dc4b71196ac526113abd5"),
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
