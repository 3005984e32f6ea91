"""Golden digests: `construct` reports and `h1 --dump-basis` output pinned
byte for byte.

Reports are the regression oracle: a change that claims byte-identical
reports must keep every SHA-256 below.  The report digests are those of
schema v5, which ships the group by its generators and order, no H1
numbers and no solver output: the non-split record is its verdict and its
equation text, and params carry no seed.  The instances are the ten family-a
ladder reports of `tests/test_verify_generating_set.py`, `zpxzp` p=3,
GF(17^2) n=2, the one field beyond the tables, and SL_2(F_3) given by a
`file:` spec, the first non-abelian group, each built
by the CLI and written with `--out`.  The
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
                    "52a9e52c4fb35e1bc29b30d34e23ecce4dced02e9e54841ad24967fdece78d59"),
    "GF(2^3) n=2": (["--p", "2", "--k", "3", "--n", "2"],
                    "31b66ed933fe23e9c69b7a04ad5e6f4421750e9bcae2e2fb351b10fe56fb71ae"),
    "GF(2^4) n=2": (["--p", "2", "--k", "4", "--n", "2"],
                    "dad63cd2ff1b56dba52536df156f7db39563dfac23bdd98e2bdf779eb7ef5ce9"),
    "GF(3^2) n=2": (["--p", "3", "--k", "2", "--n", "2"],
                    "bd7d6c753460d53721a07cc440d45b174fed731aabb83bb70aef4227474d8f57"),
    "GF(3^1) n=2": (["--p", "3", "--n", "2"],
                    "dd04e7234881af1ef718d7d8863afecdb20f5b002d7d672dbd78b5f617e3316f"),
    "GF(5^1) n=2": (["--p", "5", "--n", "2"],
                    "e0547bfb61ba71d61a363232c9bc17bcbdece9c85e914ed8662d9c9ee6c1301a"),
    "GF(7^1) n=2": (["--p", "7", "--n", "2"],
                    "62b32954d2551daff69ee80c0b6b9511987220656b8f9e43dff273136ae0be3a"),
    "GF(3^1) n=3": (["--p", "3", "--n", "3"],
                    "58b180203fae669f8de71b365cd8bb5bcafc009dfc123395647a0ee229a28581"),
    "GF(2^2) n=3": (["--p", "2", "--k", "2", "--n", "3"],
                    "7896f5b56b541d006b3fd15c79de2bd41e0730a74480eaabc650766dc3f5563a"),
    "GF(2^3) n=3": (["--p", "2", "--k", "3", "--n", "3"],
                    "e14a165511fcbd93818225d0d531a7b1a902ed73180446954c402a0f59445678"),
    "zpxzp p=3": (["--group", "zpxzp", "--p", "3"],
                  "73043c8d5b33376207cf8be0e13cad9de5a02cb71df708f3830603107d91e046"),
    # GF(17^2) = F_17[x]/(x^2 - 3), q > 256: the digit-loop kind of field
    "GF(17^2) n=2": (["--p", "17", "--k", "2", "--modulus", "14,0,1", "--n", "2"],
                     "3f8912a1cd3e5a75df785baf3561e23e4a24900c117ec59d1acefa6620cdd51d"),
    # [[1,1],[0,1]], -I and [[1,0],[1,1]]: |G| = 24, |S'| = 3
    "SL_2(F_3) file": (["--p", "3", "--group", "file:{sl2_f3}"],
                       "84ef2daffe198d93f4c0ab5578a2c81dfd200a1264f431993abcb9c9154e3401"),
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
