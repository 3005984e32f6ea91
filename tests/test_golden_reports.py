"""Golden digests: `construct` reports and `h1 --dump-basis` output pinned
byte for byte.

Reports are the regression oracle: a change that claims byte-identical
reports must keep every SHA-256 below.  The report digests are those of
schema v6, which ships the group by its field, generators and order, the
order cap and dims, and each claim as an equation text: no H1 numbers, no
solver output, no seed, and nothing that n and p fix (the basis, iota,
the obstruction record) or that another field repeats.  So a report's
size does not grow with dim V.  The instances are the ten family-a
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
from modcoh.grp import paired_shear_family
from modcoh.jsonutil import canonical_json
from modcoh.linalg import Matrix, matrix_to_json
from modcoh.report import run_pipeline

GOLDEN = {
    "GF(2^2) n=2": (["--p", "2", "--k", "2", "--n", "2"],
                    "1e0cb2a0af7f87182bd8714d0c97f6fb68d775065541b731b1a2006d88ddf0bf"),
    "GF(2^3) n=2": (["--p", "2", "--k", "3", "--n", "2"],
                    "40ddecfead1e80b41c82a9590426699968a4140d28276caa802a699ca7402fef"),
    "GF(2^4) n=2": (["--p", "2", "--k", "4", "--n", "2"],
                    "1c62aef04031150f9108f7143a8239b241b95485d782944987d46b3a8a75bec9"),
    "GF(3^2) n=2": (["--p", "3", "--k", "2", "--n", "2"],
                    "d16362450170e2310610909c6c7c502b0ee54303a542118e41fa6a8071ca5575"),
    "GF(3^1) n=2": (["--p", "3", "--n", "2"],
                    "82fb7b8176d3121b12be33f8c916bc3c7b555b7f53a95d6a4b5291b8ed5204d8"),
    "GF(5^1) n=2": (["--p", "5", "--n", "2"],
                    "707a1971357569b8fe9f59b6a9269daf92bb87e06deb5e74a3c698b0a3221677"),
    "GF(7^1) n=2": (["--p", "7", "--n", "2"],
                    "8111da3f808f813150ecdd0e7978275bf76ee797252478918f3f025a9fed2ff4"),
    "GF(3^1) n=3": (["--p", "3", "--n", "3"],
                    "d513f7d3ec44c8441628d933a4a8f0e52e6023d73fb469cb31d755b1986a5bc2"),
    "GF(2^2) n=3": (["--p", "2", "--k", "2", "--n", "3"],
                    "9ea187c41e21346c0fe3d3f00316b5fa86a435abc5a87c8e92a8a1070fea849e"),
    "GF(2^3) n=3": (["--p", "2", "--k", "3", "--n", "3"],
                    "9b38ad1a7c06b0033d83b0c55f34c5932700d0800ff5b84af4c635c14f718afc"),
    "zpxzp p=3": (["--group", "zpxzp", "--p", "3"],
                  "dddcab55ac933485a7a4a28190703d47a500bfdc9b64224774870e28448a253a"),
    # GF(17^2) = F_17[x]/(x^2 - 3), q > 256: the digit-loop kind of field
    "GF(17^2) n=2": (["--p", "17", "--k", "2", "--modulus", "14,0,1", "--n", "2"],
                     "bcc2b6ccfc71d4de33e0ba9646ae5042d0bbdda3d534ffaf6d5ffe992be06129"),
    # [[1,1],[0,1]], -I and [[1,0],[1,1]]: |G| = 24, |S'| = 3
    "SL_2(F_3) file": (["--p", "3", "--group", "file:{sl2_f3}"],
                       "717d6c143da4f4385132e3833b6e694fa1e0110941fd7ac8442d7c4e17db563b"),
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
    assert len(out.read_bytes()) < 2_000


def test_report_size_does_not_grow_with_dim_v():
    # zpxzp p=3 has N = 20 and p=11 has N = 364; the two bodies differ only
    # in the generators' digits and the order
    sizes = [
        len(canonical_json(run_pipeline(paired_shear_family(field_new(p)),
                                        {"order_cap": 10_000}).report))
        for p in (3, 11)
    ]
    assert abs(sizes[1] - sizes[0]) < 64, sizes
