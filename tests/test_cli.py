"""CLI surface: exit codes, reports, verification, determinism."""

import json
import os
import subprocess
import sys
import time

import pytest

import modcoh
from modcoh.cli import JobSpec, main
from modcoh.errors import ModcohError
from modcoh.gf import field_to_json, field_new
from modcoh.grp import closure, group_to_json
from modcoh.linalg import Matrix, matrix_to_json


def run(argv):
    return main(argv)


def test_jobspec_round_trip():
    spec = JobSpec(p=3, k=1, n=2, group="family-a", order_cap=500, seed=7, out="x.json")
    assert JobSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(ModcohError):
        JobSpec.from_dict({"p": 2, "bogus": 1})
    with pytest.raises(ModcohError):
        JobSpec.from_dict({"k": 2})


@pytest.mark.parametrize("modulus", [None, [1, 1, 0, 0, 0, 0, 0, 1]])
def test_jobspec_to_dict_lists_the_fields_in_flag_order_and_copies_the_modulus(modulus):
    spec = JobSpec(p=2, k=7, modulus=modulus, n=2, seed=1, out="x.json")
    obj = spec.to_dict()
    expected = {"p": 2, "k": 7, "modulus": modulus, "n": 2, "group": "family-a",
                "order_cap": 10_000, "seed": 1, "out": "x.json"}
    assert obj == expected
    assert list(obj) == list(expected)
    if modulus is not None:
        obj["modulus"].append(5)
        assert spec.modulus == [1, 1, 0, 0, 0, 0, 0, 1]


# prints the modules loaded, after running the statement given, and the
# number of exec calls on source text, which is how generated code runs
STARTUP_PROBE = """
import builtins, sys
generated = []
exec_ = builtins.exec
def counting_exec(source, *args, **kwargs):
    if isinstance(source, str):
        generated.append(source)
    return exec_(source, *args, **kwargs)
builtins.exec = counting_exec
{}
modules = sorted(sys.modules)
import json
print(json.dumps([modules, len(generated)]))
"""


def _started(statement):
    src = os.path.dirname(os.path.dirname(os.path.abspath(modcoh.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", STARTUP_PROBE.format(statement)], env=env,
                         capture_output=True, text=True, check=True).stdout
    modules, generated = json.loads(out)
    return set(modules), generated


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # the records are plain classes: @dataclass would exec generated methods
    # on every import and load inspect in a new process
    bare, _ = _started("pass")
    loaded, generated = _started("import modcoh.cli")
    added = loaded - bare
    assert "modcoh.cli" in added and "modcoh.verify" in added
    assert not {"dataclasses", "inspect"} & added
    assert generated == 0


def test_construct_and_verify(tmp_path):
    out = tmp_path / "report.json"
    assert run(["construct", "--p", "2", "--k", "2", "--n", "2", "--out", str(out)]) == 0
    assert run(["verify", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["payload"]["dims"]["X"] == 11
    assert report["payload"]["nonsplit_certificate"]["verdict"] == "NonSplit"
    assert report["payload"]["toy"] == {
        "equation": "S^2(s) == [[U(s), g_s], [0, 1]] for every element"
    }


def test_construct_char3(tmp_path):
    out = tmp_path / "report3.json"
    assert run(["construct", "--p", "3", "--n", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["payload"]["dims"]["X"] == 19
    assert report["payload"]["toy"] is None
    assert run(["verify", str(out)]) == 0


def test_hypothesis_exit_code(tmp_path):
    assert run(["construct", "--p", "2", "--k", "1", "--out", str(tmp_path / "r.json")]) == 2


def test_input_error_exit_codes(tmp_path):
    assert run(["construct", "--p", "4", "--out", str(tmp_path / "r.json")]) == 1
    assert run(["construct", "--out", str(tmp_path / "r.json")]) == 1  # missing --p
    assert run(["verify", str(tmp_path / "missing.json")]) == 1
    with pytest.raises(SystemExit) as exc:
        run(["construct", "--p", "notanumber"])
    assert exc.value.code == 1


@pytest.mark.parametrize("depth", [65, 600, 1200])
def test_deeply_nested_recipe_is_one_error_line(depth, capsys):
    # 600 nested duals once overflowed the stack in the module actions, and
    # 1200 in the recipe parser
    recipe = "dual(" * depth + "natural" + ")" * depth
    assert run(["h1", "--p", "3", "--n", "2", "--module", recipe]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "nested deeper" in err[0]


def test_recipe_at_the_depth_bound_resolves(capsys):
    recipe = "dual(" * 64 + "natural" + ")" * 64
    assert run(["h1", "--p", "3", "--n", "2", "--module", recipe]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 2


def test_determinism_double_run(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run(["construct", "--p", "2", "--k", "2", "--seed", "0", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_job_file_matches_flags(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"p": 3, "k": 1, "n": 2, "group": "family-a", "seed": 0}))
    via_job = tmp_path / "via_job.json"
    via_flags = tmp_path / "via_flags.json"
    assert run(["construct", "--job", str(job), "--out", str(via_job)]) == 0
    assert run(["construct", "--p", "3", "--n", "2", "--out", str(via_flags)]) == 0
    assert via_job.read_bytes() == via_flags.read_bytes()


def test_tamper_detection(tmp_path):
    out = tmp_path / "report.json"
    run(["construct", "--p", "3", "--out", str(out)])
    report = json.loads(out.read_text())
    report["payload"]["group"]["generators"][0]["entries"][0][0][0] ^= 1
    out.write_text(json.dumps(report))
    assert run(["verify", str(out)]) == 1


def test_group_file_recipe(tmp_path):
    F3 = field_new(3)
    group = closure(F3, 2, [Matrix.from_rows(F3, [[1, 1], [0, 1]])])
    spec = group_to_json(group)
    gf_path = tmp_path / "group.json"
    gf_path.write_text(
        json.dumps({"field": spec["field"], "n": 2, "generators": spec["generators"]})
    )
    out = tmp_path / "r.json"
    assert run(["construct", "--p", "3", "--group", f"file:{gf_path}", "--out", str(out)]) == 0
    assert run(["verify", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["payload"]["group"]["order"] == 3


def _write_group_file(path, ctx, gens):
    path.write_text(json.dumps({
        "field": field_to_json(ctx),
        "n": len(gens[0]),
        "generators": [matrix_to_json(Matrix.from_rows(ctx, g)) for g in gens],
    }))
    return f"file:{path}"


@pytest.mark.parametrize("argv", [
    ["construct", "--p", "5"],
    ["h1", "--p", "2", "--k", "3", "--module", "trivial"],
    ["h1", "--p", "7", "--k", "2", "--module", "trivial"],
], ids=["construct-p", "h1-p-k", "h1-k"])
def test_group_file_over_another_field_is_rejected(tmp_path, capsys, argv):
    # the file's field must be the one --p, --k and --modulus name; a file
    # over F_7 is not read as a group over GF(5), GF(8) or GF(49)
    F7 = field_new(7)
    group = _write_group_file(tmp_path / "sl2_f7.json", F7, [[[1, 1], [0, 1]], [[1, 0], [1, 1]]])
    assert run(argv + ["--group", group]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: group file is over GF(7)")
    assert captured.out == ""


def test_group_file_field_is_checked_before_the_closure(tmp_path, capsys, monkeypatch):
    # an SL_3(F_3) file under --p 5 --order-cap 10: the field error wins over
    # the order cap, and the group is not enumerated at all
    import modcoh.grp as grp

    searches = []
    search = grp._search

    def searching(*args):
        searches.append(1)
        return search(*args)

    monkeypatch.setattr(grp, "_search", searching)
    F3 = field_new(3)
    shears = [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
              [[1, 0, 0], [0, 1, 0], [1, 0, 1]]]
    group = _write_group_file(tmp_path / "sl3_f3.json", F3, shears)
    out = tmp_path / "r.json"
    argv = ["construct", "--p", "5", "--order-cap", "10", "--group", group, "--out", str(out)]
    assert run(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: group file is over GF(3)")
    assert searches == [] and not out.exists()
    # and so is --n
    assert run(["construct", "--p", "3", "--n", "2", "--order-cap", "10", "--group", group]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: group file is 3x3, but --n 2 given"] and searches == []


def test_group_file_over_another_modulus_is_rejected(tmp_path, capsys):
    # GF(8) by x^3 + x^2 + 1 is not the default GF(8) by x^3 + x + 1: the
    # encodings name other elements, so the modulus must match too
    F8 = field_new(2, 3, [1, 0, 1, 1])
    t, u = F8.gen(), F8.gen() + F8.one()
    group = _write_group_file(tmp_path / "g.json", F8, [[[0, 1], [1, 0]], [[u, t], [t, u]]])
    assert run(["construct", "--p", "2", "--k", "3", "--group", group]) == 1
    assert "modulus" in capsys.readouterr().err
    assert run(["construct", "--p", "2", "--k", "3", "--modulus", "1,0,1,1",
                "--group", group, "--out", str(tmp_path / "r.json")]) == 0


F5_FIELD = field_to_json(field_new(5))


@pytest.mark.parametrize("spec", [
    [1, 2],
    {"field": F5_FIELD, "n": 2, "generators": 5},
    {"field": F5_FIELD, "n": "2", "generators": []},
], ids=["not_an_object", "generators_not_a_list", "n_not_an_int"])
def test_malformed_group_file_is_one_error_line(spec, tmp_path, capsys):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "r.json"
    for argv in (["construct", "--p", "5", "--group", f"file:{path}", "--out", str(out)],
                 ["h1", "--p", "5", "--group", f"file:{path}", "--module", "u"]):
        assert run(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: bad group spec: "), err
        assert not out.exists()


def test_h1_trivial_module_trivial_group(tmp_path, capsys):
    F3 = field_new(3)
    gf_path = tmp_path / "trivial_group.json"
    gf_path.write_text(
        json.dumps({"field": field_to_json(F3), "n": 2, "generators": []})
    )
    assert run(["h1", "--p", "3", "--group", f"file:{gf_path}", "--module", "trivial"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["z1"], out["b1"], out["h1"]) == (0, 0, 0)


def test_h1_u_module_char3(capsys):
    assert run(["h1", "--p", "3", "--n", "2", "--module", "u"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["h1"] >= 1 and out["dim"] == 4


def test_h1_coprime_order_group(tmp_path, capsys):
    F4 = field_new(2, 2)
    t = F4.gen()
    group = closure(F4, 2, [Matrix.from_rows(F4, [[t, F4.zero()], [F4.zero(), t * t]])])
    spec = group_to_json(group)
    gf_path = tmp_path / "diag.json"
    gf_path.write_text(
        json.dumps({"field": spec["field"], "n": 2, "generators": spec["generators"]})
    )
    assert (
        run(["h1", "--p", "2", "--k", "2", "--group", f"file:{gf_path}", "--module", "sym(2)"])
        == 0
    )
    out = json.loads(capsys.readouterr().out)
    assert out["h1"] == 0


def test_h1_dump_basis(capsys):
    assert run(["h1", "--p", "2", "--k", "2", "--module", "u", "--dump-basis"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["z1_basis"]) == out["z1"]


def test_detcheck(capsys):
    assert run(["detcheck", "--trials", "20"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_zero"] and out["structured_zero"]


@pytest.mark.parametrize("trials", ["-1", "0"])
def test_detcheck_needs_a_positive_trial_count(trials, capsys):
    # with no trials, all_zero would hold vacuously, and with -1 trials it
    # would claim that the identity fails
    assert run(["detcheck", "--trials", trials]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("error: ") and "trials" in err[0]


@pytest.mark.parametrize("job", [
    {"p": 3, "n": "2"},
    {"p": 3, "order_cap": "10"},
    {"p": 3, "group": 5},
    {"p": 3, "modulus": "1,1"},
    {"p": True},
    [3],
], ids=["n_str", "order_cap_str", "group_int", "modulus_str", "p_bool", "not_an_object"])
def test_job_file_with_a_mistyped_field_is_one_error_line(job, tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert run(["construct", "--job", str(path), "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("modulus", ["a,b", "1,,1"], ids=["not_integers", "empty_item"])
def test_modulus_with_a_non_integer_item_is_one_error_line(modulus, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(["construct", "--p", "2", "--k", "2", "--modulus", modulus, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "--modulus" in err
    assert not out.exists()


def test_construct_stdout(capsys):
    assert run(["construct", "--p", "3", "--n", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["schema"] == "modcoh-report-v6"


def test_theorem_violation_exit_code(monkeypatch, tmp_path):
    import modcoh.cli as cli
    from modcoh.errors import TheoremViolation

    def boom(group, params, seed=0):
        raise TheoremViolation("forced for the exit-code contract")

    monkeypatch.setattr(cli, "run_pipeline", boom)
    assert run(["construct", "--p", "2", "--k", "2", "--out", str(tmp_path / "r.json")]) == 3


def test_order_cap_exit_code(tmp_path):
    assert run(
        ["construct", "--p", "3", "--order-cap", "2", "--out", str(tmp_path / "r.json")]
    ) == 1


def test_zpxzp_group_flag(tmp_path, capsys):
    assert run(["h1", "--p", "3", "--group", "zpxzp", "--module", "natural"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["group_order"] == 9
    assert run(["h1", "--p", "3", "--group", "zpxzp", "--n", "3", "--module", "natural"]) == 1


def test_h1_z1_size_guard(capsys):
    # |G| = 16 is elementary abelian on |S'| = 4, so Z1 comes from 4 power
    # and 6 commutator relators; dim 317 makes that a 3,170 x 1,268 system,
    # refused before it is built
    start = time.perf_counter()
    assert run(["h1", "--p", "2", "--k", "4", "--module", "trivial(317)"]) == 1
    assert time.perf_counter() - start < 1.0
    assert "desk scale" in capsys.readouterr().err
    # dim 150 gives 1,500 x 600 and dim 40 gives 400 x 160, both under the
    # cap: Z1 = Hom(F_2^4, F_2^d)
    for d in (150, 40):
        assert run(["h1", "--p", "2", "--k", "4", "--module", f"trivial({d})"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["z1"], out["b1"], out["h1"]) == (4 * d, 0, 4 * d)


def sl2_f3_file(tmp_path):
    """SL_2(F_3) from [[1,1],[0,1]], -I and [[1,0],[1,1]]: each generator lies
    outside the subgroup of those before it, so |S'| = 3.  The group is not
    abelian, so its Z1 system is the Schreier graph's."""
    F3 = field_new(3)
    gens = [[[1, 1], [0, 1]], [[2, 0], [0, 2]], [[1, 0], [1, 1]]]
    path = tmp_path / "sl2_f3.json"
    path.write_text(json.dumps({
        "field": field_to_json(F3),
        "n": 2,
        "generators": [matrix_to_json(Matrix.from_rows(F3, g)) for g in gens],
    }))
    return path


def test_h1_z1_guard_before_b1(monkeypatch, capsys, tmp_path):
    # SL_2(F_3), dim 166: 3 * 24 - 23 = 49 non-tree blocks make an
    # 8,134 x 498 Z1 system, refused before any B1 elimination
    import modcoh.coh as coh

    calls = []
    for name in ("_b1_basis", "_b1_columns"):
        original = getattr(coh, name)

        def counting(module, original=original):
            calls.append(module)
            return original(module)

        monkeypatch.setattr(coh, name, counting)
    group = f"file:{sl2_f3_file(tmp_path)}"
    start = time.perf_counter()
    assert run(["h1", "--p", "3", "--group", group, "--module", "trivial(166)"]) == 1
    assert time.perf_counter() - start < 1.0
    assert "desk scale" in capsys.readouterr().err
    assert calls == []
    # Hom(SL_2(F_3), F_3) = F_3 through the abelianization Z/3
    assert run(["h1", "--p", "3", "--group", group, "--module", "trivial(60)"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["group_order"], out["z1"], out["b1"]) == (24, 60, 0)


def test_h1_zpxzp_p5_trivial_300(capsys):
    # 2 power and 1 commutator relator: a 900 x 600 Z1 system, all zero
    assert run(["h1", "--p", "5", "--group", "zpxzp", "--module", "trivial(300)"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["z1"], out["b1"], out["h1"]) == (600, 0, 600)


def test_h1_zpxzp_p5_u(capsys):
    # |G| = 25, dim U = 208: a 624 x 416 relator Z1 system
    assert run(["h1", "--p", "5", "--group", "zpxzp", "--module", "u"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["z1"], out["b1"], out["h1"]) == (218, 186, 32)
