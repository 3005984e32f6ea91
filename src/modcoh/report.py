"""Assemble the pipeline report: the evidence a verifier cannot re-derive.

The report carries the group (elements, generators, inverse table) and
what only a solver finds or a closed form states: inconsistency rows, the
tensor witness, the H1 class and dims, and the toy intertwiner, class
scalar and coboundary witness.  Everything the verifier rebuilds from the
group elements (the symmetric-power, U and X actions, the cocycle values
and the generator systems) is left out.  All output is canonical JSON; the payload digest
binds every field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .build import (
    NonSplitSequence,
    ObstructionReport,
    TensorVanishing,
    ToyReport,
    assemble_obstruction_module,
    build_nonsplit_sequence,
    tensor_vanishing_witness,
    toy_example,
)
from .coh import SplitResult
from .gf import element_to_json, field_to_json
from .grp import MatrixGroup, group_to_json
from .jsonutil import atomic_write_text, canonical_json, digest_of
from .linalg import matrix_to_json
from .rep import module_descriptor

SCHEMA = "modcoh-report-v2"


def _split_result_to_json(res: SplitResult) -> dict:
    out = {
        "verdict": "Split" if res.split else "NonSplit",
        "generator_ids": list(res.generator_ids),
    }
    if res.split:
        out["witness"] = matrix_to_json(res.witness)
    else:
        out["inconsistency_row"] = matrix_to_json(res.certificate.row)
        out["equation"] = "y@system == 0 and y@rhs != 0"
    return out


def _certificate_to_json(seq: NonSplitSequence) -> dict:
    out = _split_result_to_json(seq.split_result)
    out["module"] = module_descriptor(seq.u_module)
    return out


def _toy_to_json(toy: ToyReport) -> dict:
    out = {
        "hypothesis_ok": toy.hypothesis.ok,
        "pattern_values": [element_to_json(a) for a in toy.hypothesis.values],
        "pi": matrix_to_json(toy.pi),
        "v0": matrix_to_json(toy.v0),
        "certificate": _split_result_to_json(toy.split_result),
    }
    if toy.intertwiner is not None:
        out["intertwiner"] = matrix_to_json(toy.intertwiner)
        out["class_scalar"] = element_to_json(toy.scalar)
        out["coboundary_witness"] = matrix_to_json(toy.coboundary_witness)
    return out


@dataclass
class PipelineResult:
    sequence: NonSplitSequence
    witness: TensorVanishing
    obstruction: ObstructionReport
    toy: Optional[ToyReport]
    report: dict


def run_pipeline(group: MatrixGroup, params: dict, seed: int = 0) -> PipelineResult:
    """Run every stage on a built group and assemble the wrapped report.

    No stage draws random numbers; `seed` is accepted for callers that pass
    it, and the report records only `params["seed"]`.
    """
    seq = build_nonsplit_sequence(group)
    witness = tensor_vanishing_witness(seq)
    obstruction = assemble_obstruction_module(seq)
    toy = None
    if group.ctx.p == 2 and group.n == 2:
        dets_ok = all(
            (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) == group.ctx.one()
            for m in group.elements
        )
        if dets_ok:
            toy = toy_example(group, main=seq)

    payload = {
        # the job's other keys (group recipe, modulus) are the group and field
        "params": {key: params[key] for key in ("p", "k", "n", "order_cap", "seed")},
        "field": field_to_json(group.ctx),
        "group": group_to_json(group),
        "dims": seq.dims,
        "basis": [list(m) for m in seq.basis],
        "iota": matrix_to_json(seq.iota),
        "nonsplit_certificate": _certificate_to_json(seq),
        "tensor_vanishing": {
            "w_module": module_descriptor(witness.w_module),
            "w": matrix_to_json(witness.w),
            "witness": matrix_to_json(witness.witness),
            "class_of_g": [element_to_json(c) for c in witness.class_of_g],
            "z1_dim": witness.z1_dim,
            "b1_dim": witness.b1_dim,
            "h1_dim": witness.z1_dim - witness.b1_dim,
            "equation": "(kron(W(s), U(s)) - I) @ u == kron(w, g_s) for every element",
        },
        "obstruction": {
            "components": list(obstruction.components),
            "dim": obstruction.dim,
            "dim_by_formula": obstruction.dim_by_formula,
        },
        "toy": _toy_to_json(toy) if toy is not None else None,
    }
    report = {"schema": SCHEMA, "payload": payload, "digest": digest_of(payload)}
    return PipelineResult(seq, witness, obstruction, toy, report)


def write_report(report: dict, path: str) -> None:
    atomic_write_text(path, canonical_json(report) + "\n")
