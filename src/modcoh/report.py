"""Assemble the pipeline report: the objects it states and the equations
it claims.

Schema v5.  The payload states its objects (params, field, the group by
its generators and order, dims, basis, iota and the obstruction module's
components) and, for each claim, its equation text; it ships no solver
output.  Everything the verifier rebuilds from the generators (the
elements, S' and the search tree, the symmetric-power action, the cocycle
values, the closed-form non-split row y on the subgroup H that the
equation text names, the closed-form tensor witness X = [-I_d ; 0] with
w = e_d, and the toy sequence, which is the main extension) is left out,
and so is every cohomology number: the claims need none.  Neither side
forms the U or X actions: U is read through its Kronecker factors.  All
output is canonical JSON; the payload digest binds every field.
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
from .gf import field_to_json
from .grp import MatrixGroup, group_to_json
from .jsonutil import atomic_write_text, canonical_json, digest_of
from .linalg import matrix_to_json
from .verify import PATTERN_EQUATION, SCHEMA, SHEAR_EQUATION, TENSOR_EQUATION, TOY_EQUATION


@dataclass
class PipelineResult:
    sequence: NonSplitSequence
    witness: TensorVanishing
    obstruction: ObstructionReport
    toy: Optional[ToyReport]
    report: dict


def run_pipeline(group: MatrixGroup, params: dict, seed: int = 0) -> PipelineResult:
    """Run every stage on a built group and assemble the wrapped report.

    No stage draws random numbers; `seed`, and `params["seed"]` if
    present, are accepted for callers that pass them and ignored.
    """
    seq = build_nonsplit_sequence(group)
    witness = tensor_vanishing_witness(seq)
    obstruction = assemble_obstruction_module(seq)
    toy = None
    # det is multiplicative, so det = 1 on the generators holds on the group
    if group.ctx.p == 2 and group.n == 2 and all(
        m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] == group.ctx.one() for m in group.generators
    ):
        toy = toy_example(group, main=seq)

    payload = {
        # the job's other keys (group recipe, modulus) are the group and field
        "params": {key: params[key] for key in ("p", "k", "n", "order_cap")},
        "field": field_to_json(group.ctx),
        "group": group_to_json(group),
        "dims": seq.dims,
        "basis": [list(m) for m in seq.basis],
        "iota": matrix_to_json(seq.iota),
        "nonsplit_certificate": {
            "verdict": "NonSplit",
            "equation": SHEAR_EQUATION if group.ctx.p > 2 else PATTERN_EQUATION,
        },
        "tensor_vanishing": {"equation": TENSOR_EQUATION},
        "obstruction": {
            "components": list(obstruction.components),
            "dim": obstruction.dim,
            "dim_by_formula": obstruction.dim_by_formula,
        },
        "toy": None if toy is None else {"equation": TOY_EQUATION},
    }
    report = {"schema": SCHEMA, "payload": payload, "digest": digest_of(payload)}
    return PipelineResult(seq, witness, obstruction, toy, report)


def write_report(report: dict, path: str) -> None:
    atomic_write_text(path, canonical_json(report) + "\n")
