"""Assemble the pipeline report: the objects it states and the equations
it claims.

Schema v6.  The payload states the job's order cap, the group by its
field, generators and order, and dims, and for each claim its equation
text; it ships no solver output, and nothing that n and p fix or that
another field repeats.  Everything that n, p and the generators fix (the
elements, S' and the search tree, the monomial basis, iota = (I_n | 0),
the symmetric-power action, the cocycle values and the closed-form
non-split row y on the subgroup H that the equation text names) is left
out, and so is every cohomology number: the claims need none.  The
verifier checks the group (closure and order, and H in G by lookup) and
the dims against their formulas.  Both sides close the group by the same
search (verify._search), and check the one claim that depends on the
group, the non-split certificate, with the same functions
(verify._restriction_row and verify._check_restriction), from the images
of at most two pinned monomials under the elements of H^-1.  The rest
holds by proof: the block form of the symmetric-power action (the
Frobenius), g lying in U, the closed-form tensor witness X = [-I_d ; 0]
with w = e_d and the toy sequence being the main extension
(build.TensorVanishing, build.toy_example), whose record both sides
decide by one rule (verify._toy_due); the dimension of
X = U* + U~ + U~ + U~ is a formula.  Neither side forms a monomial basis
or an action of V, U, U~ or X.  All output is canonical JSON; the payload
digest binds every field.
"""

from __future__ import annotations

from .build import NonSplitSequence, build_nonsplit_sequence
from .grp import MatrixGroup, group_to_json
from .jsonutil import atomic_write_text, canonical_json, digest_of
from .verify import (
    PATTERN_EQUATION,
    SCHEMA,
    SHEAR_EQUATION,
    TENSOR_EQUATION,
    TOY_EQUATION,
    _toy_due,
)


class PipelineResult:
    __slots__ = ("sequence", "report")

    def __init__(self, sequence: NonSplitSequence, report: dict):
        self.sequence = sequence
        self.report = report


def run_pipeline(group: MatrixGroup, params: dict, seed: int = 0) -> PipelineResult:
    """Run every stage on a built group and assemble the wrapped report.

    Of `params` the report states only `order_cap`: the job's other keys
    (p, k, modulus, n, the group recipe) are the group and its field, and
    no stage draws random numbers, so `seed`, and `params["seed"]` if
    present, are accepted for callers that pass them and ignored.
    """
    seq = build_nonsplit_sequence(group)
    # the tensor witness and the toy identity hold by proof, so no stage
    # checks them (build.TensorVanishing, build.toy_example); the toy
    # record is due by the verifier's rule on the determinants of the
    # generators, which S' decides as well: it generates the group
    toy = _toy_due(group.ctx, group.n, (group.elements[s] for s in group.spanning_ids))

    payload = {
        "params": {"order_cap": params["order_cap"]},
        "group": group_to_json(group),
        "dims": seq.dims,
        "nonsplit_certificate": {
            "verdict": "NonSplit",
            "equation": SHEAR_EQUATION if group.ctx.p > 2 else PATTERN_EQUATION,
        },
        "tensor_vanishing": {"equation": TENSOR_EQUATION},
        "toy": {"equation": TOY_EQUATION} if toy else None,
    }
    report = {"schema": SCHEMA, "payload": payload, "digest": digest_of(payload)}
    return PipelineResult(seq, report)


def write_report(report: dict, path: str) -> None:
    atomic_write_text(path, canonical_json(report) + "\n")
