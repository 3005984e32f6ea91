"""Command-line front end with deterministic JSON output.

Exit codes: 0 success, 1 usage or input error (and any failed
verification), 2 group hypothesis not satisfied, 3 internal theorem
violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from typing import Optional

from .build import det_identity_demo, resolve_module
from .coh import (
    b1_dim,
    b1_stacked,
    z1_dim,
    z1_space,  # unused here; bench/test_bench.py patches this import site
    z1_stacked,
)
from .errors import (
    CorruptReport,
    FailedCheck,
    HypothesisNotSatisfied,
    ModcohError,
    TheoremViolation,
)
from .gf import field_from_json, field_new
from .grp import (
    DEFAULT_ORDER_CAP,
    MatrixGroup,
    additive_family,
    group_spec_from_json,
    paired_shear_family,
)
from .jsonutil import canonical_json
from .linalg import matrix_json_text
from .report import run_pipeline, write_report
from .verify import verify_report_file


@dataclass
class JobSpec:
    """One construct job; mirrors the flags and round-trips through JSON."""

    p: int
    k: int = 1
    modulus: Optional[list[int]] = None
    n: Optional[int] = None
    group: str = "family-a"
    order_cap: int = DEFAULT_ORDER_CAP
    seed: int = 0
    out: str = "-"

    def to_dict(self) -> dict:
        """`dataclasses.asdict` without its deep copy: every field is
        immutable but `modulus`, which is copied as a new list."""
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.modulus is not None:
            obj["modulus"] = list(self.modulus)
        return obj

    @classmethod
    def from_dict(cls, obj: dict) -> "JobSpec":
        if not isinstance(obj, dict):
            raise ModcohError("a job spec is a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise ModcohError(f"unknown job fields: {sorted(unknown)}")
        if "p" not in obj:
            raise ModcohError("job spec needs p")
        for key, val in obj.items():
            kind, ok = _JOB_FIELD_TYPES[key]
            if not ok(val):
                raise ModcohError(f"job field {key} = {val!r} is not {kind}")
        return cls(**obj)


def _is_int(val) -> bool:
    return type(val) is int  # not bool, which JSON true and false load as


# what each job field must hold, and the test of it
_JOB_FIELD_TYPES = {
    "p": ("an integer", _is_int),
    "k": ("an integer", _is_int),
    "modulus": ("a list of integers or null", lambda v: v is None or (
        isinstance(v, list) and all(_is_int(c) for c in v))),
    "n": ("an integer or null", lambda v: v is None or _is_int(v)),
    "group": ("a string", lambda v: isinstance(v, str)),
    "order_cap": ("an integer", _is_int),
    "seed": ("an integer", _is_int),
    "out": ("a string", lambda v: isinstance(v, str)),
}


def build_group(spec: JobSpec) -> MatrixGroup:
    ctx = field_new(spec.p, spec.k, spec.modulus)
    if spec.group == "family-a":
        return additive_family(ctx, n=spec.n if spec.n is not None else 2,
                               order_cap=spec.order_cap)
    if spec.group == "zpxzp":
        if spec.n not in (None, 4):
            raise ModcohError("the zpxzp family is 4x4; use --n 4 or omit --n")
        return paired_shear_family(ctx, order_cap=spec.order_cap)
    if spec.group.startswith("file:"):
        path = spec.group[len("file:"):]
        with open(path, "r") as handle:
            obj = json.load(handle)
        # the field and n are checked before the closure, which may be long
        try:
            file_ctx, n = field_from_json(obj["field"]), obj["n"]
        except KeyError as exc:
            raise ModcohError(f"bad group spec: missing {exc}") from exc
        if file_ctx is not ctx:
            raise ModcohError(
                f"group file is over {file_ctx!r} with modulus {list(file_ctx.modulus)}, "
                f"but --p/--k/--modulus give {ctx!r} with modulus {list(ctx.modulus)}"
            )
        if spec.n is not None and n != spec.n:
            raise ModcohError(f"group file is {n}x{n}, but --n {spec.n} given")
        return group_spec_from_json(obj, order_cap=spec.order_cap)
    raise ModcohError(f"unknown group recipe {spec.group!r}")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for
    # a failed hypothesis, so map usage errors to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_field_group_args(parser: argparse.ArgumentParser) -> None:
    # defaults are applied after the optional job file is merged in
    parser.add_argument("--p", type=int, help="prime characteristic")
    parser.add_argument("--k", type=int, default=None, help="extension degree (default 1)")
    parser.add_argument(
        "--modulus",
        type=str,
        default=None,
        help="comma-separated little-endian modulus coefficients",
    )
    parser.add_argument("--n", type=int, default=None, help="matrix size (default per family)")
    parser.add_argument(
        "--group",
        type=str,
        default=None,
        help="group recipe: family-a | zpxzp | file:<path> (default family-a)",
    )
    parser.add_argument("--order-cap", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="modcoh", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", parents=[], help="run the pipeline and write a report")
    _add_field_group_args(c)
    c.add_argument("--out", type=str, default="-", help="report path ('-' for stdout)")
    c.add_argument("--job", type=str, default=None, help="JSON job file mirroring the flags")

    v = sub.add_parser("verify", help="re-check every certificate in a report")
    v.add_argument("report", type=str)

    h = sub.add_parser("h1", help="print dim Z1, dim B1, dim H1 for a module recipe")
    _add_field_group_args(h)
    h.add_argument("--module", type=str, required=True,
                   help="recipe, e.g. natural | sym(2) | u | dual(uext) | tensor(twist,u)")
    h.add_argument("--dump-basis", action="store_true", help="also print the Z1/B1 bases")

    d = sub.add_parser("detcheck", help="determinant identity demo over small fields")
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--trials", type=int, default=100)
    return parser


def _jobspec_from_args(args: argparse.Namespace) -> JobSpec:
    merged: dict = {}
    if getattr(args, "job", None) is not None:
        with open(args.job, "r") as handle:
            merged = dict(JobSpec.from_dict(json.load(handle)).to_dict())
    overrides = {
        "p": args.p,
        "k": args.k,
        "n": args.n,
        "group": args.group,
        "order_cap": args.order_cap,
        "seed": args.seed,
        "out": getattr(args, "out", None),
    }
    if args.modulus is not None:
        try:
            overrides["modulus"] = [int(c) for c in args.modulus.split(",")]
        except ValueError as exc:
            raise ModcohError(
                f"--modulus {args.modulus!r} is not a comma-separated list of integers"
            ) from exc
    for key, val in overrides.items():
        if val is not None:
            merged[key] = val
    if "p" not in merged:
        raise ModcohError("--p is required (or provide --job)")
    return JobSpec.from_dict(merged)


def cmd_construct(args: argparse.Namespace) -> int:
    spec = _jobspec_from_args(args)
    group = build_group(spec)
    result = run_pipeline(group, spec.to_dict())
    if spec.out == "-":
        print(canonical_json(result.report))
    else:
        write_report(result.report, spec.out)
        print(f"report written to {spec.out}", file=sys.stderr)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    checks = verify_report_file(args.report)
    print(f"ok: {checks} checks passed")
    return 0


def cmd_h1(args: argparse.Namespace) -> int:
    args.job = None
    args.out = "-"
    spec = _jobspec_from_args(args)
    group = build_group(spec)
    module = resolve_module(group, args.module)
    z1, b1 = z1_dim(module), b1_dim(module)
    out = {
        "recipe": module.label,
        "dim": module.dim,
        "group_order": group.order,
        "z1": z1,
        "b1": b1,
        "h1": z1 - b1,
    }
    # each stacked basis vector is written as its canonical text, with no
    # cocycle and no nested cell lists made on the way
    texts = {
        key: list(map(matrix_json_text, stacked(module)))
        for key, stacked in (("z1_basis", z1_stacked), ("b1_basis", b1_stacked))
    } if args.dump_basis else {}
    print(_canonical_json_spliced(out, texts))
    return 0


def _canonical_json_spliced(obj: dict, lists: dict[str, list[str]]) -> str:
    """canonical_json of `obj` with each key of `lists` set to the list whose
    items have the given canonical texts.  A JSON object is the comma-join
    of its sorted "key":value pairs, and a list the comma-join of its items,
    so the texts are spliced in as they are."""
    items = {key: canonical_json(val) for key, val in obj.items()}
    items.update({key: "[" + ",".join(texts) + "]" for key, texts in lists.items()})
    return "{" + ",".join(f"{canonical_json(key)}:{items[key]}" for key in sorted(items)) + "}"


def cmd_detcheck(args: argparse.Namespace) -> int:
    print(canonical_json(det_identity_demo(seed=args.seed, trials=args.trials)))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "construct":
            return cmd_construct(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "h1":
            return cmd_h1(args)
        return cmd_detcheck(args)
    except HypothesisNotSatisfied as exc:
        print(f"hypothesis not satisfied: {exc}", file=sys.stderr)
        return 2
    except TheoremViolation as exc:
        print(f"INTERNAL THEOREM VIOLATION: {exc}", file=sys.stderr)
        return 3
    except (FailedCheck, CorruptReport) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (ModcohError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
