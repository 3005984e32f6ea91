"""Outside-in tracer: wraps modcoh's layer functions where they are imported.

Each wrapped call records a span (name, start, end, parent) in memory; a
layer's self time is its spans' durations minus the part covered by their
child spans.  Patches replace a function in every modcoh module namespace
that holds it (its defining module and each import site), so calls made
through any of them are seen; `restore` puts every original back.
Per-element FieldCtx methods are not wrapped: the wrapper would cost more
than the call, so the gf layer is measured by microbenchmarks instead.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Optional

Cells = Optional[Callable[..., int]]


def _first_arg_cells(m, *args, **kwargs) -> int:
    return m.rows * m.cols


def _self_cells(self, *args, **kwargs) -> int:
    return self.rows * self.cols


def _kron_cells(a, b) -> int:
    return a.rows * b.rows * a.cols * b.cols


def _module_entries(self, group, dim, action, label) -> int:
    return group.order * dim * dim


# (span name, owner, attribute, cell counter).  An owner is a module name,
# or "module:Class" for a method patched on the class.  Matrix.__sub__ is
# self + (-other), so its cells are counted by the nested __add__/__neg__.
TARGETS: list[tuple[str, str, str, Cells]] = [
    ("linalg.elim", "modcoh.linalg", "rref", _first_arg_cells),
    ("linalg.elim", "modcoh.linalg", "solve", _first_arg_cells),
    ("linalg.elim", "modcoh.linalg", "kernel_basis", _first_arg_cells),
    ("linalg.elim", "modcoh.linalg", "inverse", _first_arg_cells),
    ("linalg.elementwise", "modcoh.linalg:Matrix", "__add__", _self_cells),
    ("linalg.elementwise", "modcoh.linalg:Matrix", "__sub__", None),
    ("linalg.elementwise", "modcoh.linalg:Matrix", "__neg__", _self_cells),
    ("linalg.elementwise", "modcoh.linalg:Matrix", "scale", _self_cells),
    ("linalg.matmul", "modcoh.linalg:Matrix", "__matmul__", None),
    ("linalg.kron", "modcoh.linalg", "kron", _kron_cells),
    ("linalg.json", "modcoh.linalg", "matrix_to_json", None),
    ("linalg.json", "modcoh.linalg", "matrix_from_json", None),
    ("poly.substitute", "modcoh.poly", "substitute_linear", None),
    ("grp.closure", "modcoh.grp", "closure", None),
    ("rep.module", "modcoh.rep:GModule", "__init__", _module_entries),
    ("rep.sym_power", "modcoh.rep", "sym_power", None),
    ("rep.dual", "modcoh.rep", "dual", None),
    ("rep.tensor", "modcoh.rep", "tensor", None),
    ("rep.direct_sum", "modcoh.rep", "direct_sum_mod", None),
    ("rep.find_intertwiner", "modcoh.rep", "find_intertwiner", None),
    ("coh.validate", "modcoh.coh:Cocycle", "validate", None),
    ("coh.z1_space", "modcoh.coh", "z1_space", None),
    ("coh.b1_space", "modcoh.coh", "b1_space", None),
    ("coh.h1_class", "modcoh.coh", "h1_class", None),
    ("coh.is_split", "modcoh.coh", "is_split", None),
    ("coh.extension", "modcoh.coh", "extension_from_cocycle", None),
    ("coh.extension", "modcoh.coh", "cocycle_from_extension", None),
    ("coh.push_class", "modcoh.coh", "push_class", None),
    ("coh.tensor_with_invariant", "modcoh.coh", "tensor_with_invariant", None),
    ("build.sequence", "modcoh.build", "build_nonsplit_sequence", None),
    ("build.tensor_witness", "modcoh.build", "tensor_vanishing_witness", None),
    ("build.obstruction", "modcoh.build", "assemble_obstruction_module", None),
    ("build.toy", "modcoh.build", "toy_example", None),
    ("report.payload", "modcoh.report", "run_pipeline", None),
    ("report.digest", "modcoh.jsonutil", "digest_of", None),
    ("report.serialize", "modcoh.jsonutil", "canonical_json", None),
    ("verify.self", "modcoh.verify", "verify_report", None),
    ("verify.parse", "harness", "parse_report", None),
]


class Tracer:
    """Spans and cell counts of wrapped calls, kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.cells: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, cells: Cells = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if cells is not None:
                tracer.cells[name] += cells(*args, **kwargs)
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        traced.__wrapped__ = fn
        return traced

    # -- patching -------------------------------------------------------------

    def patch(self, name: str, owner: str, attr: str, cells: Cells = None) -> None:
        """Replace `attr` of `owner` wherever modcoh (or the harness) holds it."""
        module_name, _, cls_name = owner.partition(":")
        module = sys.modules[module_name]
        if cls_name:
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            self._set(cls, attr, self.wrap(name, original, cells))
            return
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, cells)
        holders = [module] + [
            m for key, m in list(sys.modules.items())
            if (key == "modcoh" or key.startswith("modcoh.")) and m is not module
        ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._set(holder, key, wrapped)

    def _set(self, holder: object, key: str, value: object) -> None:
        self._patches.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def install(self, targets=TARGETS) -> None:
        for name, owner, attr, cells in targets:
            self.patch(name, owner, attr, cells)

    def restore(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    # -- summaries ------------------------------------------------------------

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            out[name] += 1
        return dict(out)

    def self_times(self) -> dict[str, float]:
        return self_times(self.spans)


def self_times(spans: list[list]) -> dict[str, float]:
    """Per name: total duration minus the time covered by direct children."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for (name, start, end, _), child in zip(spans, covered):
        out[name] += end - start - child
    return dict(out)


def inclusive_time(spans: list[list], names: set[str]) -> float:
    """Time inside spans named in `names`, counting nested ones once."""
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total
