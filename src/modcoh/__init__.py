"""Exact finite-field linear algebra, matrix-group cohomology, and
certified non-split module extensions."""

from .errors import ModcohError
from .gf import FieldCtx, FieldElement, field_new, frobenius
from .linalg import Matrix, direct_sum, inverse, kron, rref, solve
from .poly import Monomial, Polynomial, det3_identity, monomial_basis, substitute_linear
from .grp import (
    MatrixGroup,
    additive_family,
    closure,
    paired_shear_family,
)
from .rep import (
    GModule,
    dual,
    direct_sum_mod,
    find_intertwiner,
    frobenius_twist,
    hom,
    natural_module,
    sym_power,
    tensor,
    trivial_module,
)
from .coh import (
    Cocycle,
    ExtensionClass,
    b1_dim,
    b1_space,
    cocycle_from_extension,
    extension_from_cocycle,
    h1_class,
    h1_dim,
    is_split,
    push_class,
    tensor_with_invariant,
    z1_dim,
    z1_space,
)
from .build import (
    assemble_obstruction_module,
    build_nonsplit_sequence,
    det_identity_demo,
    resolve_module,
    tensor_vanishing_witness,
    toy_example,
)
from .report import run_pipeline, write_report
from .verify import verify_report, verify_report_file

__version__ = "0.1.0"
