"""`h1` against results proved independently of it.

Andersen, Jørgensen and Landrock, "The projective indecomposable modules
of SL(2, p^n)", Proc. London Math. Soc. (3) 46 (1983), 38-52, find the
Loewy structure of the projective indecomposable modules of SL(2, p^n)
over an algebraically closed field k of characteristic p, and so every
Ext^1 between its simple modules.  Restated for n = 1 and p odd:

    The simple kSL(2, p)-modules are L(λ) = S^λ(k^2), 0 <= λ <= p - 1.
    L(p - 1), the Steinberg module, is projective.  For 0 <= λ <= p - 2
    the projective cover P(λ) has head and socle L(λ), and its heart is
    L(p - 3 - λ) ⊕ L(p - 1 - λ), a term being absent when its weight is
    outside 0..p - 2.  So for 0 <= λ, μ <= p - 2,
    dim Ext^1(L(λ), L(μ)) = 1 if λ + μ = p - 3 or λ + μ = p - 1, and 0
    otherwise.

With λ = 0, H^1(SL(2, p), L(d)) = Ext^1(L(0), L(d)) is one-dimensional at
d = p - 3 and zero for every other d in 1..p - 1 (at d = p - 1 because the
Steinberg module is projective).  S^d(F_p^2) is L(d) written over F_p, and
dimensions of cohomology do not change under the extension F_p ⊂ k, so
`h1` of `sym(d)` on SL_2(F_p) must give exactly this.

H^1(G, F_p) = Hom(G, F_p^+) for the trivial module: 0 on the perfect group
SL_2(F_5), and 2 on `zpxzp` at p = 5, which is F_5^2.
"""

import pytest

from modcoh.build import resolve_module
from modcoh.coh import b1_dim, z1_dim
from modcoh.gf import field_new
from modcoh.grp import closure, paired_shear_family
from modcoh.linalg import Matrix


def sl2(p):
    """SL_2(F_p), generated by the shears x12(1) and x21(1)."""
    ctx = field_new(p)
    shears = [Matrix.from_rows(ctx, r) for r in ([[1, 1], [0, 1]], [[1, 0], [1, 1]])]
    return closure(ctx, 2, shears)


def h1(group, recipe):
    module = resolve_module(group, recipe)
    return z1_dim(module) - b1_dim(module)


# p in {5, 7, 11} over every d in 1..p-1, and p = 13 around d = p - 3;
# the CI workflow sweeps every d at p = 13
SYM_CASES = [(p, d) for p in (5, 7, 11) for d in range(1, p)] + [(13, d) for d in (9, 10, 11)]


@pytest.fixture(scope="module")
def groups():
    return {p: sl2(p) for p in (5, 7, 11, 13)}


@pytest.mark.parametrize("p,d", SYM_CASES, ids=[f"p{p}-d{d}" for p, d in SYM_CASES])
def test_h1_of_sym_d_on_sl2_is_one_exactly_at_p_minus_3(groups, p, d):
    assert groups[p].order == p * (p * p - 1)
    assert h1(groups[p], f"sym({d})") == (1 if d == p - 3 else 0)


def test_h1_of_the_trivial_module_is_the_dimension_of_hom_to_f_p(groups):
    assert h1(groups[5], "trivial") == 0
    assert h1(paired_shear_family(field_new(5)), "trivial") == 2
