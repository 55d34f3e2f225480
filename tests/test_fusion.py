"""Counital representation, fusion ring, counital quotient."""

import numpy as np
import pytest

from wka import Tolerance, WeakKac, catalog, direct_sum
from wka.errors import GramDegenerate, NonIntegralMultiplicity
from wka.fusion import (
    _associative,
    block_characters,
    counital_character,
    counital_quotient,
    counital_representation,
    dual_fusion_consistency,
    fusion_ring,
)
from wka import check_morphism, verify_weak_kac

from conftest import e_without_block, get_example

# frozen (support blocks, quotient dimension) per example
ORACLE = {
    "group_z3": ((2,), 1),
    "fun_k2": ((0, 3), 2),
    "group_k3": ((0,), 9),
    "elem_12": ((0,), 25),
    "dualelem_12": ((0, 3), 17),
    "cube2": ((0,), 4),
    "cube3": ((0,), 9),
    "crossed2": ((0,), 4),
    "twist_11": ((0,), 4),
}


@pytest.mark.parametrize("name", sorted(ORACLE))
def test_counital_representation_support(name):
    w = get_example(name)
    cr, rep = counital_representation(w)
    assert rep.passed, rep.as_text()
    support, _ = ORACLE[name]
    assert tuple(cr.support) == support
    # multiplicity-free
    assert set(np.asarray(cr.multiplicities).tolist()) <= {0, 1}
    assert tuple(np.nonzero(cr.multiplicities)[0]) == support


@pytest.mark.parametrize("name", ["group_z3", "fun_k2", "elem_12", "dualelem_12", "cube3"])
def test_counital_matrices_match_the_dense_left_multiplications(name):
    # the images eps_t L_a b, scattered over the product triples, against
    # the dense stack of left multiplications; the same terms summed in
    # another order
    w = get_example(name)
    cr, _ = counital_representation(w)
    b = cr.basis
    dense = np.conj(b).T @ w.eps_t_matrix @ w.algebra.lmat(np.eye(w.dim)) @ b
    assert np.abs(cr.matrices - dense).max() <= 1e-12


@pytest.mark.parametrize("name", sorted(ORACLE))
def test_counital_quotient_dimension(name):
    w = get_example(name)
    q, pi, qrep = counital_quotient(w)
    assert qrep.passed, qrep.as_text()
    _, dim = ORACLE[name]
    assert q.dim == dim
    assert verify_weak_kac(q).passed
    assert check_morphism(w, q, pi).passed


def test_direct_sum_support_concatenates():
    w = direct_sum(get_example("cube2"), get_example("fun_k2"))
    cr, rep = counital_representation(w)
    assert rep.passed
    assert tuple(cr.support) == (0, 2, 5)
    q, _, _ = counital_quotient(w)
    assert q.dim == 6


def test_character_of_counital_rep():
    # chi_eps = eps o mu o Delta, and it is the sum of support characters
    w = get_example("fun_k2")
    chi = counital_character(w)
    blocks = block_characters(w.algebra)
    cr, _ = counital_representation(w)
    expected = blocks[:, list(cr.support)].sum(axis=1)
    assert np.abs(chi - expected).max() < 1e-10


# ---------------------------------------------------------------------------
# fusion ring
# ---------------------------------------------------------------------------


def test_z3_fusion_is_the_group_ring():
    w = get_example("group_z3")
    fr, rep = fusion_ring(w)
    assert rep.passed, rep.as_text()
    assert fr.support == (2,)
    # blocks 0, 1 are the two nontrivial characters, block 2 is trivial
    expected = {
        (0, 0): 1,
        (0, 1): 2,
        (0, 2): 0,
        (1, 1): 0,
        (1, 2): 1,
        (2, 2): 2,
    }
    for (i, j), k in expected.items():
        row = np.zeros(3)
        row[k] = 1
        assert np.abs(fr.table[i, j] - row).max() < 1e-9
        assert np.abs(fr.table[j, i] - row).max() < 1e-9
    # conjugation swaps the nontrivial characters
    assert fr.involution == (1, 0, 2)


@pytest.mark.parametrize("name", sorted(ORACLE))
def test_fusion_ring_verifies(name):
    w = get_example(name)
    fr, rep = fusion_ring(w)
    assert rep.passed, rep.as_text()
    assert rep["unit_left"].passed and rep["unit_right"].passed
    assert rep["associative"].passed
    # entries are nonnegative integers
    assert np.abs(fr.table - np.round(fr.table)).max() < 1e-6
    assert fr.table.min() > -1e-6


def _einsum_associative(table):
    """The associativity of a fusion table as two n^4 integer arrays."""
    left = np.einsum("ijm,mkl->ijkl", table, table)
    right = np.einsum("jkm,iml->ijkl", table, table)
    return bool(np.array_equal(left, right))


def test_associativity_matches_the_einsum_comparison():
    """The per-row products agree with the einsum comparison on the fusion
    tables of the catalog and on tables that are not associative: one that
    fails at the first row, one whose [0] is a unit so that only a later
    row fails, and one with counts near 2^27 whose two sides differ by less
    than float64 resolves, so it must be compared in int64."""
    tables = [fusion_ring(entry.build())[0].table for entry in catalog()]
    z2 = np.zeros((2, 2, 2), dtype=int)
    z2[[0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]] = 1
    skewed = z2.copy()
    skewed[0, 1, 1] = 2  # ([0][0])[1] = [0][1] = 2 [1], but [0]([0][1]) = 4 [1]
    late = np.array([[[1, 0], [0, 1]], [[1, 1], [0, 2]]])
    a = 2**27
    large = np.array([[[a, 1], [1, a]], [[1, a], [a, 0]]])
    for table in (skewed, late, large):
        assert not _einsum_associative(table)
    for table in [*tables, z2, z2 << 27, skewed, late, large]:
        assert _associative(table) == _einsum_associative(table)


def test_cube2_fusion_has_two_blocks():
    fr, rep = fusion_ring(get_example("cube2"))
    assert rep.passed
    assert fr.table.shape == (2, 2, 2)


# ---------------------------------------------------------------------------
# fusion of the dual
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["group_z3", "fun_k2", "cube2", "elem_12", "twist_11"])
def test_dual_fusion_consistency(name):
    rep = dual_fusion_consistency(get_example(name))
    assert rep.passed, rep.as_text()
    assert rep.max_residual <= 1e-8


def _scaled_coproduct(w, factor):
    t = w.coproduct
    return WeakKac(w.algebra, t._replace(v=factor * t.v), w.antipode, w.counit)


def test_non_integral_multiplicities_raise():
    # Delta scaled by 3/2: the multiplicities of Z3 become 3/2
    with pytest.raises(NonIntegralMultiplicity, match="drift 5.00e-01"):
        fusion_ring(_scaled_coproduct(get_example("group_z3"), 1.5))


def test_multiplicity_raise_follows_the_tolerance():
    # a drift of 1e-8 lies inside the limit 1000 abs_tol of the default
    # tolerance, and outside it at abs_tol = 1e-12
    w = _scaled_coproduct(get_example("group_z3"), 1 + 1e-8)
    ring, _ = fusion_ring(w)
    assert np.array_equal(ring.table, fusion_ring(get_example("group_z3"))[0].table)
    with pytest.raises(NonIntegralMultiplicity, match="drift 1.00e-08"):
        fusion_ring(w, Tolerance(abs_tol=1e-12))


def test_quotient_of_an_empty_support_raises():
    """Without block 0 on a leg of e, chi_eps of cube_family(2) has no
    constituent: the quotient raises rather than build an empty algebra."""
    bad = e_without_block(1)(get_example("cube2"))
    with pytest.raises(GramDegenerate, match="support is empty"):
        counital_quotient(bad)
