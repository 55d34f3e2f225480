"""Constructors: groupoids, group/function algebras, twists, crossed products."""

import numpy as np
import pytest

from wka import (
    Group,
    GroupAction,
    Groupoid,
    check_morphism,
    crossed_product,
    cube_family,
    cyclic_groupoid,
    cyclic_shift_action,
    direct_sum,
    disjoint_union,
    dual_elementary,
    elementary,
    elementary_twist,
    groupoid_algebra,
    groupoid_function_algebra,
    pair_groupoid,
    random_cocycle,
    untwist_isomorphism,
    verify_weak_kac,
)
from wka import catalog, constructors, duality
from wka.algebra import monomial_rows
from wka.constructors import cube_crossed_isomorphism, transported_weak_kac, validate_action
from wka.errors import InvalidAction, InvalidCocycle, InvalidGroupoid

from conftest import dense_coproduct, get_example


# ---------------------------------------------------------------------------
# groupoid validation
# ---------------------------------------------------------------------------


def test_pair_groupoid_shape():
    g = pair_groupoid(3)
    assert g.size == 9
    assert g.n_units == 3
    assert not g.is_group()
    # (i,j)(j,k) = (i,k)
    assert g.compose[0 * 3 + 1, 1 * 3 + 2] == 0 * 3 + 2
    assert g.compose[0 * 3 + 1, 0 * 3 + 2] == -1


def test_cyclic_groupoid_is_group():
    g = cyclic_groupoid(4)
    assert g.is_group()
    assert g.size == 4
    assert (g.compose >= 0).all()


def test_disjoint_union_counts():
    g = disjoint_union(cyclic_groupoid(2), pair_groupoid(2))
    assert g.size == 6
    assert g.n_units == 3
    # no cross compositions
    assert (g.compose[:2, 2:] == -1).all()
    assert (g.compose[2:, :2] == -1).all()


def test_groupoid_rejects_nonsquare_table():
    with pytest.raises(InvalidGroupoid):
        Groupoid(np.zeros((2, 3), dtype=int), [0])


def test_groupoid_rejects_non_idempotent_unit():
    with pytest.raises(InvalidGroupoid):
        Groupoid([[1, -1], [-1, 0]], [0, 1])


def test_groupoid_rejects_wrong_composability_pattern():
    # Z/2 with the composable pair (g, g) left undefined
    comp = np.array([[0, 1], [1, -1]])
    with pytest.raises(InvalidGroupoid):
        Groupoid(comp, [0])


def test_groupoid_rejects_missing_inverse():
    # two-element semilattice {1, z}, z z = z: a monoid, not a groupoid
    comp = np.array([[0, 1], [1, 1]])
    with pytest.raises(InvalidGroupoid):
        Groupoid(comp, [0])


def test_groupoid_rejects_broken_associativity():
    # Z/4 Cayley table with two products swapped
    comp = (np.arange(4)[:, None] + np.arange(4)[None, :]) % 4
    comp[1, 1], comp[1, 2] = 3, 2
    with pytest.raises(InvalidGroupoid):
        Groupoid(comp, [0])


def test_group_cyclic_table():
    g = Group.cyclic(3)
    assert g.size == 3
    assert g.inverse[1] == 2
    assert g.table[1, 2] == 0


# ---------------------------------------------------------------------------
# groupoid algebras
# ---------------------------------------------------------------------------


def test_group_algebra_coproduct_is_group_like():
    w = get_example("group_z3")
    carry = w.meta["to_canonical"]
    for g in range(3):
        u = carry @ np.eye(3)[g]
        assert np.abs(w.delta(u) - np.outer(u, u)).max() < 1e-12


def test_group_algebra_block_shapes():
    assert tuple(get_example("group_z3").algebra.block_shape) == (1, 1, 1)
    # pair groupoid on n points has groupoid algebra M_n
    assert tuple(get_example("group_k3").algebra.block_shape) == (3,)


def test_function_algebra_structure():
    gpd = pair_groupoid(2)
    w = groupoid_function_algebra(gpd)
    assert tuple(w.algebra.block_shape) == (1, 1, 1, 1)
    # counit is the indicator of the units
    expected = np.zeros(4)
    expected[gpd.units] = 1.0
    assert np.abs(w.counit - expected).max() == 0.0
    # antipode permutes delta functions by inversion
    perm = np.zeros((4, 4))
    perm[gpd.inverse, np.arange(4)] = 1.0
    assert np.abs(w.antipode - perm).max() == 0.0
    # Delta(delta_g) = sum over factorizations g = h k of delta_h x delta_k
    T = np.zeros((4, 4, 4))
    for h in range(4):
        for k in range(4):
            if gpd.compose[h, k] >= 0:
                T[gpd.compose[h, k], h, k] = 1.0
    assert np.abs(dense_coproduct(w) - T).max() == 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_groupoid_algebras_verify(n):
    for w in (
        groupoid_algebra(pair_groupoid(n)),
        groupoid_function_algebra(pair_groupoid(n)),
        groupoid_algebra(cyclic_groupoid(n)),
    ):
        rep = verify_weak_kac(w)
        assert rep.passed, rep.as_text()


def test_counit_of_unit_counts_units():
    # eps(1) = number of units of the groupoid
    for gpd in (pair_groupoid(3), cyclic_groupoid(4), disjoint_union(cyclic_groupoid(2), cyclic_groupoid(1))):
        wf = groupoid_function_algebra(gpd)
        assert abs(wf.counit @ wf.algebra.unit - gpd.n_units) < 1e-12
        wg = groupoid_algebra(gpd)
        assert abs(wg.counit @ wg.algebra.unit - gpd.n_units) < 1e-12


# ---------------------------------------------------------------------------
# elementary algebras and twists
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", [(1,), (2,), (1, 2), (1, 1, 1)])
def test_elementary_verifies(shape):
    w = elementary(shape)
    assert verify_weak_kac(w).passed
    # End(A) as a vector space: dim = (dim A)^2
    base_dim = sum(d * d for d in shape)
    assert w.dim == base_dim * base_dim


def test_dual_elementary_block_shape():
    w = dual_elementary((1, 2))
    assert verify_weak_kac(w).passed
    assert tuple(w.algebra.block_shape) == (1, 2, 2, 4)


def test_random_cocycle_is_valid():
    lam = random_cocycle(3, seed=11)
    assert lam.shape == (3, 3)
    assert np.abs(np.abs(lam) - 1).max() < 1e-12
    assert np.abs(lam - np.conj(lam.T)).max() < 1e-12
    # accepted by the twist constructor
    wt = elementary_twist(elementary((1, 1, 1)), lam)
    assert verify_weak_kac(wt).passed


def test_cocycle_rejections():
    w = elementary((1, 1))
    with pytest.raises(InvalidCocycle):
        elementary_twist(w, np.ones((3, 3)))
    with pytest.raises(InvalidCocycle):
        elementary_twist(w, 2.0 * np.ones((2, 2)))
    lam = np.array([[1.0, 1.0j], [1.0j, 1.0]])
    with pytest.raises(InvalidCocycle):
        # not hermitian: lam[1,0] != conj(lam[0,1])
        elementary_twist(w, lam)


def test_twist_of_full_matrix_block_rejected():
    with pytest.raises(InvalidCocycle):
        untwist_isomorphism(elementary((1, 1)))


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (1, 1, 1)])
@pytest.mark.parametrize("seed", [0, 7])
def test_untwist_is_isomorphism(shape, seed):
    w0 = elementary(shape)
    lam = random_cocycle(len(shape), seed=seed)
    wt = elementary_twist(w0, lam)
    assert verify_weak_kac(wt).passed
    pi = untwist_isomorphism(wt)
    rep = check_morphism(wt, w0, pi)
    assert rep.passed, rep.as_text()


def test_trivial_cocycle_twist_is_identity():
    w0 = elementary((1, 2))
    wt = elementary_twist(w0, np.ones((2, 2)))
    assert np.abs(dense_coproduct(wt) - dense_coproduct(w0)).max() < 1e-12
    assert np.abs(wt.antipode - w0.antipode).max() < 1e-12


# ---------------------------------------------------------------------------
# cube family and crossed products
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cube_family_verifies(n):
    w = cube_family(n)
    assert w.dim == n ** 3
    assert tuple(w.algebra.block_shape) == (n,) * n
    assert verify_weak_kac(w).passed


def test_cube2_counit_vector():
    w = cube_family(2)
    assert np.abs(w.counit - np.array([1, 1, 1, 1, 0, 0, 0, 0])).max() < 1e-12


def test_cyclic_shift_action_is_valid():
    w, action = cyclic_shift_action(3)
    validate_action(w, action)


def test_invalid_actions_rejected():
    w, action = cyclic_shift_action(2)
    with pytest.raises(InvalidAction):
        GroupAction(action.group, action.mats[:1])
    bad = GroupAction(action.group, np.stack([action.mats[0], 2.0 * action.mats[1]]))
    with pytest.raises(InvalidAction):
        validate_action(w, bad)
    # right order mixed up: acting by g on the wrong side breaks the
    # composition rule for non-abelian groups only, so break the unit instead
    bad2 = GroupAction(action.group, np.stack([action.mats[1], action.mats[1]]))
    with pytest.raises(InvalidAction):
        validate_action(w, bad2)


@pytest.mark.parametrize("n", [2, 3])
def test_crossed_product_verifies(n):
    w = crossed_product(*cyclic_shift_action(n))
    assert w.dim == n ** 3
    assert tuple(w.algebra.block_shape) == (n,) * n
    assert verify_weak_kac(w).passed


@pytest.mark.parametrize("n", [2, 3])
def test_cube_isomorphic_to_crossed_product(n):
    crossed = crossed_product(*cyclic_shift_action(n))
    pi = cube_crossed_isomorphism(n, crossed)
    rep = check_morphism(crossed, cube_family(n), pi)
    assert rep.passed, rep.as_text()


# ---------------------------------------------------------------------------
# transport along a realization
# ---------------------------------------------------------------------------


def test_monomial_realizations_keep_the_abstract_nonzeros(monkeypatch):
    """A catalog member realized by rescaling a principal groupoid basis has
    exactly the nonzeros of its abstract coproduct; only the bases with
    isotropy take the split into minimal projections."""
    seen = []

    def recording(realization, t_abs, *args, **kwargs):
        w = transported_weak_kac(realization, t_abs, *args, **kwargs)
        monomial = monomial_rows(realization.from_canonical) is not None
        seen.append((monomial, np.count_nonzero(t_abs[3]), w.coproduct.nnz))
        return w

    monkeypatch.setattr(constructors, "transported_weak_kac", recording)
    monkeypatch.setattr(duality, "transported_weak_kac", recording)
    split = []
    for entry in catalog():
        start = len(seen)
        entry.build()
        for monomial, abstract, realized in seen[start:]:
            if monomial:
                assert realized == abstract, entry.name
            else:
                split.append(entry.name)
    groups = [f"group-algebra[{g}]" for g in ("z2", "z3", "disc")]
    functions = [f"dual(function-algebra[{g}])" for g in ("z2", "z3", "disc")]
    # the dual of a group algebra realizes the primal and then the dual
    duals = [f"dual({name})" for name in groups for _ in range(2)]
    assert sorted(split) == sorted(groups + duals + functions)
    assert len(seen) == 39


# ---------------------------------------------------------------------------
# direct sums
# ---------------------------------------------------------------------------


def test_direct_sum_concatenates_structure():
    w1 = get_example("fun_z2")
    w2 = get_example("group_z3")
    w = direct_sum(w1, w2)
    assert w.dim == w1.dim + w2.dim
    assert tuple(w.algebra.block_shape) == tuple(w1.algebra.block_shape) + tuple(
        w2.algebra.block_shape
    )
    assert np.abs(w.counit - np.concatenate([w1.counit, w2.counit])).max() < 1e-12
    assert verify_weak_kac(w).passed
