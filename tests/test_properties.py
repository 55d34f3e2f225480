"""Seeded property tests for the structural identities."""

import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wka import (
    cartan_subalgebras,
    crossed_product,
    cyclic_shift_action,
    dual,
    fusion_ring,
    groupoid_algebra,
    groupoid_function_algebra,
    haar_projection,
    verify_weak_kac,
    WeakKac,
    catalog,
)
from wka import constructors, duality
from wka.algebra import StarAlgebraData, WedderburnRealization, wedderburn_realize
from wka.catalog import named_groupoid
from wka.duality import check_pairing, dual_functional

from conftest import get_example, inner_automorphism, moved_along, rmat

NAMES = ["group_z3", "fun_k2", "elem_12", "cube2", "twist_11"]


@lru_cache(maxsize=None)
def setup(name):
    w = get_example(name)
    et = w.eps_t_matrix
    pair = cartan_subalgebras(w)
    return w, et, pair


def random_element(w, rng):
    return rng.normal(size=w.dim) + 1j * rng.normal(size=w.dim)


# ---------------------------------------------------------------------------
# counit and counital maps
# ---------------------------------------------------------------------------


def test_counit_of_unit_is_cartan_dimension():
    for name in NAMES:
        w, _, pair = setup(name)
        assert abs(w.counit @ w.algebra.unit - pair.target.dim) < 1e-8


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(NAMES), seed=st.integers(0, 2 ** 32 - 1))
def test_counit_gns_form_identity(name, seed):
    # eps(eps_t(x)* eps_t(y)) = eps(x* y)
    w, et, _ = setup(name)
    alg = w.algebra
    rng = np.random.default_rng(seed)
    x, y = random_element(w, rng), random_element(w, rng)
    lhs = w.counit @ alg.mul(alg.star(et @ x), et @ y)
    rhs = w.counit @ alg.mul(alg.star(x), y)
    assert abs(lhs - rhs) < 1e-8


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(NAMES), seed=st.integers(0, 2 ** 32 - 1))
def test_counital_map_is_a_bimodule_map(name, seed):
    # eps_t(n S(n') x) = n eps_t(x) n' for n, n' in N_t
    w, et, pair = setup(name)
    alg = w.algebra
    rng = np.random.default_rng(seed)
    x = random_element(w, rng)
    n1 = pair.target.basis @ rng.normal(size=pair.target.dim)
    n2 = pair.target.basis @ rng.normal(size=pair.target.dim)
    lhs = et @ alg.mul(n1, alg.mul(w.antipode @ n2, x))
    rhs = alg.mul(n1, alg.mul(et @ x, n2))
    assert np.abs(lhs - rhs).max() < 1e-8


# ---------------------------------------------------------------------------
# Haar projection support
# ---------------------------------------------------------------------------


def test_left_ideal_of_haar_projection():
    # dim(M p) = dim N_t and x p = eps_t(x) p for every basis element
    for name in NAMES:
        w, et, pair = setup(name)
        alg = w.algebra
        p = haar_projection(w).coeffs
        images = np.stack([alg.mul(np.eye(w.dim)[a], p) for a in range(w.dim)])
        assert np.linalg.matrix_rank(images, tol=1e-9) == pair.target.dim
        for a in range(w.dim):
            x = np.eye(w.dim)[a]
            assert np.abs(alg.mul(x, p) - alg.mul(et @ x, p)).max() < 1e-9


# ---------------------------------------------------------------------------
# positivity of e
# ---------------------------------------------------------------------------


def test_multiplying_e_never_annihilates():
    # e(1 x x) = 0 or e(x x 1) = 0 forces x = 0
    for name in NAMES:
        w, _, _ = setup(name)
        alg = w.algebra
        e = w.e_matrix
        rng = np.random.default_rng(17)
        for _ in range(20):
            x = random_element(w, rng)
            rx = rmat(alg, x)
            assert np.abs(e @ rx.T).max() > 1e-6
            assert np.abs(rx @ e).max() > 1e-6


# ---------------------------------------------------------------------------
# pairing identities
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def dual_setup(name):
    w, _, _ = setup(name)
    dw = dual(w)
    pairing = np.stack(
        [dual_functional(dw, np.eye(w.dim)[p]).vec for p in range(w.dim)]
    )
    return w, dw, pairing


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(NAMES), seed=st.integers(0, 2 ** 32 - 1))
def test_dual_coproduct_pairs_with_products(name, seed):
    # <Delta-hat(a), x (x) y> = <a, x y>
    w, dw, pairing = dual_setup(name)
    rng = np.random.default_rng(seed)
    a = random_element(dw, rng)
    x, y = random_element(w, rng), random_element(w, rng)
    lhs = (pairing @ x) @ dw.delta(a) @ (pairing @ y)
    rhs = dual_functional(dw, a).vec @ w.algebra.mul(x, y)
    assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(NAMES), seed=st.integers(0, 2 ** 32 - 1))
def test_dual_product_pairs_with_coproduct(name, seed):
    # <a b, x> = <a (x) b, Delta(x)>
    w, dw, pairing = dual_setup(name)
    rng = np.random.default_rng(seed)
    a, b = random_element(dw, rng), random_element(dw, rng)
    x = random_element(w, rng)
    lhs = dual_functional(dw, dw.algebra.mul(a, b)).vec @ x
    rhs = (a @ pairing) @ w.delta(x) @ (b @ pairing)
    assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_verification_reports_are_deterministic():
    for name in ("cube2", "twist_11"):
        w = get_example(name)
        assert verify_weak_kac(w).as_json() == verify_weak_kac(w).as_json()


# ---------------------------------------------------------------------------
# independence of the realized matrix-unit basis
# ---------------------------------------------------------------------------


# inputs that take the split of wedderburn_realize as given: bases with
# isotropy
SPLIT = [
    "group-algebra[z3]",
    "group-algebra[disc]",
    "dual(function-algebra[z3])",
    "dual(function-algebra[disc])",
]
# principal groupoid bases: rescaled as given, split once moved
MONOMIAL = ["group-algebra[k3]", "crossed[2]", "cube3", "elem_12", "twist_11"]


def _built(name):
    """(primal, algebra under test), built afresh: a constructor's algebra
    is its own primal, a dual is paired with the algebra it was taken of."""
    if name.startswith("group-algebra["):
        w = groupoid_algebra(named_groupoid(name[14:-1]))
        return w, w
    if name == "crossed[2]":
        w = crossed_product(*cyclic_shift_action(2))
        return w, w
    if name.startswith("dual(function-algebra["):
        primal = groupoid_function_algebra(named_groupoid(name[22:-2]))
    else:
        primal = get_example.__wrapped__(name)
    return primal, dual(primal)


def _realize_in_random_basis(rng):
    """wedderburn_realize on the presentation moved to a random unitary
    basis b'_a = sum_m g[m, a] b_m, its result carried back to the given one."""

    def realize(data, tol=None):
        n = data.dim
        g = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        ginv = g.conj().T
        mult = np.zeros((n, n, n), dtype=complex)
        np.add.at(mult, tuple(data.products[:3]), data.products[3])
        mult = np.einsum("ma,nb,mnk,ck->abc", g, g, mult, ginv, optimize=True)
        p, q, m = np.nonzero(mult)
        moved = StarAlgebraData(
            (p, q, m, mult[p, q, m]), ginv @ data.star @ np.conj(g), ginv @ data.unit, g.T @ data.gns
        )
        real = wedderburn_realize(moved, tol)
        return WedderburnRealization(
            real.algebra, real.to_canonical @ ginv, g @ real.from_canonical, real.residual
        )

    return realize


def _relabelings(shape):
    """Permutations of the blocks that keep each block's size."""
    for perm in itertools.permutations(range(len(shape))):
        if all(shape[i] == shape[j] for i, j in enumerate(perm)):
            yield list(perm)


@pytest.mark.parametrize("name", SPLIT + MONOMIAL)
def test_verdicts_do_not_depend_on_the_realized_basis(name, monkeypatch):
    """The presentation behind each input is realized as given and after 4
    random unitary changes of its abstract basis.  The block shape, the
    verdicts, the Cartan shapes and the fusion table (up to relabeling
    blocks of equal size) must not move, and the dual must pair."""
    rng = np.random.default_rng(0xBA515)
    first = None
    for draw in range(5):
        with monkeypatch.context() as patch:
            if draw:
                for module in (constructors, duality):
                    patch.setattr(module, "wedderburn_realize", _realize_in_random_basis(rng))
            primal, realized = _built(name)
        pair = cartan_subalgebras(realized)
        ring, fusion_report = fusion_ring(realized)
        dw = realized if primal is not realized else dual(primal)
        assert check_pairing(primal, dw).passed, draw
        found = (
            realized.algebra.block_shape,
            verify_weak_kac(realized).passed,
            pair.report.passed,
            pair.source_shape,
            pair.target_shape,
            fusion_report.passed,
        )
        assert found[1:3] == (True, True), draw
        if first is None:
            first, table = found, ring.table
            continue
        assert found == first, draw
        assert any(
            np.array_equal(table[np.ix_(s, s, s)], ring.table)
            for s in _relabelings(found[0])
        ), draw


# ---------------------------------------------------------------------------
# metamorphic: inner automorphisms move the basis, not the structure
# ---------------------------------------------------------------------------


def _invariants(w):
    rep = verify_weak_kac(w)
    pair = cartan_subalgebras(w)
    ring, fusion_report = fusion_ring(w)
    found = (
        [(c.name, c.passed) for c in rep.checks],
        pair.report.passed,
        pair.source_shape,
        pair.target_shape,
        fusion_report.passed,
    )
    return found, ring.table


def test_inner_automorphisms_keep_verdicts_cartan_shapes_and_fusion():
    """Every catalog member of dimension <= 27, moved along a seeded random
    block-unitary inner automorphism, keeps its verdicts, Cartan shapes and
    fusion table (up to relabeling blocks of equal size)."""
    rng = np.random.default_rng(0x1AA)
    checked = 0
    for entry in catalog():
        w = entry.build()
        if w.dim > 27:
            continue
        found, table = _invariants(w)
        moved, moved_table = _invariants(moved_along(w, inner_automorphism(w.algebra, rng)))
        assert moved == found, entry.name
        assert any(
            np.array_equal(table[np.ix_(s, s, s)], moved_table)
            for s in _relabelings(w.algebra.block_shape)
        ), entry.name
        checked += 1
    assert checked == 52
