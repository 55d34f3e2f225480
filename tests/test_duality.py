"""Duality: dual construction, pairing, biduality, counit recovery."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from wka import (
    Tolerance,
    biduality_isomorphism,
    catalog,
    check_pairing,
    counit_from_haar,
    cube_family,
    dual,
    dual_elementary,
    elementary,
    generalized_to_weak,
    groupoid_dual_isomorphisms,
    haar_projection,
    normalized_haar_trace,
    pair_groupoid,
    verify_weak_kac,
)
from wka import duality, haar, weakkac
from wka.duality import convolution_unit, dual_element, dual_functional
from wka.haar import (
    check_normalized_haar_trace,
    haar_conditional_expectations,
    haar_trace_cone,
)
from wka.weakkac import cartan_subalgebras

from conftest import get_example, inner_automorphism, moved_along

EXAMPLES = ["group_z3", "fun_k2", "elem_12", "cube2", "crossed2", "twist_11"]


# ---------------------------------------------------------------------------
# the dual weak Kac algebra
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", EXAMPLES)
def test_dual_verifies_and_pairs(name):
    w = get_example(name)
    dw = dual(w)
    assert verify_weak_kac(dw).passed
    rep = check_pairing(w, dw)
    assert rep.passed, rep.as_text()


@pytest.mark.parametrize(
    "name,shape",
    [
        ("group_k2", (1, 1, 1, 1)),
        ("fun_k3", (3,)),
        ("elem_12", (1, 2, 2, 4)),
        ("cube2", (2, 2)),
        ("group_z3", (1, 1, 1)),
    ],
)
def test_dual_block_shapes(name, shape):
    builders = {
        "group_k2": lambda: get_example("group_k2"),
        "fun_k3": lambda: get_example("fun_k3"),
        "elem_12": lambda: get_example("elem_12"),
        "cube2": lambda: get_example("cube2"),
        "group_z3": lambda: get_example("group_z3"),
    }
    dw = dual(builders[name]())
    assert tuple(dw.algebra.block_shape) == shape


def test_dual_of_elementary_matches_direct_model():
    dw = dual(elementary((1, 2)))
    direct = dual_elementary((1, 2))
    assert tuple(dw.algebra.block_shape) == tuple(direct.algebra.block_shape)


def test_dual_of_dual_elementary_is_full_matrix_block():
    dw = dual(get_example("dualelem_12"))
    assert tuple(dw.algebra.block_shape) == (5,)


def test_dual_swaps_cartan_dimensions():
    for name in ("fun_k2", "cube2", "elem_12"):
        w = get_example(name)
        dw = dual(w)
        pair = cartan_subalgebras(w)
        dpair = cartan_subalgebras(dw)
        assert dpair.target.dim == pair.target.dim
        assert dpair.source.dim == pair.source.dim


def test_dual_counit_is_evaluation_at_unit():
    w = get_example("cube2")
    dw = dual(w)
    carry = dw.meta["to_canonical"]
    assert np.abs(dw.counit @ carry - w.algebra.unit).max() < 1e-12


def test_dual_is_built_once_per_tolerance():
    w = cube_family(2)
    assert dual(w) is dual(w)
    assert dual(w, 1e-9) is dual(w)
    assert dual(w, 1e-8) is not dual(w, 1e-9)
    # seed is an ignored keyword: it names no second dual
    assert dual(w, seed=1) is dual(w)


def test_algebra_and_memoized_dual_are_freed_without_the_cyclic_collector():
    w = cube_family(2)
    dw = dual(w)
    refs = [weakref.ref(w), weakref.ref(dw)]
    gc.disable()
    try:
        del w, dw
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_haar_structures_realize_the_dual_once(monkeypatch):
    w = cube_family(2)
    real, calls = duality.wedderburn_realize, []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (duality, weakkac):
        monkeypatch.setattr(module, "wedderburn_realize", counting)
    check_normalized_haar_trace(w)
    haar_trace_cone(w)
    haar_conditional_expectations(w)
    assert len(calls) == 1


def test_haar_trace_cone_is_solved_once(monkeypatch):
    # the trace conditions on the block traces are formed and solved once,
    # and the normalized trace, its check and the cone all read that one
    # null space
    w = cube_family(2)
    real_rows, real_null, rows, solves = haar._haar_trace_rows, haar.nullspace, [], []

    def counting_rows(w, phis):
        out = real_rows(w, phis)
        rows.append(out)
        return out

    def counting_null(a, *args, **kwargs):
        solves.extend(a.shape for r in rows if a is r)
        return real_null(a, *args, **kwargs)

    monkeypatch.setattr(haar, "_haar_trace_rows", counting_rows)
    monkeypatch.setattr(haar, "nullspace", counting_null)
    normalized_haar_trace(w)
    check_normalized_haar_trace(w)
    rays, rep = haar_trace_cone(w)
    haar_conditional_expectations(w)
    assert solves == [(rows[0].shape[0], w.algebra.nblocks)]
    assert haar_trace_cone(w)[1] is rep


def test_rays_are_sums_of_the_dual_haar_projection_components():
    # the duality behind the cone, as an oracle: each dual-block component
    # of the dual Haar projection, carried back through the pairing, lies
    # on the blocks of one hyper-central class, and the components of a
    # class sum to its ray (coefficients 1).  A component alone need not be
    # a Haar trace: cocommutativity couples several into one ray, as on
    # elementary[1,2].
    rng = np.random.default_rng(0x1AA)
    checked = 0
    for entry in catalog():
        w = entry.build()
        moved = [moved_along(w, inner_automorphism(w.algebra, rng))] if w.dim <= 27 else []
        for v in [w, *moved]:
            rays, _ = haar_trace_cone(v)
            classes = weakkac._hyper_central_classes(v, Tolerance())[v.algebra.basis_block]
            dv = dual(v)
            p_hat = haar_projection(dv).coeffs
            sums = np.zeros((v.dim, len(rays)), dtype=complex)
            for i in range(dv.algebra.nblocks):
                part = dv.meta["from_canonical"] @ dv.algebra.mul(dv.algebra.block_identity(i), p_hat)
                (c,) = set(classes[np.abs(part) > 1e-9]) or {0}
                sums[:, c] += part
            assert np.abs(sums - np.stack([r.vec for r in rays], axis=1)).max() <= 1e-9, entry.name
            checked += 1
    assert checked == 107


# ---------------------------------------------------------------------------
# dual elements and functionals
# ---------------------------------------------------------------------------


def test_dual_element_functional_round_trip():
    w = get_example("elem_12")
    dw = dual(w)
    rng = np.random.default_rng(3)
    v = rng.normal(size=w.dim) + 1j * rng.normal(size=w.dim)
    assert np.abs(dual_functional(dw, dual_element(dw, v)).vec - v).max() < 1e-10
    x = rng.normal(size=dw.dim)
    assert np.abs(dual_element(dw, dual_functional(dw, x)).coeffs - x).max() < 1e-10


def test_haar_trace_pairs_with_dual_haar_projection():
    # the normalized trace on M is the Haar projection of the dual
    for name in ("fun_k2", "cube2", "twist_11"):
        w = get_example(name)
        dw = dual(w)
        phi = normalized_haar_trace(w)
        assert (
            np.abs(dual_element(dw, phi).coeffs - haar_projection(dw).coeffs).max()
            < 1e-8
        )


def test_convolution_unit_represents_counit():
    w = get_example("cube2")
    phi = normalized_haar_trace(w)
    u = convolution_unit(w, phi)
    pairing = phi.pairing()
    assert np.abs(pairing @ u.coeffs - w.counit).max() < 1e-10


# ---------------------------------------------------------------------------
# biduality
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", EXAMPLES)
def test_biduality(name):
    w = get_example(name)
    iota, dd, rep = biduality_isomorphism(w)
    assert rep.passed, rep.as_text()
    assert dd.dim == w.dim
    assert tuple(sorted(dd.algebra.block_shape)) == tuple(
        sorted(w.algebra.block_shape)
    )


# ---------------------------------------------------------------------------
# groupoid duality: convolution algebra vs function algebra
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_groupoid_duality(n):
    duality = groupoid_dual_isomorphisms(pair_groupoid(n))
    assert duality.report.passed, duality.report.as_text()
    assert duality.convolution.dim == n * n
    assert tuple(duality.dual_of_convolution.algebra.block_shape) == tuple(
        duality.functions.algebra.block_shape
    )


# ---------------------------------------------------------------------------
# counit recovery from the Haar trace
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["fun_k2", "cube2", "elem_12", "group_z3"])
def test_counit_recovery_round_trip(name):
    w = get_example(name)
    data = (w.algebra, w.coproduct, w.antipode)
    phi = normalized_haar_trace(w)
    eps = counit_from_haar(data, phi)
    assert np.abs(eps.vec - w.counit).max() < 1e-7
    rebuilt = generalized_to_weak(data, phi)
    assert verify_weak_kac(rebuilt).passed
    assert np.abs(rebuilt.counit - w.counit).max() < 1e-7


def test_counit_recovery_holds_few_dense_arrays():
    """On a built cube_family(8) (d = 512), with its normalized Haar trace
    given, generalized_to_weak keeps its traced peak below three dense
    d x d complex arrays (12.6 MB): Phi[a, b] = phi(b_a b_b) and the copy
    that np.linalg.solve factors for u = Phi^-1 v.  The counit equations
    hold one entry per coproduct nonzero in each half; the Phi-weighted
    unit system they replace held about 66 such arrays."""
    w = cube_family(8)
    phi = normalized_haar_trace(w)
    tracemalloc.start()
    try:
        rebuilt = generalized_to_weak(w, phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.abs(rebuilt.counit - w.counit).max() <= 1e-12
    assert peak < 3 * w.dim ** 2 * 16, peak


def test_cube_recovered_counit_vector():
    w = cube_family(2)
    eps = counit_from_haar((w.algebra, w.coproduct, w.antipode), normalized_haar_trace(w))
    assert np.abs(eps.vec - np.array([1, 1, 1, 1, 0, 0, 0, 0])).max() < 1e-10
