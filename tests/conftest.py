"""Shared fixtures: cached example algebras reused across test modules."""

from functools import lru_cache

import numpy as np
import pytest

from wka import (
    WeakKac,
    crossed_product,
    cube_family,
    cyclic_groupoid,
    cyclic_shift_action,
    disjoint_union,
    dual_elementary,
    elementary,
    elementary_twist,
    groupoid_algebra,
    groupoid_function_algebra,
    pair_groupoid,
    random_cocycle,
)


@lru_cache(maxsize=None)
def get_example(name):
    """Build one of the named example algebras (cached per session)."""
    builders = {
        "group_z2": lambda: groupoid_algebra(cyclic_groupoid(2)),
        "group_z3": lambda: groupoid_algebra(cyclic_groupoid(3)),
        "group_k2": lambda: groupoid_algebra(pair_groupoid(2)),
        "group_k3": lambda: groupoid_algebra(pair_groupoid(3)),
        "fun_z2": lambda: groupoid_function_algebra(cyclic_groupoid(2)),
        "fun_k2": lambda: groupoid_function_algebra(pair_groupoid(2)),
        "fun_k3": lambda: groupoid_function_algebra(pair_groupoid(3)),
        "fun_disc": lambda: groupoid_function_algebra(
            disjoint_union(cyclic_groupoid(2), cyclic_groupoid(1))
        ),
        "elem_12": lambda: elementary((1, 2)),
        "elem_11": lambda: elementary((1, 1)),
        "dualelem_12": lambda: dual_elementary((1, 2)),
        "cube2": lambda: cube_family(2),
        "cube3": lambda: cube_family(3),
        "crossed2": lambda: crossed_product(*cyclic_shift_action(2)),
        "twist_11": lambda: elementary_twist(elementary((1, 1)), random_cocycle(2, seed=7)),
        "twist_12": lambda: elementary_twist(elementary((1, 2)), random_cocycle(2, seed=3)),
    }
    return builders[name]()


def dense_coproduct(w):
    """The coproduct of w as a dense (d, d, d) array: (id (x) id) Delta."""
    return w.pair_leg(np.eye(w.dim), 1)


def moved_entry(w):
    """w with one coproduct entry moved to a zero position of its row."""
    t = dense_coproduct(w)
    i = np.flatnonzero((t == 0).any(axis=(1, 2)))[0]
    (j, k), (j2, k2) = np.argwhere(t[i] != 0)[0], np.argwhere(t[i] == 0)[0]
    t[i, j2, k2], t[i, j, k] = t[i, j, k], 0
    return WeakKac(w.algebra, t, w.antipode, w.counit)


def with_noise(w, density=0.0, seed=5):
    """w with 1e-3 complex noise on the nonzeros of its coproduct and on a
    random share `density` of its zeros."""
    rng = np.random.default_rng(seed)
    t = dense_coproduct(w)
    noise = 1e-3 * (rng.standard_normal(t.shape) + 1j * rng.standard_normal(t.shape))
    noise[(t == 0) & (rng.random(t.shape) >= density)] = 0
    return WeakKac(w.algebra, t + noise, w.antipode, w.counit)


@pytest.fixture
def example():
    return get_example
