"""Numeric kernel: rank factorization, subspaces, affine solver."""

import numpy as np
import pytest

from wka import Tolerance, rank_factorization, solve_affine_space
from wka.errors import Inconsistent
from wka.tensorkit import (
    dagger,
    max_abs,
    nullspace,
    numerical_rank,
    orthonormal_columns,
    subspace_contains,
    subspace_distance,
)

RNG = np.random.default_rng(20240811)


def rand_c(*shape):
    return RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)


def test_numerical_rank_ignores_noise_below_the_cutoff():
    x, y = rand_c(7, 3), rand_c(3, 5)
    mat = x @ y
    assert numerical_rank(mat) == 3
    assert numerical_rank(mat + 1e-13 * rand_c(7, 5)) == 3
    assert numerical_rank(mat + 1e-3 * rand_c(7, 5)) == 5
    # sigma_max is floored at 1, so a matrix of pure noise has rank 0
    assert numerical_rank(1e-12 * rand_c(4, 4)) == 0
    assert numerical_rank(mat, Tolerance(abs_tol=1e-1)) <= 3


def test_rank_factorization_reconstructs_low_rank():
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        r = int(rng.integers(1, 4))
        x = rng.standard_normal((6, r)) + 1j * rng.standard_normal((6, r))
        y = rng.standard_normal((r, 5)) + 1j * rng.standard_normal((r, 5))
        mat = x @ y
        xs, ys = rank_factorization(mat)
        assert len(xs) == np.linalg.matrix_rank(mat)
        recon = sum(np.outer(u, v) for u, v in zip(xs, ys))
        worst = max(worst, max_abs(recon - mat))
    assert worst < 1e-9


def test_rank_factorization_star_closed_left_factors():
    # star: entrywise conjugation composed with a fixed swap, an antilinear
    # involution on C^4
    perm = np.array([1, 0, 3, 2])

    def star(v):
        return np.conj(v)[perm]

    # the left factor span must itself be star-invariant, as holds for the
    # coefficient matrix of e in a weak Kac algebra
    rng = np.random.default_rng(5)
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    x = np.stack([u, star(u)], axis=1)
    mat = x @ (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
    xs, ys = rank_factorization(mat, star_left=star)
    recon = sum(np.outer(u, v) for u, v in zip(xs, ys))
    assert max_abs(recon - mat) < 1e-9
    span = np.stack(xs, axis=1)
    starred = np.stack([star(u) for u in xs], axis=1)
    assert subspace_distance(span, np.concatenate([span, starred], axis=1)) < 1e-9


def test_solve_affine_space_underdetermined():
    # x = x puts no constraint: full 3-dimensional solution space
    space = solve_affine_space([(np.zeros((1, 3)), np.zeros(1))])
    assert space.null.shape[1] == 3
    assert not space.unique


def test_solve_affine_space_unique_point():
    a = np.array([[1.0, 1.0], [1.0, -1.0]])
    b = np.array([1.0, 1.0])
    space = solve_affine_space([(a, b)])
    assert space.unique
    assert max_abs(space.particular - np.array([1.0, 0.0])) < 1e-12


def test_solve_affine_space_haar_equations_group_z2():
    # Haar projection equations for the group algebra of Z/2 on the basis
    # (1, g): p self-adjoint idempotent with g p = p and eps_t(p) = 1 force
    # p = (1 + g)/2.  Oracle: brute force over the 2-dim coefficient space.
    # In coefficients (x0, x1): g * (x0 + x1 g) = x1 + x0 g, so invariance
    # g p = p reads x0 = x1; normalization eps(p) = 1 reads x0 + x1 = 1.
    space = solve_affine_space(
        [
            (np.array([[1.0, -1.0]]), np.zeros(1)),
            (np.array([[1.0, 1.0]]), np.ones(1)),
        ]
    )
    assert space.unique
    assert max_abs(space.particular - np.array([0.5, 0.5])) < 1e-12


def test_solve_affine_space_inconsistent():
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    b = np.array([0.0, 1.0])
    with pytest.raises(Inconsistent):
        solve_affine_space([(a, b)])


def test_solver_residual_below_threshold_for_solvable_systems():
    for trial in range(50):
        rng = np.random.default_rng(trial)
        a = rng.standard_normal((4, 6))
        x = rng.standard_normal(6)
        space = solve_affine_space([(a, a @ x)])
        assert space.residual <= 1e-8
        assert max_abs(a @ space.particular - a @ x) <= 1e-8


def test_nullspace_and_subspace_helpers():
    a = np.array([[1.0, 1.0, 0.0]])
    ns = nullspace(a)
    assert ns.shape == (3, 2)
    assert max_abs(a @ ns) < 1e-12
    assert max_abs(dagger(ns) @ ns - np.eye(2)) < 1e-12
    q = orthonormal_columns(rand_c(5, 3))
    assert max_abs(dagger(q) @ q - np.eye(q.shape[1])) < 1e-12
    assert subspace_contains(q, q[:, :1]) < 1e-12
    assert subspace_distance(q, q @ rand_c(3, 3)) < 1e-9


def test_tolerance_rank_cutoff_scales():
    tol = Tolerance(abs_tol=1e-9)
    assert tol.rank_cutoff((10, 4), 100.0) == pytest.approx(10 * 1e-9 * 100.0)
    # the scale floor keeps the cutoff meaningful for tiny matrices
    assert tol.rank_cutoff((3, 3), 1e-30) == pytest.approx(3 * 1e-9)
