"""Numeric kernel: rank factorization, subspaces, affine solver."""

import numpy as np
import pytest

from wka import Tolerance, rank_factorization, solve_affine_space
from wka.errors import Inconsistent
from wka.tensorkit import (
    _table,
    as_tol,
    block_nullspace,
    block_positive_definite,
    block_range,
    components,
    dagger,
    max_abs,
    nullspace,
    numerical_rank,
    orthonormal_columns,
    positive_definite,
    solve_by_components,
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

    # both factor spans must themselves be star-invariant, as holds for the
    # coefficient matrix of e in a weak Kac algebra
    rng = np.random.default_rng(5)
    u, v = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    x, y = np.stack([u, star(u)], axis=1), np.stack([v, star(v)], axis=1)
    mat = x @ (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) @ y.T
    xs, ys = rank_factorization(mat, star=star)
    recon = sum(np.outer(u, v) for u, v in zip(xs, ys))
    assert max_abs(recon - mat) < 1e-9
    for factors in (xs, ys):
        span = np.stack(factors, axis=1)
        starred = np.stack([star(u) for u in factors], axis=1)
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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, 0.0, -0.0])
def test_tolerance_must_be_positive_and_finite(value):
    with pytest.raises(ValueError, match="positive and finite"):
        Tolerance(abs_tol=value)
    with pytest.raises(ValueError, match="positive and finite"):
        as_tol(value)


def test_solve_affine_space_inconsistent():
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    b = np.array([0.0, 1.0])
    with pytest.raises(Inconsistent) as info:
        solve_affine_space([(a, b)])
    # the least-squares point travels with the exception
    assert max_abs(info.value.space.particular - np.array([0.5, 0.0])) < 1e-12
    assert info.value.space.residual == pytest.approx(0.5)


def test_zero_rows_change_the_cutoff_but_not_the_factorization(monkeypatch):
    # singular values 1, 1e-8 and 0: 1e-8 lies above the cutoff of the
    # 4 x 3 system (4e-9) and below that of the system padded to 40 x 3
    # (4e-8), so the padded rank is counted at the padded shape
    u, _ = np.linalg.qr(rand_c(4, 3))
    v, _ = np.linalg.qr(rand_c(3, 3))
    a = (u * [1.0, 1e-8, 0.0]) @ dagger(v)
    b = (2.0 - 1.0j) * u[:, 0]
    padded = np.zeros((40, 3), dtype=complex)
    padded[::10] = a
    padded_b = np.zeros(40, dtype=complex)
    padded_b[::10] = b
    assert numerical_rank(a) == 2 and numerical_rank(padded) == 1
    assert nullspace(a).shape == (3, 1)
    null_ref = ref_nullspace(padded)
    x_ref = ref_solve(padded, padded_b)[0]
    x_ref = x_ref - null_ref @ (dagger(null_ref) @ x_ref)

    shapes = []
    real_svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        shapes.append(np.shape(args[0]))
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    null = nullspace(padded)
    space = solve_affine_space([(padded, padded_b)])
    # no factorization saw a zero row: the R factor of the 4 nonzero rows
    # (a stack of one), and the 4 nonzero rows of [A | b]
    assert shapes == [(1, 3, 3), (4, 3)]
    # the padded results are those of the dense references at the padded shape
    assert null.shape == (3, 2) and subspace_distance(null, null_ref) < 1e-12
    assert subspace_distance(space.null, null_ref) < 1e-12
    assert max_abs(space.particular - x_ref) < 1e-12


@pytest.mark.parametrize("consistent", [True, False], ids=["consistent", "inconsistent"])
def test_affine_systems_are_ranked_at_the_shape_they_are_given_in(consistent):
    # singular values 1, 1e-8 and 0, as above: rank 2 at the 4 x 3 shape of
    # the nonzero rows, rank 1 at the 40 x 3 shape of the system padded with
    # zero rows, whose null space also holds the direction at 1e-8
    u, _ = np.linalg.qr(rand_c(4, 4))
    v, _ = np.linalg.qr(rand_c(3, 3))
    a = (u[:, :3] * [1.0, 1e-8, 0.0]) @ dagger(v)
    b = (2.0 - 1.0j) * u[:, 0] + (0.0 if consistent else 0.5) * u[:, 3]
    padded = np.zeros((40, 3), dtype=complex)
    padded[::10] = a
    padded_b = np.zeros(40, dtype=complex)
    padded_b[::10] = b

    def solve(system):
        try:
            return True, solve_affine_space([system])
        except Inconsistent as exc:
            return False, exc.space

    ok, rows = solve((a, b))
    ok_padded, full = solve((padded, padded_b))
    assert ok == ok_padded == consistent
    assert rows.null.shape == (3, 1) and full.null.shape == (3, 2)
    # the null direction at its own shape is told from the one at 1e-8 to
    # about eps / 1e-8
    assert subspace_distance(rows.null, v[:, 2:]) < 1e-6
    assert subspace_distance(full.null, v[:, 1:]) < 1e-12


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


# ---------------------------------------------------------------------------
# oracles: the rank primitives against plain lstsq + full SVD references
# ---------------------------------------------------------------------------


def ref_nullspace(a, tol=None):
    tol = Tolerance() if tol is None else tol
    a = np.asarray(a, dtype=complex)
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    cutoff = tol.rank_cutoff(a.shape, s[0] if s.size else 0.0)
    return dagger(vh)[:, int(np.sum(s > cutoff)) :]


def ref_solve(a, b, tol=None):
    """(particular, null) or None when inconsistent, by lstsq and a
    separate null-space SVD."""
    tol = Tolerance() if tol is None else tol
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    if max_abs(a @ x - b) > 10.0 * tol.abs_tol:
        return None
    return x, ref_nullspace(a, tol)


def oracle_systems():
    """(name, A, b) over random complex systems of every shape, each with a
    right-hand side in the range of A truncated at its numerical rank and
    a generic one (inconsistent where A has a cokernel)."""
    rng = np.random.default_rng(777)

    def c(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    cutoff = Tolerance().rank_cutoff((40, 8), 1.0)
    # a very tall system with noise between the cutoffs at the shape of its
    # R factor (5 x 4) and at its own shape (400 x 4)
    tall = c(400, 2) @ c(2, 4)
    smax = np.linalg.svd(tall, compute_uv=False)[0]
    between = np.sqrt(Tolerance().rank_cutoff((5, 4), smax) * Tolerance().rank_cutoff((400, 4), smax))
    noise = c(400, 4)
    mats = [
        ("tall", c(40, 8)),
        ("wide", c(5, 12)),
        ("square", c(9, 9)),
        ("tall_deficient", c(40, 3) @ c(3, 8)),
        ("wide_deficient", c(5, 2) @ c(2, 12)),
        ("square_deficient", c(9, 4) @ c(4, 9)),
        ("zero", np.zeros((6, 4), dtype=complex)),
        ("noise_below_cutoff", c(40, 3) @ c(3, 8) + 1e-2 * cutoff * c(40, 8)),
        ("noise_above_cutoff", c(40, 3) @ c(3, 8) + 1e2 * cutoff * c(40, 8)),
        ("noise_between_shapes", tall + between * noise / np.linalg.svd(noise, compute_uv=False)[0]),
    ]
    for name, a in mats:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
        r = a.shape[1] - ref_nullspace(a).shape[1]
        yield name + "_consistent", a, (u[:, :r] * s[:r]) @ (vh[:r] @ c(a.shape[1]))
        yield name + "_generic", a, c(a.shape[0])


ORACLE_SYSTEMS = list(oracle_systems())


@pytest.mark.parametrize("name,a,b", ORACLE_SYSTEMS, ids=[s[0] for s in ORACLE_SYSTEMS])
def test_rank_primitives_match_lstsq_and_svd_oracles(name, a, b):
    assert numerical_rank(a) == a.shape[1] - ref_nullspace(a).shape[1]
    null = nullspace(a)
    assert null.shape == ref_nullspace(a).shape
    assert subspace_distance(null, ref_nullspace(a)) < 1e-12
    want = ref_solve(a, b)
    if want is None:
        with pytest.raises(Inconsistent):
            solve_affine_space([(a, b)])
        return
    space = solve_affine_space([(a, b)])
    x_ref, null_ref = want
    assert subspace_distance(space.null, null_ref) < 1e-12
    # lstsq keeps directions below the rank cutoff that the affine solve
    # leaves in the null space: compare off the null space
    x_ref = x_ref - null_ref @ (dagger(null_ref) @ x_ref)
    assert max_abs(space.particular - x_ref) < 1e-12


def test_solve_affine_space_factors_once_without_lstsq(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solve_affine_space called lstsq")

    svds = []
    real_svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        svds.append(np.shape(args[0]))
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    a = rand_c(30, 4) @ rand_c(4, 6)
    space = solve_affine_space([(a, a @ rand_c(6))])
    assert space.null.shape[1] == 2
    # one SVD, of the 7 x 6 part of the R factor of [A | b]
    assert svds == [(7, 6)]


def test_nullspace_decomposes_the_r_factor_of_a_tall_system(monkeypatch):
    shapes = []
    real_svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        shapes.append(np.shape(args[0]))
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    a = rand_c(500, 3) @ rand_c(3, 5)
    assert nullspace(a).shape == (5, 2)
    assert shapes == [(1, 5, 5)]


def test_positive_definite_reads_the_hermitian_part():
    g = np.diag([2.0, 1.0, 1e-12]).astype(complex)
    ok, min_eig = positive_definite(g)
    assert not ok and min_eig == pytest.approx(1e-12)
    assert positive_definite(g + 1e-6 * np.eye(3))[0]
    # an antihermitian part does not change the verdict or the eigenvalue
    skew = np.array([[0, 1j, 0], [1j, 0, 0], [0, 0, 0]])
    assert positive_definite(np.eye(3) + skew) == (True, pytest.approx(1.0))
    assert positive_definite(-np.eye(2)) == (False, pytest.approx(-1.0))


def test_subspace_helpers_follow_the_tolerance():
    # a direction at 1e-6: inside the span at the default cutoff (3e-9),
    # noise at abs_tol = 1e-4 (cutoff 3e-4)
    basis = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1e-6]], dtype=complex)
    e3 = np.array([0.0, 0.0, 1.0])
    loose = Tolerance(abs_tol=1e-4)
    assert subspace_contains(basis, e3) < 1e-12
    assert subspace_contains(basis, e3, loose) == pytest.approx(1.0)
    assert subspace_distance(basis, basis[:, :1]) == pytest.approx(1.0)
    assert subspace_distance(basis, basis[:, :1], loose) < 1e-12
    assert numerical_rank(basis) == 2 and numerical_rank(basis, loose) == 1
    assert np.linalg.svd(basis, compute_uv=False)[-1] == pytest.approx(1e-6)


def _block_diag(blocks):
    rows, cols = sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols), dtype=complex)
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def _with_singular_values(m, n, s):
    u, _ = np.linalg.qr(rand_c(m, m))
    v, _ = np.linalg.qr(rand_c(n, n))
    return (u[:, : len(s)] * s) @ dagger(v[:, : len(s)])


def test_block_decisions_are_those_of_the_block_diagonal_matrix(monkeypatch):
    # 1e-6 lies above the cutoff of its own 6 x 3 block (6e-9) but below
    # that of the whole 16 x 9 matrix with sigma_max 1e3 (1.6e-5): the
    # blocks are ranked at the cutoff of the whole matrix
    blocks = [
        _with_singular_values(6, 3, [1e3, 1.0]),
        _with_singular_values(6, 3, [1.0, 1e-6]),
        _with_singular_values(4, 3, [2.0, 1.0, 1e-7]),
    ]
    whole = _block_diag(blocks)
    shapes = []
    real_svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        shapes.append(np.shape(args[0]))
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    # the two 6 x 3 blocks as one stack, the 4 x 3 block as a stack of one
    stacks = [np.stack(blocks[:2]), blocks[2]]
    null = block_nullspace(stacks)
    # one SVD per stack, of the R factors of its blocks
    assert shapes == [(2, 3, 3), (1, 3, 3)]
    assert [k.shape[1] for k in null] == [1, 2, 1]
    assert subspace_distance(_block_diag(null), nullspace(whole)) < 1e-12
    spans = block_range(stacks)
    assert [u.shape[1] for u in spans] == [2, 1, 2]
    assert [u.shape[1] for u in block_range(blocks)] == [2, 1, 2]
    assert subspace_distance(_block_diag(spans), orthonormal_columns(whole)) < 1e-12
    # the cutoff follows the tolerance: 16 * 1e-4 * 1e3 = 1.6 at abs_tol 1e-4
    loose = Tolerance(abs_tol=1e-4)
    assert [k.shape[1] for k in block_nullspace(stacks, loose)] == [2, 3, 2]


def test_block_positive_definite_is_that_of_the_block_diagonal_matrix():
    # 3e-6 is above the cutoff of its own 2 x 2 block, below that of the
    # whole 5 x 5 matrix with largest eigenvalue 1e3 (5e-6)
    blocks = [np.diag([1e3, 1.0]), np.diag([3e-6, 1.0]), np.array([[2.0 + 1j]])]
    whole = _block_diag(blocks)
    assert positive_definite(blocks[1]) == (True, pytest.approx(3e-6))
    assert block_positive_definite(blocks) == positive_definite(whole)
    assert block_positive_definite(blocks) == (False, pytest.approx(3e-6))
    # a stack is a list of blocks; an antihermitian part does not count
    stacked = [np.stack(blocks[:2]), blocks[2]]
    assert block_positive_definite(stacked) == positive_definite(whole)
    # at abs_tol 1e-10 the cutoff of the whole matrix is 5e-7
    tight = Tolerance(abs_tol=1e-10)
    assert block_positive_definite(blocks, tight) == positive_definite(whole, tight)
    assert block_positive_definite(blocks, tight) == (True, pytest.approx(3e-6))


def test_numerical_rank_ranks_each_matrix_of_a_stack_at_its_own_cutoff(monkeypatch):
    stack = np.stack(
        [
            _with_singular_values(5, 4, [1e3, 1.0]),
            _with_singular_values(5, 4, [1.0, 1e-6, 1e-12]),
            np.zeros((5, 4)),
        ]
    )
    calls = []
    real_svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    ranks = numerical_rank(stack.reshape(3, 1, 5, 4))
    assert calls == [(3, 1, 5, 4)]
    assert ranks.tolist() == [[2], [2], [0]]
    assert ranks.reshape(-1).tolist() == [numerical_rank(m) for m in stack]


def _permuted_block_system(rng):
    """A 9 x 8 matrix that is block diagonal after a permutation of its
    rows and columns: a 3 x 2 block, two 2 x 2 blocks (one of rank 1), a
    2 x 1 block, and a column with no nonzero."""
    blocks = [rand_c(3, 2), rand_c(2, 2), rand_c(2, 1) @ rand_c(1, 2), rand_c(2, 1)]
    a = np.zeros((9, 8), dtype=complex)
    r = c = 0
    for b in blocks:
        a[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return a[rng.permutation(9)][:, rng.permutation(8)]


def test_components_label_each_row_and_column_by_its_least_column():
    # a path b_0 - r_0 - b_2 - r_1 - b_1 is one component; row 2 meets no column
    a = np.zeros((3, 4))
    a[0, [0, 2]] = a[1, [2, 1]] = 1.0
    rows, cols = components(_table(a))
    assert rows.tolist() == [0, 0, 4]
    assert cols.tolist() == [0, 0, 0, 3]


@pytest.mark.parametrize("consistent", [True, False])
def test_solve_by_components_is_the_affine_solve_of_the_whole_matrix(consistent):
    """Solved one component at a time, the components of one shape stacked,
    a system gives the least-norm point, the null space and the residual
    of the dense solve of the whole matrix, whose shape the components
    fill; a column with no nonzero is free."""
    rng = np.random.default_rng(3)
    a = _permuted_block_system(rng)
    b = a @ rand_c(8) if consistent else rand_c(9)
    space = solve_by_components(_table(a), b)
    try:
        want = solve_affine_space([(a, b)])
    except Inconsistent as exc:
        want = exc.space
    assert space.null.shape[1] == want.null.shape[1] == 2
    assert subspace_distance(space.null, want.null) < 1e-12
    assert max_abs(space.particular - want.particular) < 1e-12
    assert abs(space.residual - want.residual) < 1e-12
    assert (space.residual <= 1e-12) == consistent


def test_solve_by_components_ranks_at_the_cutoff_of_all_components():
    """A component whose singular value lies below the cutoff of the
    block-diagonal matrix of all components is rank deficient even where
    its own cutoff would keep it."""
    a, tol = np.diag([1.0, 1.5e-8]), Tolerance(abs_tol=1e-8)
    # alone, the 1 x 1 component 1.5e-8 lies above its cutoff 1e-8; beside
    # the component 1 the cutoff of the 2 x 2 block-diagonal matrix is 2e-8
    assert solve_by_components(_table(a[1:, 1:]), np.ones(1), tol).unique
    space = solve_by_components(_table(a), np.array([1.0, 0.0]), tol)
    assert space.null.shape[1] == 1 and max_abs(space.null[:, 0] - [0, 1]) == 0
