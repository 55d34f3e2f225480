"""Dense complex tensor utilities: tolerances, subspaces, rank factorization,
affine solves, and the joins of sparse 3-tensors (i, j, k, values) with the
nonzeros of matrices (Table) that the residuals over nonzeros are built
from.  All numerics are numpy.

The only module that decides a numerical rank.  Each decision counts the
singular values (or eigenvalues) above the one Tolerance.rank_cutoff,
max(shape) * abs_tol * max(sigma_max, 1): null spaces (Haar traces,
commutants, ideals), ranks (leg injectivity, conditional expectations),
spans (Cartan subalgebras, counit support, range checks), affine solves
(Haar projection and trace; the counit equations, per connected component
of a Table by solve_by_components), definiteness (faithfulness, GNS forms,
complete positivity) and eigenspaces (the Wedderburn split).  One rule: a
matrix is ranked at the shape it is given in.  Before an SVD its
exactly-zero rows are dropped and a tall one is reduced to its R factor;
neither changes the singular values or right singular vectors, nor the
shape that the rank is counted at.

A block-diagonal operator, such as left or right multiplication on the
matrix units of M = (+) M_{n_i}, is decided from its diagonal blocks
(block_nullspace, block_range, block_positive_definite), given as stacks
of blocks of one shape (one per block size, as FdAlgebra.block_stacks
returns them), each factored in one stacked call.  Every block is counted
at the cutoff of the block-diagonal matrix with each block once on its
diagonal, its shape and sigma_max (or largest eigenvalue) over all
blocks, so each rank, dimension and verdict is the one that matrix gives;
nullspace, orthonormal_columns and positive_definite are the case of one
block.  A stack of unrelated matrices is ranked by numerical_rank in one
stacked SVD, each matrix at its own cutoff.

Index conventions used throughout the package:
  * elements of an algebra M are coefficient vectors over a fixed basis,
  * elements of M (x) M are coefficient matrices C with C[a, b] the
    coefficient of basis pair (b_a, b_b),
  * a coproduct is a rank-3 tensor T with T[i, j, k] the coefficient of
    (b_j, b_k) in Delta(b_i),
  * the flip map on M (x) M is the matrix transpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import Inconsistent

__all__ = [
    "Tolerance",
    "AffineSpace",
    "block_nullspace",
    "block_positive_definite",
    "block_range",
    "components",
    "dagger",
    "difference_max_abs",
    "eigenspaces",
    "max_abs",
    "nullspace",
    "numerical_rank",
    "orthonormal_columns",
    "positive_definite",
    "rank_factorization",
    "solve_affine_space",
    "solve_by_components",
    "subspace_contains",
    "subspace_distance",
    "intersect_subspaces",
]

DEFAULT_ABS_TOL = 1e-9


@dataclass(frozen=True)
class Tolerance:
    """Absolute entrywise tolerance, positive and finite."""

    abs_tol: float = DEFAULT_ABS_TOL

    def __post_init__(self):
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0):
            raise ValueError(f"tolerance must be positive and finite, got {self.abs_tol!r}")

    def rank_cutoff(self, shape, smax):
        # Singular values at or below dim * abs_tol * sigma_max are noise.
        # sigma_max is floored at 1 so a matrix that is itself numerical
        # noise (for example the commutator map of a commutative algebra)
        # is treated as zero rather than as full rank.  smax may be an
        # array, one sigma_max per matrix of a stack.
        return max(shape) * self.abs_tol * np.maximum(smax, 1.0)


def as_tol(tol) -> Tolerance:
    if tol is None:
        return Tolerance()
    if isinstance(tol, Tolerance):
        return tol
    return Tolerance(abs_tol=float(tol))


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(np.asarray(a)).T


def max_abs(a) -> float:
    a = np.asarray(a)
    return 0.0 if a.size == 0 else float(np.abs(a).max())


def difference_max_abs(left, right) -> float:
    """Max abs of the difference of two sparse tensors given as (keys, values)
    with repeated keys, after summing the values of each key; the values
    may carry trailing axes, such as a block per key."""
    keys = np.concatenate([left[0], right[0]])
    if keys.size == 0:
        return 0.0
    values = np.concatenate([left[1], -right[1]])
    order = keys.argsort()
    keys, first = keys[order], np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return max_abs(np.add.reduceat(values[order], first.nonzero()[0]))


def _bincount(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """out[i]: the sum from 0 of the complex values at index i, in input
    order."""
    return np.bincount(index, values.real, size) + 1j * np.bincount(index, values.imag, size)


def _row_starts(sorted_keys: np.ndarray, size: int) -> np.ndarray:
    """starts[r] : starts[r + 1] is the run of key r in sorted_keys."""
    return np.concatenate(([0], np.bincount(sorted_keys, minlength=size).cumsum()))


def _join(keys: np.ndarray, starts: np.ndarray):
    """All pairs (n, m) with m in the run starts[keys[n]] : starts[keys[n] + 1]."""
    lo = starts[keys]
    counts = starts[keys + 1] - lo
    n = np.arange(keys.size).repeat(counts)
    return n, np.arange(n.size) + (lo + counts - counts.cumsum())[n]


class Table(NamedTuple):
    """The nonzeros of a matrix of the given shape, column by column: entry
    n is mat[row[n], col[n]] = v[n], ordered by column, then row.  No value
    is exactly 0."""

    col: np.ndarray
    row: np.ndarray
    v: np.ndarray
    shape: tuple

    @property
    def T(self) -> "Table":
        """The Table of the transpose."""
        order = self.row.argsort(kind="stable")
        return Table(self.row[order], self.col[order], self.v[order], self.shape[::-1])

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=complex)
        out[self.row, self.col] = self.v
        return out


def _table(mat: np.ndarray) -> Table:
    """The Table of a dense matrix, by one scan of its entries."""
    col, row = mat.astype(bool).T.nonzero()
    return Table(col, row, mat[row, col], mat.shape)


def _contract(coo, table: Table, axis: int):
    """The matrix of a Table applied to one axis of a sparse 3-tensor
    (i, j, k, values), out[.., x, ..] = sum_a mat[x, a] in[.., a, ..]: one
    product per pair of a nonzero of the tensor and a nonzero in column a
    of the matrix."""
    col, row, v, shape = table
    n, r = _join(coo[axis], _row_starts(col, shape[1]))
    out = [index[n] for index in coo[:3]]
    out[axis] = row[r]
    return (*out, coo[3][n] * v[r])


# One product of a join over nonzeros takes about as long as this many of
# the d^5 operations of the dense contraction it replaces (fitted over the
# catalog, see CHANGES.md).  A residual runs as a join when that is cheaper.
_JOIN_PRODUCT_COST = 40


def _prefer_join(join_size: int, dim: int) -> bool:
    return _JOIN_PRODUCT_COST * join_size < dim ** 5


def _coassociativity_join(coo, dim: int) -> float:
    """Max abs of (T (x) id) T - (id (x) T) T for a sparse 3-tensor T sorted
    by i: each term t[i,j,k] b_j (x) b_k of T(b_i) is joined with row j of
    T for the left side and row k for the right, keyed by the quadruple."""
    i, j, k, v = coo
    starts = _row_starts(i, dim)
    n, m = _join(j, starts)
    left = (((i[n] * dim + j[m]) * dim + k[m]) * dim + k[n], v[n] * v[m])
    n, m = _join(k, starts)
    right = (((i[n] * dim + j[n]) * dim + j[m]) * dim + k[m], v[n] * v[m])
    return difference_max_abs(left, right)


def _coassociativity_dense(t: np.ndarray) -> float:
    """_coassociativity_join on the dense d x d x d tensor t, one leading
    index at a time as two products of d x d and d^2 x d matrices."""
    dim = t.shape[0]
    tflat = t.reshape(dim, dim * dim)
    worst = 0.0
    for i in range(dim):
        g1 = (tflat.T @ t[i]).reshape(dim, dim, dim)  # [x, y, k]
        g2 = (t[i] @ tflat).reshape(dim, dim, dim)  # [j, y, z]
        worst = max(worst, max_abs(g1 - g2))
    return worst


def _residual(left, right, base: int) -> float:
    """Max abs difference of two sparse 3-tensors (i, j, k, values) whose
    indices lie below base, repeated index triples summed."""
    shape = (base,) * 3
    return difference_max_abs(*((np.ravel_multi_index(t[:3], shape), t[3]) for t in (left, right)))


def _rank(s: np.ndarray, shape, tol: Tolerance) -> int:
    """Number of the descending singular values s of a matrix of the given
    shape that lie above the rank cutoff."""
    return int(np.count_nonzero(s > tol.rank_cutoff(shape, s[0] if s.size else 0.0)))


def _stack(a) -> np.ndarray:
    """a as a stack (k, m, n) of matrices; a single matrix is a stack of one."""
    a = np.asarray(a, dtype=complex)
    return a.reshape(math.prod(a.shape[:-2]), *a.shape[-2:])


def _block_cutoff(stacks, values, tol) -> float:
    """The rank cutoff of the block-diagonal matrix with every matrix of the
    stacks once on its diagonal: its shape, and the largest of the singular
    values (or eigenvalues) of its blocks, given as one array per stack."""
    shape = sum(len(a) * a.shape[1] for a in stacks), sum(len(a) * a.shape[2] for a in stacks)
    return as_tol(tol).rank_cutoff(shape, max((v.max(initial=0.0) for v in values), default=0.0))


def _drop_zero_rows(a: np.ndarray) -> np.ndarray:
    """The matrices of the stack a (..., m, n) without the rows that are
    zero in every one of them."""
    return a[..., np.any(a != 0, axis=tuple(range(a.ndim - 2)) + (a.ndim - 1,)), :]


def _r_factor(a: np.ndarray) -> np.ndarray:
    """The stack a without its common zero rows, reduced to its R factors
    when still tall."""
    a = _drop_zero_rows(a)
    return np.linalg.qr(a, mode="r") if a.shape[-2] > a.shape[-1] else a


def block_nullspace(stacks, tol: Tolerance | None = None) -> list:
    """Orthonormal bases (as columns) of the right null spaces of the
    diagonal blocks of a block-diagonal matrix, whose null space is their
    direct sum.  stacks holds the blocks as stacks (..., m, n) of blocks of
    one shape (a single matrix is a stack of one); one basis per block, in
    the order of the stacks.  Each stack makes one QR (of its rows that are
    nonzero in any of its blocks, when tall) and one SVD."""
    stacks = [_stack(a) for a in stacks]
    svds = [np.linalg.svd(_r_factor(a)) for a in stacks]
    cut = _block_cutoff(stacks, [s for _, s, _ in svds], tol)
    return [
        v[:, rank:]
        for _, s, vh in svds
        for rank, v in zip((s > cut).sum(axis=1).tolist(), vh.conj().swapaxes(1, 2))
    ]


def block_range(stacks, tol: Tolerance | None = None) -> list:
    """Orthonormal bases (as columns) of the column spans of the diagonal
    blocks of a block-diagonal matrix, given as for block_nullspace; one
    basis per block, from one SVD per stack."""
    stacks = [_stack(a) for a in stacks]
    svds = [np.linalg.svd(a, full_matrices=False)[:2] for a in stacks]
    cut = _block_cutoff(stacks, [s for _, s in svds], tol)
    return [
        u[:, :rank] for us, s in svds for rank, u in zip((s > cut).sum(axis=1).tolist(), us)
    ]


def block_positive_definite(stacks, tol: Tolerance | None = None):
    """(ok, min_eig) for the hermitian part of the block-diagonal matrix
    with the square diagonal blocks of stacks, given as for block_nullspace:
    ok when the smallest eigenvalue over all blocks lies above the rank
    cutoff of the largest.  One eigvalsh per stack."""
    stacks = [_stack(g) for g in stacks]
    w = np.concatenate([np.linalg.eigvalsh((g + g.conj().swapaxes(1, 2)) / 2).ravel() for g in stacks])
    cut = _block_cutoff(stacks, [w], tol)
    return bool(w.min() > cut), float(w.min())


def nullspace(a: np.ndarray, tol: Tolerance | None = None) -> np.ndarray:
    """Orthonormal basis (as columns) of the right null space of a."""
    return block_nullspace([a], tol)[0]


def orthonormal_columns(vs: np.ndarray, tol: Tolerance | None = None) -> np.ndarray:
    """Orthonormal basis (as columns) of the column span of vs."""
    return block_range([vs], tol)[0]


def positive_definite(g: np.ndarray, tol: Tolerance | None = None):
    """(ok, min_eig) for the hermitian part of g: ok when its smallest
    eigenvalue lies above the rank cutoff of its largest."""
    return block_positive_definite([g], tol)


def numerical_rank(a: np.ndarray, tol: Tolerance | None = None):
    """Number of singular values of a above the rank cutoff.  For a stack
    (..., m, n) the array of the ranks of its matrices, from one stacked
    SVD, each counted at the cutoff of its own shape and sigma_max."""
    a = np.asarray(a)
    s = np.linalg.svd(_drop_zero_rows(a), compute_uv=False)
    ranks = np.count_nonzero(s > as_tol(tol).rank_cutoff(a.shape[-2:], s[..., :1]), axis=-1)
    return int(ranks) if a.ndim == 2 else ranks


def eigenspaces(h: np.ndarray, tol: Tolerance | None = None) -> list:
    """Orthonormal bases (as columns) of the eigenspaces of the hermitian
    matrix h, in ascending order of eigenvalue; neighbouring eigenvalues
    no farther apart than the rank cutoff count as one."""
    w, v = np.linalg.eigh(h)
    cut = as_tol(tol).rank_cutoff(h.shape, max_abs(w))
    return np.split(v, np.flatnonzero(np.diff(w) > cut) + 1, axis=1)


def subspace_contains(basis: np.ndarray, vectors: np.ndarray, tol: Tolerance | None = None) -> float:
    """Max-norm residual of projecting vectors onto span(basis columns)."""
    vectors = np.asarray(vectors, dtype=complex)
    if vectors.ndim == 1:
        vectors = vectors[:, None]
    q = orthonormal_columns(basis, tol)
    return max_abs(vectors - q @ (dagger(q) @ vectors))


def subspace_distance(a: np.ndarray, b: np.ndarray, tol: Tolerance | None = None) -> float:
    """Max-norm difference of orthogonal projectors onto the two spans."""
    qa, qb = orthonormal_columns(a, tol), orthonormal_columns(b, tol)
    return max_abs(qa @ dagger(qa) - qb @ dagger(qb))


def intersect_subspaces(bases, tol: Tolerance | None = None) -> np.ndarray:
    """Orthonormal basis of the intersection of column spans."""
    tol = as_tol(tol)
    bases = [orthonormal_columns(b, tol) for b in bases]
    if not bases:
        raise ValueError("need at least one subspace")
    dim = bases[0].shape[0]
    # x in every span  <=>  (1 - P_i) x = 0 for all projectors P_i
    rows = [np.eye(dim, dtype=complex) - q @ dagger(q) for q in bases]
    return nullspace(np.vstack(rows), tol)


def _star_close_span(basis: np.ndarray, star) -> np.ndarray:
    """Orthonormal basis of the leading directions (as many as basis has
    columns) of the span averaged with an antilinear involution.

    star maps the coefficient columns of a matrix antilinearly; the span of
    a minimal factorization is *-closed in exact arithmetic, so averaging
    only removes numerical drift.
    """
    w = star(basis)
    averaged = np.hstack([(basis + w) / 2.0, (basis - w) / 2.0j])
    return np.linalg.svd(averaged, full_matrices=False)[0][:, : basis.shape[1]]


def rank_factorization(mat: np.ndarray, tol: Tolerance | None = None, star=None):
    """Minimal factorization mat[a, b] = sum_i x_i[a] * y_i[b].

    When an antilinear involution star (acting on the columns of a matrix)
    is supplied, both factor spans are made *-closed: the left span is
    averaged with its star, the right factors are the projection of mat
    onto its orthonormal basis, and so on for the right span, then once
    more for the left span, which the right-side projection moved.  Each
    projection preserves the factorization.
    Returns (xs, ys): two lists of coefficient vectors of equal length.
    """
    tol = as_tol(tol)
    mat = np.asarray(mat, dtype=complex)
    u, s, vh = np.linalg.svd(mat)
    rank = _rank(s, mat.shape, tol)
    if rank == 0:
        return [], []
    xs = u[:, :rank] * np.sqrt(s[:rank])
    ys = vh[:rank, :].T * np.sqrt(s[:rank])
    if star is not None:
        xs = _star_close_span(xs, star)
        ys = _star_close_span(mat.T @ np.conj(xs), star)
        xs = _star_close_span(orthonormal_columns(mat @ np.conj(ys), tol), star)
        ys = mat.T @ np.conj(xs)
    return [xs[:, i] for i in range(xs.shape[1])], [ys[:, i] for i in range(ys.shape[1])]


@dataclass
class AffineSpace:
    """Solution set {particular + null @ c} of an affine system."""

    particular: np.ndarray
    null: np.ndarray  # columns form an orthonormal basis
    residual: float

    @property
    def unique(self) -> bool:
        return self.null.shape[1] == 0


def solve_affine_space(constraints, tol: Tolerance | None = None) -> AffineSpace:
    """Solve a stacked affine system A_i x = b_i in the least-squares sense.

    constraints: iterable of (A, b) with A of shape (m_i, n), b of shape
    (m_i,).  The blocks are written once into [A | b], which is factored
    once: its zero rows are dropped, a tall system is reduced to the R
    factor of [A | b], whose last column is Q^H b, and the SVD of the rest
    of R (or of A itself) gives the least-norm point and the null space,
    the rank counted at the cutoff of the shape of the stacked A.
    Raises Inconsistent, carrying the least-squares solution, when the
    residual exceeds 10 * abs_tol.
    """
    tol = as_tol(tol)
    blocks = []
    for a, b in constraints:
        a = np.asarray(a)
        blocks.append((a.reshape(-1, a.shape[-1]), np.atleast_1d(b)))
    n = blocks[0][0].shape[1]
    ab = np.empty((sum(a.shape[0] for a, _ in blocks), n + 1), dtype=complex)
    row = 0
    for a, b in blocks:
        ab[row : row + a.shape[0], :n] = a
        ab[row : row + a.shape[0], n] = b
        row += a.shape[0]
    r = _r_factor(ab)
    u, s, vh = np.linalg.svd(r[:, :n])
    rank = _rank(s, (ab.shape[0], n), tol)
    x = dagger(vh[:rank]) @ ((dagger(u[:, :rank]) @ r[:, n]) / s[:rank])
    space = AffineSpace(x, dagger(vh[rank:]), residual=max_abs(ab[:, :n] @ x - ab[:, n]))
    if space.residual > 10.0 * tol.abs_tol:
        raise Inconsistent(f"affine system residual {space.residual:.3e}", space)
    return space


def components(table: Table):
    """The connected components of the rows and columns of a matrix, joined
    by the nonzeros of its Table: the label of each row and of each column,
    the least column of its component, from the least labels over rows and
    columns in turn, with pointer jumping.  A row with no nonzero is
    labelled shape[1]."""
    m, n = table.shape
    least = np.arange(n)
    while True:
        row_least = np.full(m, n)
        np.minimum.at(row_least, table.row, least[table.col])
        step = least.copy()
        np.minimum.at(step, table.col, row_least[table.row])
        step = step[step]
        if (step == least).all():
            return row_least, least
        least = step


def solve_by_components(table: Table, rhs, tol: Tolerance | None = None) -> AffineSpace:
    """Solve mat x = rhs in the least-squares sense, mat given by its Table,
    one connected component (components) at a time: the components of one
    shape, each with its part of rhs as a last column, are stacked and
    factored as solve_affine_space factors one system, every rank counted
    at the cutoff of the block-diagonal matrix of all of them (_block_cutoff).
    A column with no nonzero is a free direction.  Unlike
    solve_affine_space it does not raise: the caller reads the residual."""
    m, n = table.shape
    key = table.col * m + table.row  # ascending: a Table runs by column, then row
    # the rows and the columns of each component in index order, its shape as rows * (n + 1) + columns
    at, starts = zip(*((x.argsort(kind="stable"), _row_starts(np.sort(x), n + 1)) for x in components(table)))
    sizes = np.diff(starts[0])[:n] * (n + 1) + np.diff(starts[1])[:n]
    stacks = []
    for size in sorted(set(sizes[sizes > n].tolist())):
        of = np.flatnonzero(sizes == size)
        rows, cols = (a[s[of][:, None] + np.arange(k)] for a, s, k in zip(at, starts, divmod(size, n + 1)))
        query = cols[:, None, :] * m + rows[:, :, None]
        found = np.minimum(np.searchsorted(key, query), key.size - 1)
        a = np.where(key[found] == query, table.v[found], 0)
        r = _r_factor(np.concatenate([a, rhs[rows][..., None]], axis=2))
        stacks.append((a, cols, *np.linalg.svd(r[..., :-1]), r[..., -1]))
    cut = _block_cutoff([a for a, *_ in stacks], [s for _, _, _, s, *_ in stacks], tol)
    x, null = np.zeros(n, dtype=complex), [np.eye(n, dtype=complex)[:, sizes == 1]]
    for _, cols, u, s, vh, rb in stacks:
        # the least-norm point of each component, and its free directions
        keep = s > cut
        coef = np.where(keep, np.einsum("kji,kj->ki", u.conj(), rb)[:, : s.shape[1]] / np.where(keep, s, 1), 0)
        x[cols] = np.einsum("kij,ki->kj", vh[:, : s.shape[1]].conj(), coef)
        c, f = np.nonzero(np.arange(cols.shape[1]) >= keep.sum(axis=1)[:, None])
        null.append(np.zeros((n, c.size), dtype=complex))
        null[-1][cols[c], np.arange(c.size)[:, None]] = vh[c, f].conj()
    residual = max_abs(_bincount(table.row, table.v * x[table.col], m) - rhs)
    return AffineSpace(x, np.hstack(null), residual)
