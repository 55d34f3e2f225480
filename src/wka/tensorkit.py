"""Dense complex tensor utilities: tolerances, subspaces, rank factorization,
affine solves.  All numerics are numpy; every cutoff is controlled by an
explicit Tolerance so callers never depend on library defaults.

Index conventions used throughout the package:
  * elements of an algebra M are coefficient vectors over a fixed basis,
  * elements of M (x) M are coefficient matrices C with C[a, b] the
    coefficient of basis pair (b_a, b_b),
  * a coproduct is a rank-3 tensor T with T[i, j, k] the coefficient of
    (b_j, b_k) in Delta(b_i),
  * the flip map on M (x) M is the matrix transpose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Inconsistent

__all__ = [
    "Tolerance",
    "AffineSpace",
    "dagger",
    "difference_max_abs",
    "max_abs",
    "nullspace",
    "numerical_rank",
    "orthonormal_columns",
    "rank_factorization",
    "solve_affine_space",
    "subspace_contains",
    "subspace_distance",
    "intersect_subspaces",
]

DEFAULT_ABS_TOL = 1e-9


@dataclass(frozen=True)
class Tolerance:
    """Absolute entrywise tolerance."""

    abs_tol: float = DEFAULT_ABS_TOL

    def rank_cutoff(self, shape, smax: float) -> float:
        # Singular values at or below dim * abs_tol * sigma_max are noise.
        # sigma_max is floored at 1 so a matrix that is itself numerical
        # noise (for example the commutator map of a commutative algebra)
        # is treated as zero rather than as full rank.
        return max(shape) * self.abs_tol * max(smax, 1.0)


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
    return 0.0 if a.size == 0 else float(np.max(np.abs(a)))


def difference_max_abs(left, right) -> float:
    """Max abs of the difference of two sparse tensors given as (keys, values)
    with repeated keys, after summing the values of each key."""
    keys = np.concatenate([left[0], right[0]])
    if keys.size == 0:
        return 0.0
    values = np.concatenate([left[1], -right[1]])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    return max_abs(np.add.reduceat(values[order], first))


def orthonormal_columns(vs: np.ndarray, tol: Tolerance | None = None) -> np.ndarray:
    """Orthonormal basis (as columns) of the column span of vs."""
    tol = as_tol(tol)
    vs = np.asarray(vs, dtype=complex)
    if vs.size == 0:
        return vs.reshape(vs.shape[0], 0)
    u, s, _ = np.linalg.svd(vs, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return vs[:, :0]
    keep = s > tol.rank_cutoff(vs.shape, s[0])
    return u[:, keep]


def nullspace(a: np.ndarray, tol: Tolerance | None = None) -> np.ndarray:
    """Orthonormal basis (as columns) of the right null space of a."""
    tol = as_tol(tol)
    a = np.asarray(a, dtype=complex)
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=complex)
    # full V is only needed when the system is wide; a tall system's
    # reduced vh is already square and a full U would be huge
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    smax = s[0] if s.size else 0.0
    cutoff = tol.rank_cutoff(a.shape, smax)
    rank = int(np.sum(s > cutoff))
    return dagger(vh)[:, rank:]


def numerical_rank(a: np.ndarray, tol: Tolerance | None = None) -> int:
    """Number of singular values of a above the rank cutoff."""
    s = np.linalg.svd(a, compute_uv=False)
    smax = float(s[0]) if s.size else 0.0
    return int(np.count_nonzero(s > as_tol(tol).rank_cutoff(a.shape, smax)))


def subspace_contains(basis: np.ndarray, vectors: np.ndarray) -> float:
    """Max-norm residual of projecting vectors onto span(basis columns)."""
    basis = np.asarray(basis, dtype=complex)
    vectors = np.asarray(vectors, dtype=complex)
    if vectors.ndim == 1:
        vectors = vectors[:, None]
    q = orthonormal_columns(basis)
    return max_abs(vectors - q @ (dagger(q) @ vectors))


def subspace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max-norm difference of orthogonal projectors onto the two spans."""
    qa = orthonormal_columns(np.asarray(a, dtype=complex))
    qb = orthonormal_columns(np.asarray(b, dtype=complex))
    return max_abs(qa @ dagger(qa) - qb @ dagger(qb))


def intersect_subspaces(bases, tol: Tolerance | None = None) -> np.ndarray:
    """Orthonormal basis of the intersection of column spans."""
    tol = as_tol(tol)
    bases = [orthonormal_columns(np.asarray(b, dtype=complex), tol) for b in bases]
    if not bases:
        raise ValueError("need at least one subspace")
    dim = bases[0].shape[0]
    # x in every span  <=>  (1 - P_i) x = 0 for all projectors P_i
    rows = [np.eye(dim, dtype=complex) - q @ dagger(q) for q in bases]
    return nullspace(np.vstack(rows), tol)


def _star_close_span(basis: np.ndarray, star, tol: Tolerance) -> np.ndarray:
    """Average a span with an antilinear involution and re-trim its rank.

    star maps coefficient vectors antilinearly; the span of a minimal
    factorization is *-closed in exact arithmetic, so averaging only
    removes numerical drift.  The returned basis has the same rank.
    """
    cols = []
    for i in range(basis.shape[1]):
        v = basis[:, i]
        w = star(v)
        cols.append((v + w) / 2.0)
        cols.append((v - w) / 2.0j)
    stacked = np.stack(cols, axis=1)
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    keep = s > tol.rank_cutoff(stacked.shape, s[0] if s.size else 0.0)
    out = u[:, keep]
    if out.shape[1] != basis.shape[1]:
        # drift exceeded the cutoff; keep the leading directions
        out = u[:, : basis.shape[1]]
    return out


def rank_factorization(
    mat: np.ndarray,
    tol: Tolerance | None = None,
    star_left=None,
    star_right=None,
):
    """Minimal factorization mat[a, b] = sum_i x_i[a] * y_i[b].

    The rank cutoff keeps singular values above dim * abs_tol * sigma_max.
    When antilinear involutions are supplied, the left factor span is
    averaged to be *-closed and the right factors are re-solved so the
    factorization is preserved exactly (up to least squares).
    Returns (xs, ys): two lists of coefficient vectors of equal length.
    """
    tol = as_tol(tol)
    mat = np.asarray(mat, dtype=complex)
    u, s, vh = np.linalg.svd(mat)
    smax = s[0] if s.size else 0.0
    cutoff = tol.rank_cutoff(mat.shape, smax)
    rank = int(np.sum(s > cutoff))
    if rank == 0:
        return [], []
    xs = u[:, :rank] * np.sqrt(s[:rank])
    ys = vh[:rank, :].T * np.sqrt(s[:rank])
    if star_left is not None:
        xbasis = _star_close_span(xs, star_left, tol)
        # re-solve the right factors against the adjusted left span
        ysT, *_ = np.linalg.lstsq(xbasis, mat, rcond=None)
        xs, ys = xbasis, ysT.T
    if star_right is not None:
        ybasis = _star_close_span(ys, star_right, tol)
        xsT, *_ = np.linalg.lstsq(ybasis, mat.T, rcond=None)
        xs, ys = xsT.T, ybasis
        if star_left is not None:
            # keep the left span *-closed after the right-side re-solve
            xbasis = _star_close_span(orthonormal_columns(xs, tol), star_left, tol)
            ysT, *_ = np.linalg.lstsq(xbasis, mat, rcond=None)
            xs, ys = xbasis, ysT.T
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
    (m_i,).  Raises Inconsistent when the residual exceeds 10 * abs_tol.
    """
    tol = as_tol(tol)
    mats, rhss = [], []
    for a, b in constraints:
        a = np.asarray(a, dtype=complex)
        if a.ndim == 1:
            a = a[None, :]
        mats.append(a)
        rhss.append(np.atleast_1d(np.asarray(b, dtype=complex)))
    big_a = np.vstack(mats)
    big_b = np.concatenate(rhss)
    x, *_ = np.linalg.lstsq(big_a, big_b, rcond=None)
    residual = max_abs(big_a @ x - big_b)
    if residual > 10.0 * tol.abs_tol:
        raise Inconsistent(f"affine system residual {residual:.3e}")
    return AffineSpace(particular=x, null=nullspace(big_a, tol), residual=residual)
