"""Weak Kac algebras: the core type, the axiom verifier, counital maps,
Cartan subalgebras and morphism checks.

A weak Kac algebra is (M, Delta, S, eps) with M a finite-dimensional
C*-algebra, Delta a coassociative *-homomorphism M -> M (x) M (not
required to be unital), S a unital anti-*-automorphism with S^2 = id
and (S (x) S) Delta = flip Delta S, and eps a counit satisfying
  1) eps(S(x)) = eps(x),  eps(x*) = conj(eps(x))
  2) (eps (x) eps)((x (x) 1) e (1 (x) y)) = eps(xy)
  3) (eps_s (x) id) Delta(x) = (1 (x) x) e
where e = Delta(1), eps_t = mu (id (x) S) Delta and eps_s = mu (S (x) id) Delta.
Delta is injective, since the counit pair gives it the left inverse
eps (x) id.  The verifier also evaluates the equivalent axiom set A2/A3/A4
and its primed variants.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .algebra import (
    FdAlgebra,
    Functional,
    SubalgebraBasis,
    _read_only,
    center,
    make_algebra,
    regular_trace_of,
    wedderburn_realize,
    StarAlgebraData,
)
from .errors import CartanMismatch
from .report import VerificationReport
from .tensorkit import (
    Table,
    Tolerance,
    _bincount,
    _coassociativity_dense,
    _coassociativity_join,
    _contract,
    _join,
    _prefer_join,
    _residual,
    _row_starts,
    _table,
    as_tol,
    dagger,
    difference_max_abs,
    intersect_subspaces,
    max_abs,
    rank_factorization,
    subspace_distance,
)

__all__ = [
    "WeakKac",
    "CartanPair",
    "verify_weak_kac",
    "cartan_subalgebras",
    "counital_maps",
    "check_morphism",
    "check_kac_bimodule",
    "hyper_center",
    "decompose_if_split",
    "restrict_to_blocks",
]

class Coproduct(NamedTuple):
    """Delta as COO: Delta(b_i) has coefficient v at b_j (x) b_k.  Each index
    triple appears once, in row-major order, and no value is exactly 0."""

    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    v: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.v.size)


class WeakKac:
    """Weak Kac algebra by structure constants over a matrix-unit basis.

    The coproduct is stored as its nonzeros only (a Coproduct).  It is
    given as a tuple (i, j, k, v), repeated triples summed, or as a dense
    array with coproduct[i, j, k] the coefficient of b_j (x) b_k in
    Delta(b_i).  Other modules read it through `delta`, `pair_leg` and the
    joins of this module.  The antipode acts on coefficient vectors by
    matrix multiplication; the counit is a covector.  An element of M (x) M
    is a coefficient matrix, and a stack of them over the basis a sparse
    3-tensor (a, x, y, values) of the joins of this module; only the dense
    coassociativity and multiplicativity paths form a d^3 array.

    The d x d structure maps that the axiom suite reads, e = Delta(1),
    eps(b_a b_b), eps_t, eps_s and S, are held as Tables of their nonzeros,
    the first four coalesced from the joins that form them, S from one scan
    of the antipode: verify_weak_kac reads no d x d array but the stored
    antipode.  e_matrix, eps_mult, eps_t_matrix and eps_s_matrix are their
    dense views for the derived structures, scattered on first read.

    The structure arrays are read-only copies of the inputs, so every
    derived structure is computed once per algebra: the structure maps as
    cached properties, the tolerance-dependent ones through `memo`.
    """

    def __init__(self, algebra: FdAlgebra, coproduct, antipode, counit, meta=None):
        self.algebra = algebra
        d = algebra.dim
        self.coproduct = _coproduct_coo(coproduct, d)
        self.antipode = _read_only(np.array(antipode, dtype=complex))
        self.counit = None if counit is None else _read_only(np.array(counit, dtype=complex))
        if self.antipode.shape != (d, d):
            raise ValueError("antipode matrix has wrong shape")
        if self.counit is not None and self.counit.shape != (d,):
            raise ValueError("counit covector has wrong shape")
        for name in ("antipode", "counit"):
            if getattr(self, name) is not None:
                _check_entries(name, getattr(self, name))
        self.meta = dict(meta or {})
        self._memo = {}

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def memo(self, key, compute):
        """The value of compute(), computed once per key for this algebra.

        A key names a derived structure and the settings it depends on,
        such as ("dual", tol).  The arrays of the value are made
        read-only, so no caller can change what later callers receive.
        """
        if key not in self._memo:
            self._memo[key] = _freeze(compute())
        return self._memo[key]

    def delta(self, x) -> np.ndarray:
        """Coefficient matrix of Delta(x)."""
        i, j, k, v = self.coproduct
        d = self.dim
        return _bincount(j * d + k, np.asarray(x, dtype=complex)[i] * v, d * d).reshape(d, d)

    def pair_leg(self, phi, leg: int) -> np.ndarray:
        """(id (x) phi) Delta (leg 1) or (phi (x) id) Delta (leg 0) on the
        basis, by `_pair`: out[a, b] is the coefficient of b_b in the
        pairing of Delta(b_a)."""
        return _pair(self.coproduct, phi, leg)

    @cached_property
    def e_table(self) -> Table:
        """e = Delta(1): the terms of Delta(b_i) at the diagonal units b_i."""
        i, j, k, v = self.coproduct
        return _square_table(k, j, self.algebra.unit[i] * v, self.dim)

    @cached_property
    def eps_mult_table(self) -> Table:
        """eps(b_a b_b) at row a, column b: eps(b_m) at each product b_a b_b = b_m."""
        a, b, m = self.algebra.products
        return _square_table(b, a, self.counit[m], self.dim)

    # eps_t = mu (id (x) S) Delta and eps_s = mu (S (x) id) Delta on
    # coefficient vectors
    eps_t_table, eps_s_table = (cached_property(lambda w, leg=leg: w._counital_table(leg)) for leg in (1, 0))

    @cached_property
    def antipode_table(self) -> Table:
        return Table(*(_read_only(a) for a in _table(self.antipode)[:3]), self.antipode.shape)

    # the dense views: e_matrix[a, b] is the coefficient of b_a (x) b_b in e,
    # eps_mult[a, b] = eps(b_a b_b), the others the matrices of eps_t, eps_s
    e_matrix, eps_mult, eps_t_matrix, eps_s_matrix = (
        cached_property(lambda w, name=name: _read_only(getattr(w, name).dense()))
        for name in ("e_table", "eps_mult_table", "eps_t_table", "eps_s_table")
    )

    def e_products(self, leg: int, left: bool):
        """The sparse stack over j of (b_j (x) 1) e, e (b_j (x) 1), (1 (x) b_j) e
        or e (1 (x) b_j), by _basis_products, computed once per algebra."""
        return self.memo(("e_products", leg, left), lambda: _basis_products(self.algebra, self.e_table, leg, left))

    def _counital_table(self, antipode_leg: int) -> Table:
        """mu (id (x) S) Delta (antipode_leg 1) or mu (S (x) id) Delta (0) by
        one join: term t[i,m,n] b_m (x) b_n meets each S[c,n] with b_m b_c =
        b_o (or S[c,m] with b_c b_n = b_o), keyed by the column of S and the
        row (or column) of b_c, and adds t[i,m,n] S[c,.] at row o, column i."""
        alg, (i, m, n, v), (col, c, s, _) = self.algebra, self.coproduct, self.antipode_table
        rows, cols, size = alg.basis_row, alg.basis_col, alg.matrix_size
        kept, moved, meets, at_c = (m, n, cols, rows) if antipode_leg else (n, m, rows, cols)
        key = col * size + at_c[c]
        order = key.argsort(kind="stable")
        f, r = _join(moved * size + meets[kept], _row_starts(key[order], self.dim * size))
        o = alg.prod_table[(kept[f], c[order[r]]) if antipode_leg else (c[order[r]], kept[f])]
        return _square_table(i[f], o, v[f] * s[order[r]], self.dim)

    def __repr__(self):
        tag = self.meta.get("name", "")
        return f"WeakKac({self.algebra.block_shape}{', ' + tag if tag else ''})"


def _coproduct_coo(coproduct, d: int) -> Coproduct:
    """The Coproduct of a tuple (i, j, k, v) or of a dense (d, d, d) array."""
    if isinstance(coproduct, tuple) and np.ndim(coproduct[0]) == 1:
        *index, v = (np.asarray(a).ravel() for a in coproduct)
        if any(a.size and (a.min() < 0 or a.max() >= d) for a in index):
            raise ValueError("coproduct index out of range")
    else:
        dense = np.asarray(coproduct, dtype=complex)
        if dense.shape != (d, d, d):
            raise ValueError("coproduct tensor has wrong shape")
        index = np.nonzero(dense)
        v = dense[index]
    _check_entries("coproduct", v)
    keys, v = _coalesce(np.ravel_multi_index([a.astype(np.int64) for a in index], (d, d, d)), v)
    return Coproduct(*(_read_only(a) for a in (*np.unravel_index(keys, (d, d, d)), v)))


# A product of three entries of this magnitude stays finite in float64.
_MAX_ENTRY = 1e100


def _check_entries(name: str, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"{name} has non-finite entries")
    if values.size and np.abs(values).max() > _MAX_ENTRY:
        raise ValueError(
            f"{name} has an entry of magnitude {np.abs(values).max():.3g},"
            f" above {_MAX_ENTRY:.0e}: products of three entries could overflow"
        )


def _coalesce(keys: np.ndarray, values: np.ndarray):
    """Sorted distinct keys, the values of each key summed from 0 in input
    order, and the keys whose sum is exactly 0 left out."""
    order = keys.argsort(kind="stable")
    keys, first = keys[order], np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    values = _bincount(first.cumsum() - 1, values[order], int(first.sum()))
    return keys[first][values != 0], values[values != 0]


def _square_table(col, row, values, d: int) -> Table:
    """The read-only d x d Table of the entries (row, col, value), repeated
    entries summed from 0 in input order; zero values add nothing."""
    kept = values != 0
    keys, v = _coalesce(col[kept] * d + row[kept], values[kept])
    return Table(*(_read_only(a) for a in (keys // d, keys % d, v)), (d, d))


def _freeze(value):
    """Make the arrays of a memoized value read-only: an array, the items of
    a tuple or list, or the array attributes and meta entries of an object."""
    if isinstance(value, np.ndarray):
        _read_only(value)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _freeze(item)
    elif hasattr(value, "__dict__"):
        for item in [*vars(value).values(), *getattr(value, "meta", {}).values()]:
            if isinstance(item, np.ndarray):
                _read_only(item)
    return value


# ---------------------------------------------------------------------------
# axiom residuals
# ---------------------------------------------------------------------------


def _coassociativity_residual(w: WeakKac) -> float:
    """Residual of (Delta (x) id) Delta = (id (x) Delta) Delta."""
    i, j, k, _ = w.coproduct
    counts = np.diff(_row_starts(i, w.dim))
    if _prefer_join(int(counts[j].sum() + counts[k].sum()), w.dim):
        return _coassociativity_join(w.coproduct, w.dim)
    return _coassociativity_dense(w.pair_leg(np.eye(w.dim), 1))  # the dense coproduct


def _generators(alg: FdAlgebra) -> list:
    """1, x = sum_r (r + 1)/N e_rr and a = sum over |r - s| = 1 of e_rs: the
    polynomials in x give every e_rr, and e_rr a e_ss every unit next to the
    diagonal of a block, whose products give the rest of the block."""
    r, c = alg.basis_row, alg.basis_col
    x = np.where(r == c, (r + 1) / alg.matrix_size, 0.0)
    return [alg.unit, x, (np.abs(r - c) == 1).astype(float)]


def _delta_mult_residual(w: WeakKac) -> float:
    """Residual of Delta(xy) = Delta(x) Delta(y), by the join over the
    coproduct's nonzeros when that is cheaper, else densely.

    The dense test is exhaustive over basis pairs on fixed generators: the
    set {y : Delta(y x) = Delta(y) Delta(x) for all x} is a subalgebra, so
    it suffices to test the generators of _generators against every basis
    element."""
    i, j, k, _ = w.coproduct
    alg = w.algebra
    n = alg.matrix_size
    # right side: terms of Delta(b_a) and Delta(b_b) meet where the columns
    # of the first match the rows of the second; left side: rows of Delta
    # at every nonzero product b_a b_b
    first = np.bincount(alg.basis_col[j] * n + alg.basis_col[k], minlength=n * n)
    second = np.bincount(alg.basis_row[j] * n + alg.basis_row[k], minlength=n * n)
    counts = np.diff(_row_starts(i, w.dim))
    join_size = int(first @ second + counts[alg.products[2]].sum())
    if _prefer_join(join_size, w.dim):
        return _delta_mult_join(w)
    return _delta_mult_dense(w, _generators(alg))


def _delta_mult_dense(w: WeakKac, xs) -> float:
    """Max over x in xs and basis b_j of |Delta(x b_j) - Delta(x) Delta(b_j)|,
    with products in M (x) M taken as concrete matrices."""
    alg, t = w.algebra, w.pair_leg(np.eye(w.dim), 1)  # the dense coproduct
    dim = alg.dim
    n2 = alg.matrix_size ** 2
    mats = np.stack([alg.to_matrix2(t[j]) for j in range(dim)])
    stacked = mats.transpose(1, 0, 2).reshape(n2, dim * n2)
    worst = 0.0
    for x in xs:
        # Delta(x b_j) over the basis b_j
        lhs = np.einsum("mj,mab->jab", alg.lmat(x), t, optimize=True)
        xg = alg.to_matrix2(w.delta(x))
        rhs_flat = (xg @ stacked).reshape(n2, dim, n2).transpose(1, 0, 2)
        for j in range(dim):
            worst = max(worst, max_abs(lhs[j] - alg.from_matrix2(rhs_flat[j])))
    return worst


def _delta_mult_join(w: WeakKac) -> float:
    """Multiplicativity over the nonzeros, exhaustive over basis pairs.

    Delta(b_a) Delta(b_b) is the sum of t[a,p,q] t[b,r,s] (b_p b_r) (x) (b_q b_s)
    over the terms with col(p) = row(r) and col(q) = row(s); Delta(b_a b_b) is
    row prod[a, b] of the coproduct.  Both are keyed by (a, b, x, y).
    """
    alg, d = w.algebra, w.dim
    n = alg.matrix_size
    i, j, k, v = w.coproduct
    rows, cols, prod = alg.basis_row, alg.basis_col, alg.prod_table
    second = rows[j] * n + rows[k]
    order = np.argsort(second, kind="stable")
    starts = _row_starts(second[order], n * n)
    f, s = _join(cols[j] * n + cols[k], starts)
    s = order[s]
    right = (
        ((i[f] * d + i[s]) * d + prod[j[f], j[s]]) * d + prod[k[f], k[s]],
        v[f] * v[s],
    )
    a, b, ab = alg.products
    p, m = _join(ab, _row_starts(i, d))
    left = (((a[p] * d + b[p]) * d + j[m]) * d + k[m], v[m])
    return difference_max_abs(left, right)


def _rows_times(keys, cols, values, mat: np.ndarray) -> np.ndarray:
    """The matrix of entries (row key, column, value), one row per distinct
    key in key order, repeated entries summed, times mat, without forming
    it: each entry adds its value times row `column` of mat."""
    rows, row = np.unique(keys, return_inverse=True)
    k = mat.shape[1]
    index = (row[:, None] * k + np.arange(k)).ravel()
    return _bincount(index, (values[:, None] * mat[cols]).ravel(), rows.size * k).reshape(rows.size, k)


def _pair(coo, phi, leg: int) -> np.ndarray:
    """(id (x) phi) (leg 1) or (phi (x) id) (leg 0) of each element a of a
    sparse stack (a, x, y, values): out[a, b] is the coefficient of b_b.
    phi is a covector, or a d x m block of them, its columns carried last."""
    a, x, y, v = coo
    kept, paired = (x, y) if leg else (y, x)
    out = np.zeros((phi.shape[0], phi.shape[0], *phi.shape[1:]), dtype=complex)
    np.add.at(out, (a, kept), v.reshape(-1, *[1] * (phi.ndim - 1)) * phi[paired])
    return out


def _basis_products(alg: FdAlgebra, c: Table, leg: int, left: bool):
    """The sparse stack over j of (b_j (x) 1) C, C (b_j (x) 1), (1 (x) b_j) C
    or C (1 (x) b_j) for (leg, left) = (0, True), (0, False), (1, True) or
    (1, False), C given by the Table c of its coefficient matrix: each product
    b_j b_k = b_m meets row k (leg 0) or column k (leg 1) of c."""
    p, q, m = alg.products
    j, k = (p, q) if left else (q, p)
    i, x, y, v = _contract((j, k, m, np.ones(m.size)), c if leg else c.T, 1)
    return (i, x, y, v) if leg else (i, y, x, v)


def _multiplicativity_residual(src: FdAlgebra, dst: FdAlgebra, f: Table, anti: bool = False) -> float:
    """Max over basis pairs of |f(b_a b_b) - f(b_a) f(b_b)| for the linear map
    f : src -> dst given by the Table of its matrix, or of |f(b_a b_b) -
    f(b_b) f(b_a)| when anti is set: f applied to the products of src, against
    each product b_x b_y = b_z of dst with the nonzeros f[x, i] and f[y, j]."""
    left = _contract((*src.products, np.ones(src.products[0].size)), f, 2)
    x, y, z, ft = *dst.products, f.T
    i, j, z, v = _contract(_contract((x, y, z, np.ones(z.size)), ft, 0), ft, 1)
    return _residual(left, (j, i, z, v) if anti else (i, j, z, v), max(src.dim, dst.dim))


def _intertwining_residual(t1, t2, f, flip: bool = False) -> float:
    """Residual of (f (x) f) Delta_1 = Delta_2 f (or = flip Delta_2 f) on the
    basis of the domain, for f given by the Table of its matrix and the
    coproducts Delta_1, Delta_2 as sparse 3-tensors (i, j, k, values).  The
    legs of Delta_1 meet f one at a time, repeated triples summed between."""
    shape = (max(f.shape),) * 3
    i, j, k, v = _contract(t1, f, 1)
    keys, summed = _coalesce(np.ravel_multi_index((i, j, k), shape), v)
    left = _contract((*np.unravel_index(keys, shape), summed), f, 2)
    i, j, k, v = _contract(t2, f.T, 0)
    return _residual(left, (i, k, j, v) if flip else (i, j, k, v), shape[0])


def _delta_star_residual(w: WeakKac) -> float:
    """Residual of Delta(x*) = (* (x) *) Delta(x) on the basis: the star
    permutes matrix units, so Delta(b_j*) is row *j of the coproduct and
    (* (x) *) Delta(b_j) the conjugated terms of row j at (*a, *b)."""
    star = w.algebra.star_index
    i, j, k, v = w.coproduct
    return _residual((star[i], j, k, v), (i, star[j], star[k], np.conj(v)), w.dim)


def _antipode_residuals(w: WeakKac) -> dict:
    """The antipode axioms on the Table of S: S S = 1 joins it with itself,
    and S(x*) = S(x)* compares S[a, *b] with conj(S[*a, b]) by permuting
    its entries with the star, as _delta_star_residual does."""
    alg, s, d, star = w.algebra, w.antipode_table, w.dim, w.algebra.star_index
    col, row, v, _ = s
    res = {}
    res["antipode_unital"] = max_abs(w.antipode @ alg.unit - alg.unit)
    _, a, c, x = _contract((col, row, col, v), s, 1)  # S[a, b] S[b, c] at (a, c)
    res["antipode_involutive"] = difference_max_abs((a * d + c, x), (np.arange(d) * (d + 1), np.ones(d)))
    res["antipode_star"] = difference_max_abs((row * d + star[col], v), (star[row] * d + col, np.conj(v)))
    # S(b_a b_b) = S(b_b) S(b_a) over all basis pairs
    res["antipode_antimultiplicative"] = _multiplicativity_residual(alg, alg, s, anti=True)
    # (S (x) S) Delta = flip Delta S
    res["antipode_flips_coproduct"] = _intertwining_residual(w.coproduct, w.coproduct, s, flip=True)
    return res


def _counit_pair(w: WeakKac, eps) -> tuple:
    """Residuals of (eps (x) id) Delta = id and (id (x) eps) Delta = id: each
    term t[i,j,k] adds t[i,j,k] eps[j] at (k, i) and t[i,j,k] eps[k] at (j, i)."""
    d = w.dim
    i, j, k, v = w.coproduct
    eye = (np.arange(d) * (d + 1), np.ones(d))
    left = difference_max_abs((k * d + i, v * eps[j]), eye)
    return left, difference_max_abs((j * d + i, v * eps[k]), eye)


def _counit_residuals(w: WeakKac) -> dict:
    """The counit axioms other than the counit pair itself.  Those in
    M (x) M contract one leg of the sparse coproduct with a Table and
    compare it with the basis products of e, also sparse.  The products of
    e and eps_mult are formed once each, densely on U x U, U the indices of
    the nonzero rows and columns of either: both vanish outside it, and so
    do their products.  A4 and A4' compare the Tables of those products
    with those of eps_s and eps_t."""
    alg, t, eps, d, e, em = w.algebra, w.coproduct, w.counit, w.dim, w.e_table, w.eps_mult_table
    u = np.flatnonzero(np.bincount(np.concatenate([e.col, e.row, em.col, em.row]), minlength=d))
    e_u, em_u = (Table(*np.searchsorted(u, x[:2]), x.v, (u.size, u.size)).dense() for x in (e, em))
    on_u = [em_u @ e_u, e_u @ em_u, e_u @ em_u.T, em_u.T @ e_u]
    # the same products as Tables over the whole basis
    em_e, e_em, e_emt, emt_e = (Table(u[x.col], u[x.row], x.v, (d, d)) for x in map(_table, on_u))
    res = {}
    res["axiom1_s_invariance"] = max_abs(eps @ w.antipode - eps)
    res["axiom1_star"] = max_abs(alg.star_columns(eps) - np.conj(eps))
    res["axiom2"] = max_abs(on_u[0] @ em_u - em_u)

    # (1 (x) b_j) e and e (1 (x) b_j) over the basis
    one_x_e, e_one_x = w.e_products(1, left=True), w.e_products(1, left=False)
    compress_t, res["axiom3"] = _compression_residuals(w)
    # A2 at [a, b, n]: (em e)[a, p] where b_p b_b = b_n, against sum_c em[a, c] t[b, c, n]
    q, a, m, g = _basis_products(alg, em_e, leg=1, left=False)
    b, c, n, v = _contract(t, em, 1)
    res["axiomA2"] = _residual((a, q, m, g), (c, b, n, v), d)
    res["axiomA3"] = _residual(_contract(t, e_em, 1), e_one_x, d)
    res["axiomA4"] = difference_max_abs(*((x.col * d + x.row, x.v) for x in (w.eps_s_table, e_emt)))
    lhs_a2p = _basis_products(alg, emt_e, leg=1, left=True)
    res["axiomA2_prime"] = _residual(lhs_a2p, _contract(t, em.T, 1), d)
    res["axiomA3_prime"] = _residual(_contract(t, e_emt, 1), one_x_e, d)
    res["axiomA3_doubleprime"] = compress_t
    res["axiomA3_star"] = max_abs(on_u[1] @ e_u - e_u)
    res["axiomA4_prime"] = difference_max_abs(*((x.col * d + x.row, x.v) for x in (w.eps_t_table, emt_e.T)))
    return res


def _compression_residuals(w: WeakKac) -> tuple:
    """Residuals of (id (x) eps_t) Delta(x) = e (x (x) 1) and
    (eps_s (x) id) Delta(x) = (1 (x) x) e over the basis, axioms A3'' and
    3; neither reads the counit."""
    t, d = w.coproduct, w.dim
    return (
        _residual(_contract(t, w.eps_t_table, 2), w.e_products(0, left=False), d),
        _residual(_contract(t, w.eps_s_table, 1), w.e_products(1, left=True), d),
    )


def verify_weak_kac(w: WeakKac, tol=None, seed=None) -> VerificationReport:
    """Evaluate every defining axiom of a weak Kac algebra as a residual.

    The report contains one named check per axiom (coproduct, antipode,
    counit, the equivalent A-set); verdict is pass iff every residual is
    within tolerance.  Every residual in M (x) M joins the coproduct's
    nonzeros with the Tables of the structure maps (WeakKac) or with the
    product table, so no d^3 array is formed; only coassociativity and
    multiplicativity keep a dense d^5 path, taken where it is cheaper.  The
    only d x d array read is the stored antipode.  Nothing is drawn at random;
    `seed` is accepted for callers that pass one and is ignored.
    """
    tol = as_tol(tol)
    if w.counit is None:
        raise ValueError("counit is required for full verification")
    rep = VerificationReport(f"weak Kac axioms {w!r}", tol)
    _add_counit_free_checks(rep, w)
    left, right = _counit_pair(w, w.counit)
    rep.add("counit_left", left)
    rep.add("counit_right", right)
    for name, r in _counit_residuals(w).items():
        rep.add(name, r)
    return rep


def _add_counit_free_checks(rep: VerificationReport, w: WeakKac) -> None:
    """The axioms of (M, Delta, S): coproduct and antipode."""
    rep.add("delta_coassociative", _coassociativity_residual(w))
    rep.add("delta_multiplicative", _delta_mult_residual(w))
    rep.add("delta_star_compatible", _delta_star_residual(w))
    for name, r in _antipode_residuals(w).items():
        rep.add(name, r)


# ---------------------------------------------------------------------------
# Cartan subalgebras
# ---------------------------------------------------------------------------


class CartanPair:
    """Source and target Cartan subalgebras of a weak Kac algebra.

    N_s = {x : Delta(x) = e (1 (x) x) = (1 (x) x) e} is spanned by the left
    factors of the minimal decomposition e = sum_i x_i (x) y_i, and N_t by
    the right factors; S maps N_s onto N_t.
    """

    def __init__(self, source, target, xs, ys, source_shape, target_shape, report):
        self.source: SubalgebraBasis = source
        self.target: SubalgebraBasis = target
        self.xs = xs
        self.ys = ys
        self.source_shape = source_shape
        self.target_shape = target_shape
        self.report: VerificationReport = report


def _cartan_spans(w: WeakKac, tol: Tolerance):
    """Bases of N_s and N_t from a minimal factorization of e (no checks);
    raises CartanMismatch when e has no factors."""
    tol = as_tol(tol)

    def factor():
        alg = w.algebra
        xs, ys = rank_factorization(w.e_matrix, tol, star=alg.star)
        if not xs:
            raise CartanMismatch("e = Delta(1) is zero: it has no factors")
        ns = SubalgebraBasis(alg, np.stack(xs, axis=1), tol)
        nt = SubalgebraBasis(alg, np.stack(ys, axis=1), tol)
        return ns, nt, xs, ys

    return w.memo(("cartan_spans", tol), factor)


def _subalgebra_realization(sub: SubalgebraBasis, tol: Tolerance):
    """Wedderburn data of a unital *-subalgebra given by a span."""
    products, star, unit = sub.structure_constants()
    data = StarAlgebraData(products, star, unit, regular_trace_of(products, sub.dim))
    return wedderburn_realize(data, tol)


def _defining_relation_residuals(w: WeakKac, ns: SubalgebraBasis, nt: SubalgebraBasis) -> tuple:
    """Residuals (source, target) of the defining relations of N_s and N_t on
    their bases: Delta(x) = e (x (x) 1) = (x (x) 1) e for N_t, the same on
    the second leg for N_s, one row per relation and basis pair b_m (x) b_n
    and one column per basis element x, applied to the basis by _rows_times."""
    d, (i, j, k, v) = w.dim, w.coproduct

    def residual(leg, span):
        terms = [((r * d + j) * d + k, i, v) for r in (0, 1)]
        products = (w.e_products(leg, left) for left in (False, True))
        terms += [((r * d + m) * d + n, x, -u) for r, (x, m, n, u) in enumerate(products)]
        return max_abs(_rows_times(*map(np.concatenate, zip(*terms)), span.basis))

    return residual(1, ns), residual(0, nt)


def cartan_subalgebras(w: WeakKac, tol=None) -> CartanPair:
    """Compute N_s, N_t with the paired factorization of e and verify their
    defining relations, mutual commutation, biorthogonality and the
    block-structure formula reconstructing e from matrix units of N_s.
    Biorthogonality is checked in one order: eps(x y) = eps(y x) for
    commuting x, y."""
    tol = as_tol(tol)
    alg = w.algebra
    e = w.e_matrix
    ns, nt, xs, ys = _cartan_spans(w, tol)
    rep = VerificationReport("Cartan subalgebras", tol)

    if ns.dim != nt.dim:
        raise CartanMismatch(f"factor ranks differ: {ns.dim} vs {nt.dim}")
    rep.add("factorization_reconstructs_e", max_abs(sum(np.outer(x, y) for x, y in zip(xs, ys)) - e))

    worst_s, worst_t = _defining_relation_residuals(w, ns, nt)
    if max(worst_s, worst_t) > 1e4 * tol.abs_tol:
        raise CartanMismatch(f"defining relations fail: N_s {worst_s:.2e}, N_t {worst_t:.2e}")
    rep.add("source_defining_relation", worst_s)
    rep.add("target_defining_relation", worst_t)

    rep.add("source_closed", ns.closure_residual())
    rep.add("target_closed", nt.closure_residual())

    # v u against u v over the bases v of N_s and u of N_t
    i, j, m, v = alg.product_terms(nt.basis, ns.basis)
    rep.add("cartans_commute", _residual(alg.product_terms(ns.basis, nt.basis), (j, i, m, v), alg.dim))

    rep.add("antipode_swaps_cartans", subspace_distance(w.antipode @ ns.basis, nt.basis, tol))

    # eps(y_r x_s), rows r and columns s
    xmat, ymat = np.stack(xs, axis=1), np.stack(ys, axis=1)
    bio = ymat.T @ w.eps_mult @ xmat
    rep.add("biorthogonal", max_abs(bio - np.eye(len(xs))))

    rep.add("coproduct_of_e", _coproduct_of_e_residual(w))

    # X_S(v) e against e X_v^T over the basis v of N_t, X = R and L: column c
    # of R_S(v) e is e_c S(v), row r of e R_v^T is e^r v, e_c and e^r the
    # columns and rows of e
    n, sn, d = nt.basis, w.antipode @ nt.basis, alg.dim
    c, i, r, v = alg.product_terms(e.T, n)
    exchange = _residual(alg.product_terms(e, sn), (r, i, c, v), d)
    i, r, c, v = alg.product_terms(n, e.T)
    exchange = max(exchange, _residual(alg.product_terms(sn, e), (i, c, r, v), d))
    rep.add("e_exchanges_target_factors", exchange)

    src = _subalgebra_realization(ns, tol)
    tgt = _subalgebra_realization(nt, tol)
    fs = ns.basis @ src.from_canonical
    rep.add("block_formula_reconstructs_e", _block_formula_residual(w, fs, src.algebra))
    return CartanPair(ns, nt, xs, ys, src.algebra.block_shape, tgt.algebra.block_shape, rep)


def _coproduct_of_e_residual(w: WeakKac) -> float:
    """Residual of (Delta (x) id)(e) = (e (x) 1)(1 (x) e) = (id (x) Delta)(e)
    and of (e (x) 1)(1 (x) e) = (1 (x) e)(e (x) 1), each side a join over
    the coproduct's nonzeros or the basis products of e."""
    t, e, d = w.coproduct, w.e_table, w.dim
    b, m, n, v = _contract(t, e.T, 0)
    # (e (x) 1)(1 (x) e) and (1 (x) e)(e (x) 1): row a of e against (b_a (x) 1) e
    ee = _contract(w.e_products(0, left=True), e, 0)
    ee2 = _contract(w.e_products(0, left=False), e, 0)
    return max(
        _residual((m, n, b, v), ee, d), _residual(_contract(t, e, 0), ee, d), _residual(ee, ee2, d)
    )


def _block_formula_residual(w: WeakKac, source_units, source_alg) -> float:
    """Residual of e = sum_blocks (1/n) sum_{pq} f_{pq} (x) S(f_{qp})."""
    sizes = np.asarray(source_alg.block_shape, dtype=float)[source_alg.basis_block]
    flipped = w.antipode @ source_units[:, source_alg.star_index]  # S(f_qp) at pq
    return max_abs((source_units / sizes) @ flipped.T - w.e_matrix)


# ---------------------------------------------------------------------------
# counital maps
# ---------------------------------------------------------------------------


def counital_maps(w: WeakKac, tol=None) -> VerificationReport:
    """The report on eps_t = mu (id (x) S) Delta and eps_s = mu (S (x) id)
    Delta, the matrices w.eps_t_matrix and w.eps_s_matrix: unital
    idempotents onto the Cartan subalgebras, S eps_t = eps_s S, module
    properties and the e-compression identities.

    The bimodule property eps_t(n S(n') x) = n eps_t(x) n' over N_t is
    checked one side at a time, eps_t L_n = L_n eps_t and eps_t L_S(n) =
    R_n eps_t for each basis element n of N_t: N_t holds 1 = S(1), so n' = 1
    or n = 1 gives these, and composing them gives it back.  These and
    eps_t R_n = eps_t R_S(n) compare products of the basis of N_t with the
    basis and with the columns of eps_t, joined over the product triples."""
    tol = as_tol(tol)
    alg = w.algebra
    et, es = w.eps_t_matrix, w.eps_s_matrix
    ns, nt, _, _ = _cartan_spans(w, tol)
    rep = VerificationReport("counital maps", tol)
    rep.add("target_unital", max_abs(et @ alg.unit - alg.unit))
    rep.add("source_unital", max_abs(es @ alg.unit - alg.unit))
    rep.add("target_idempotent", max_abs(et @ et - et))
    rep.add("source_idempotent", max_abs(es @ es - es))
    rep.add("target_range", subspace_distance(et, nt.basis, tol))
    rep.add("source_range", subspace_distance(es, ns.basis, tol))
    rep.add("antipode_interchange", max_abs(w.antipode @ et - es @ w.antipode))
    rep.add("counit_compatible", max_abs(w.counit @ et - w.counit))
    rep.add("identity_on_target", max_abs(et @ nt.basis - nt.basis))
    rep.add("antipode_on_source", max_abs(et @ ns.basis - w.antipode @ ns.basis))
    rep.add("star_symmetry", max_abs(alg.star(et) - alg.star_columns(et) @ np.conj(w.antipode)))

    # eps_t(x y) = eps_t(x eps_t(y)) over all basis pairs: the sparse stacks
    # over a of eps_t L_a and eps_t L_a eps_t
    p, q, m = alg.products
    table = _table(et)
    lhs = _contract((p, m, q, np.ones(m.size)), table, 1)
    rhs = _contract(_basis_products(alg, table, leg=0, left=True), table, 1)
    rep.add("absorbs_right_factor", _residual(lhs, rhs, alg.dim))

    # the two halves of the bimodule property, and eps_t R_n = eps_t R_S(n),
    # on the basis b_c: eps_t(n b_c) = n eps_t(b_c), eps_t(S(n) b_c) =
    # eps_t(b_c) n and eps_t(b_c n) = eps_t(b_c S(n))
    n, sn, eye, d = nt.basis, w.antipode @ nt.basis, np.eye(alg.dim), alg.dim
    l_n, l_sn = (_contract(alg.product_terms(x, eye), table, 2) for x in (n, sn))
    c, i, m, v = alg.product_terms(et, n)
    worst_mod = max(_residual(l_n, alg.product_terms(n, et), d), _residual(l_sn, (i, c, m, v), d))
    rep.add("target_bimodule_map", worst_mod)
    worst_right = _residual(*(_contract(alg.product_terms(eye, x), table, 2) for x in (n, sn)), d)
    rep.add("right_antipode_absorption", worst_right)
    return rep


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------


def check_morphism(w1: WeakKac, w2: WeakKac, pi, tol=None) -> VerificationReport:
    """Verify pi : w1 -> w2 is a morphism of weak Kac algebras: a unital
    *-homomorphism intertwining coproduct, antipode and counit and
    restricting to a bijection between the Cartan subalgebras."""
    tol = as_tol(tol)
    pi = np.asarray(pi, dtype=complex)
    a1, a2 = w1.algebra, w2.algebra
    rep = VerificationReport("weak Kac morphism", tol)
    rep.add("unital", max_abs(pi @ a1.unit - a2.unit))
    rep.add("star_homomorphism", max_abs(a1.star_columns(pi) - a2.star(pi)))

    table = _table(pi)
    rep.add("multiplicative", _multiplicativity_residual(a1, a2, table))

    rep.add("intertwines_coproduct", _intertwining_residual(w1.coproduct, w2.coproduct, table))
    rep.add("intertwines_antipode", max_abs(pi @ w1.antipode - w2.antipode @ pi))
    rep.add("preserves_counit", max_abs(w2.counit @ pi - w1.counit))

    ns1, nt1, _, _ = _cartan_spans(w1, tol)
    ns2, nt2, _, _ = _cartan_spans(w2, tol)
    rep.add("cartan_source_bijective", subspace_distance(pi @ ns1.basis, ns2.basis, tol))
    rep.add("cartan_target_bijective", subspace_distance(pi @ nt1.basis, nt2.basis, tol))
    return rep


# ---------------------------------------------------------------------------
# bimodule characterization of the counit
# ---------------------------------------------------------------------------


def check_kac_bimodule(algebra: FdAlgebra, coproduct, antipode, tol=None):
    """Characterize the counit of a generalized counital C*-bialgebra.

    Given (M, Delta, S) only, builds eps_t, eps_s, the candidate counit
    eps = theta_t eps_t = theta_s eps_s (theta_* = regular trace of the
    Cartan subalgebra) and reports whether (id (x) eps) Delta = id.  N_s
    and N_t are the factor spans of e = Delta(1) (_cartan_spans), with
    their defining relations as cartan_subalgebras reports them.  When
    every check passes, the remaining counit axioms of the assembled weak
    Kac algebra are added under the prefix "assembled.", but for axioms 3
    and A3'': those read no counit and are the compressions.
    Returns (report, Functional or None); raises CartanMismatch when e = 0.
    """
    tol = as_tol(tol)
    w = WeakKac(algebra, coproduct, antipode, None)
    alg = algebra
    rep = VerificationReport("Kac bimodule characterization", tol)
    _add_counit_free_checks(rep, w)

    et, es = w.eps_t_matrix, w.eps_s_matrix
    rep.add("eps_t_unital", max_abs(et @ alg.unit - alg.unit))
    rep.add("eps_s_unital", max_abs(es @ alg.unit - alg.unit))

    ns, nt, _, _ = _cartan_spans(w, tol)
    worst_s, worst_t = _defining_relation_residuals(w, ns, nt)
    rep.add("source_defining_relation", worst_s)
    rep.add("target_defining_relation", worst_t)
    rep.add("eps_t_range_in_cartan", nt.contains(et))
    rep.add("eps_s_range_in_cartan", ns.contains(es))
    rep.add("target_cartan_closed", nt.closure_residual())
    rep.add("source_cartan_closed", ns.closure_residual())

    # the counit-free axioms A3'' and 3, by the joins of _counit_residuals
    target, source = _compression_residuals(w)
    rep.add("target_compression", target)
    rep.add("source_compression", source)

    # x -> theta_*(P x), theta_* the regular trace of N_* and P the orthogonal projection onto it
    theta_t, theta_s = (regular_trace_of(n.structure_constants()[0], n.dim) @ dagger(n.basis) for n in (nt, ns))
    eps_t_route, eps_s_route = theta_t @ et, theta_s @ es
    rep.add("routes_agree", max_abs(eps_t_route - eps_s_route))
    eps = (eps_t_route + eps_s_route) / 2

    left, right = _counit_pair(w, eps)
    rep.add("counit_right", right)
    rep.add("counit_left", left)

    if not rep.passed:
        return rep, None
    for name, r in _counit_residuals(WeakKac(algebra, w.coproduct, antipode, eps)).items():
        if name not in ("axiom3", "axiomA3_doubleprime"):  # the compressions, above
            rep.add("assembled." + name, r)
    return rep, Functional(algebra, eps) if rep.passed else None


# ---------------------------------------------------------------------------
# hyper-center and direct-sum splitting
# ---------------------------------------------------------------------------


def hyper_center(w: WeakKac, tol=None) -> SubalgebraBasis:
    """N_s intersect N_t intersect Z(M), the obstruction to indecomposability,
    from the Cartan spans of the factorization of e, solved once per
    algebra and tolerance.  Its minimal projections are the sums of the
    blocks of each hyper-central class (_hyper_central_classes): w is the
    direct sum of its restrictions to them."""
    tol = as_tol(tol)

    def solve():
        ns, nt, _, _ = _cartan_spans(w, tol)
        spans = [nt.basis, ns.basis, center(w.algebra).basis]
        return SubalgebraBasis(w.algebra, intersect_subspaces(spans, tol), tol, orthonormalize=False)

    return w.memo(("hyper_center", tol), solve)


def _hyper_central_classes(w: WeakKac, tol: Tolerance) -> np.ndarray:
    """The hyper-central class of each block, numbered in the order of
    their least blocks, computed once per algebra and tolerance.

    Hyper-central elements are central, so each is a scalar on every
    block; blocks where all of them agree (within 100 abs_tol) form a
    class."""

    def classes():
        alg = w.algebra
        # values[i, b]: the scalar of hyper-central basis element i on block b
        scalars = np.stack(
            [alg.block_identity(b) / alg.block_shape[b] for b in range(alg.nblocks)], axis=1
        )
        values = hyper_center(w, tol).basis.T @ scalars
        labels = np.full(alg.nblocks, -1)
        for b in range(alg.nblocks):
            if labels[b] < 0:
                same = np.abs(values - values[:, b : b + 1]).max(axis=0, initial=0.0)
                labels[(same <= 100 * tol.abs_tol) & (labels < 0)] = labels.max() + 1
        return labels

    return w.memo(("hyper_central_classes", tol), classes)


def restrict_to_blocks(w: WeakKac, blocks) -> tuple:
    """Compress the structure to a central projection that is a sum of the
    given blocks.  Returns (WeakKac, restriction matrix)."""
    alg = w.algebra
    blocks = sorted(blocks)
    sub_alg = make_algebra([alg.block_shape[i] for i in blocks])
    keep = np.flatnonzero(np.isin(alg.basis_block, blocks))  # the units of the blocks, in order
    pi = np.zeros((sub_alg.dim, alg.dim), dtype=complex)
    pi[np.arange(sub_alg.dim), keep] = 1.0
    units = Table(keep, np.arange(keep.size), np.ones(keep.size), pi.shape)  # the nonzeros of pi
    t = _contract(_contract(_contract(w.coproduct, units, 0), units, 1), units, 2)
    s = w.antipode[np.ix_(keep, keep)]
    eps = None if w.counit is None else w.counit[keep]
    meta = dict(w.meta)
    meta["name"] = meta.get("name", "") + f"|blocks{tuple(blocks)}"
    return WeakKac(sub_alg, t, s, eps, meta), pi


def decompose_if_split(w: WeakKac, tol=None):
    """Split w along a nontrivial hyper-central projection if one exists:
    the hyper-central class of block 0 (_hyper_central_classes) from the
    other blocks.  Returns None when the hyper-center is trivial, otherwise
    (w1, w2, report) where w1 holds the class of block 0 and both summands
    are fully verified.
    """
    tol = as_tol(tol)
    hc = hyper_center(w, tol)
    if hc.dim < 2:
        return None
    alg = w.algebra
    first = _hyper_central_classes(w, tol) == 0
    group1 = np.flatnonzero(first).tolist()
    group2 = np.flatnonzero(~first).tolist()
    w1, pi1 = restrict_to_blocks(w, group1)
    w2, pi2 = restrict_to_blocks(w, group2)
    q = sum(alg.block_identity(b) for b in group1)
    rep = VerificationReport("direct sum splitting", tol)
    rep.add("projection_in_hyper_center", hc.contains(q))
    rep.add("antipode_fixes_projection", max_abs(w.antipode @ q - q))
    rep.extend(verify_weak_kac(w1, tol), prefix="summand1.")
    rep.extend(verify_weak_kac(w2, tol), prefix="summand2.")
    return w1, w2, rep
